#include "models/kge_model.h"

#include "util/check.h"
#include "util/scratch.h"

namespace kge {
namespace {

// Full-vocabulary scratch for the exhaustive range-scan fallbacks: one
// per-thread buffer reused across calls (contents overwritten each use).
KGE_HOT_NOALLOC
std::span<float> FullScanScratch(size_t num_entities) {
  static thread_local std::vector<float> buf;
  return ScratchSpan(buf, num_entities);
}

// Walks scores[begin, end) counting strictly-greater / equal candidates
// against `threshold`, skipping `excluded` ids (sorted ascending) and
// `also_skip`. Shared by the base-class fallbacks; `scores` is indexed
// by absolute entity id.
KGE_HOT_NOALLOC
void CountRangeAgainstThreshold(std::span<const float> scores,
                                float threshold, EntityId begin,
                                EntityId end,
                                std::span<const EntityId> excluded,
                                EntityId also_skip, uint64_t* better,
                                uint64_t* equal) {
  size_t cursor = 0;
  while (cursor < excluded.size() && excluded[cursor] < begin) ++cursor;
  uint64_t g = 0;
  uint64_t eq = 0;
  for (EntityId e = begin; e < end; ++e) {
    if (cursor < excluded.size() && excluded[cursor] == e) {
      ++cursor;
      continue;
    }
    if (e == also_skip) continue;
    const float s = scores[size_t(e)];
    if (s > threshold) {
      ++g;
    } else if (s == threshold) {
      ++eq;
    }
  }
  *better += g;
  *equal += eq;
}

// Offers scores[begin, end) to `heap`, skipping `excluded` ids.
KGE_HOT_NOALLOC
void PushRangeExcluding(std::span<const float> scores, EntityId begin,
                        EntityId end, std::span<const EntityId> excluded,
                        TopKHeap<float, EntityId>* heap) {
  size_t cursor = 0;
  while (cursor < excluded.size() && excluded[cursor] < begin) ++cursor;
  for (EntityId e = begin; e < end; ++e) {
    if (cursor < excluded.size() && excluded[cursor] == e) {
      ++cursor;
      continue;
    }
    heap->PushCandidate(e, scores[size_t(e)]);
  }
}

}  // namespace

void KgeModel::ScoreAllBatch(QuerySide side, std::span<const EntityId> anchors,
                             RelationId relation, std::span<float> out,
                             ScorePrecision precision) const {
  KGE_CHECK(precision == ScorePrecision::kDouble);
  const size_t num = size_t(num_entities());
  KGE_DCHECK(out.size() == anchors.size() * num);
  for (size_t q = 0; q < anchors.size(); ++q) {
    ScoreAll(side, anchors[q], relation, out.subspan(q * num, num));
  }
}

namespace {

// The full-vocabulary row of one query at `precision`, scored through
// the batched interface (so reduced tiers see the same values) into
// per-thread scratch — the input of every exhaustive range-scan fallback.
KGE_HOT_NOALLOC
std::span<const float> ScoreRowScratch(const KgeModel& model, QuerySide side,
                                       EntityId anchor, RelationId relation,
                                       ScorePrecision precision) {
  const std::span<float> scores =
      FullScanScratch(size_t(model.num_entities()));
  model.ScoreAllBatch(side, std::span<const EntityId>(&anchor, 1), relation,
                      scores, precision);
  return scores;
}

}  // namespace

void KgeModel::CountAbove(QuerySide side, EntityId anchor, RelationId relation,
                          float threshold, EntityId begin, EntityId end,
                          std::span<const EntityId> excluded,
                          EntityId also_skip, ScorePrecision precision,
                          bool prune, uint64_t* better, uint64_t* equal,
                          RankScanStats* stats) const {
  (void)prune;  // no tile bounds in the exhaustive fallback
  if (begin >= end) return;
  CountRangeAgainstThreshold(
      ScoreRowScratch(*this, side, anchor, relation, precision), threshold,
      begin, end, excluded, also_skip, better, equal);
  stats->tiles_total += 1;
}

float KgeModel::ScoreOne(QuerySide side, const Triple& triple,
                         ScorePrecision precision) const {
  return ScoreRowScratch(*this, side, AnchorOf(side, triple), triple.relation,
                         precision)[size_t(AnswerOf(side, triple))];
}

void KgeModel::TopKInRange(QuerySide side, EntityId anchor,
                           RelationId relation, EntityId begin, EntityId end,
                           std::span<const EntityId> excluded,
                           ScorePrecision precision, bool prune,
                           TopKHeap<float, EntityId>* heap,
                           RankScanStats* stats) const {
  (void)prune;
  if (begin >= end) return;
  PushRangeExcluding(ScoreRowScratch(*this, side, anchor, relation, precision),
                     begin, end, excluded, heap);
  stats->tiles_total += 1;
}

void KgeModel::ScoreBatch(QuerySide side, EntityId anchor, RelationId relation,
                          std::span<const EntityId> candidates,
                          std::span<float> out) const {
  KGE_DCHECK(out.size() == candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    out[i] = static_cast<float>(
        Score(TripleOf(side, anchor, candidates[i], relation)));
  }
}

std::vector<const ParameterBlock*> KgeModel::Blocks() const {
  // The virtual Blocks() cannot be const (the trainer mutates blocks
  // through it), but the block list itself is configuration, not state:
  // collecting the pointers mutates nothing.
  std::vector<ParameterBlock*> blocks = const_cast<KgeModel*>(this)->Blocks();
  return std::vector<const ParameterBlock*>(blocks.begin(), blocks.end());
}

int64_t KgeModel::NumParameters() const {
  int64_t total = 0;
  for (const ParameterBlock* block : Blocks()) total += block->size();
  return total;
}

}  // namespace kge
