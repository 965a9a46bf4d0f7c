#include "models/kge_model.h"

#include <vector>

#include "models/range_scan.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

void KgeModel::ScoreAllBatch(QuerySide side, std::span<const EntityId> anchors,
                             RelationId relation, std::span<float> out,
                             ScorePrecision precision) const {
  const size_t num = size_t(num_entities());
  KGE_CHECK(out.size() == anchors.size() * num);
  if (anchors.empty()) return;
  const CandidateTable table = CandidateTableAt(precision);
  if (table.width == 0) {
    KGE_CHECK(precision == ScorePrecision::kDouble);
    for (size_t q = 0; q < anchors.size(); ++q) {
      ScoreAll(side, anchors[q], relation, out.subspan(q * num, num));
    }
    return;
  }
  // Fold every context into one row-major B × width scratch matrix, then
  // a single multi-query product over the whole table. Zero heap
  // allocations at steady state.
  static thread_local std::vector<float> folds_buf;
  const std::span<float> folds =
      ScratchSpan(folds_buf, anchors.size() * table.width);
  for (size_t q = 0; q < anchors.size(); ++q) {
    FoldQuery(side, anchors[q], relation,
              folds.subspan(q * table.width, table.width));
  }
  ScoreRows(table, precision, folds.data(), anchors.size(), 0, num,
            out.data());
}

void KgeModel::FoldQuery(QuerySide /*side*/, EntityId /*anchor*/,
                         RelationId /*relation*/,
                         std::span<float> /*fold*/) const {
  KGE_CHECK(false);  // only models with a candidate table fold
}

void KgeModel::TopKTailsInRange(EntityId head, RelationId relation,
                                EntityId begin, EntityId end,
                                std::span<const EntityId> excluded,
                                ScorePrecision precision, bool prune,
                                TopKHeap<float, EntityId>* heap,
                                RankScanStats* stats) const {
  TopKInRange(*this, QuerySide::kTail, head, relation, begin, end, excluded,
              precision, prune, heap, stats);
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
