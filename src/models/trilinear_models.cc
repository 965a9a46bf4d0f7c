#include "models/trilinear_models.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/simd.h"
#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

MultiEmbeddingModel::MultiEmbeddingModel(std::string name,
                                         int32_t num_entities,
                                         int32_t num_relations, int32_t dim,
                                         WeightTable weights, uint64_t seed)
    : name_(std::move(name)),
      dim_(dim),
      weights_(std::move(weights)),
      entities_(name_ + ".entities", num_entities, weights_.ne(), dim),
      relations_(name_ + ".relations", num_relations, weights_.nr(), dim),
      entity_replica_(entities_.block()) {
  KGE_CHECK(dim > 0);
  InitParameters(seed);
}

void MultiEmbeddingModel::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relations_.InitXavier(&rng);
}

double MultiEmbeddingModel::Score(const Triple& triple) const {
  return ScoreTriple(weights_, dim_, entities_.Of(triple.head),
                     entities_.Of(triple.tail),
                     relations_.Of(triple.relation));
}

namespace {

// The side-specific half of every scoring path: the fold of a tail
// query's (h, r) or a head query's (t, r) context into `out`.
KGE_HOT_NOALLOC
void FoldContext(QuerySide side, const WeightTable& weights, int32_t dim,
                 std::span<const float> anchor, std::span<const float> rel,
                 std::span<float> out) {
  if (side == QuerySide::kTail) {
    FoldForTail(weights, dim, anchor, rel, out);
  } else {
    FoldForHead(weights, dim, anchor, rel, out);
  }
}

}  // namespace

std::span<const float> MultiEmbeddingModel::Fold(QuerySide side,
                                                 EntityId anchor,
                                                 RelationId relation) const {
  // One per-thread fold buffer: no scoring path holds a fold across a
  // call that folds again.
  static thread_local std::vector<float> fold_buf;
  const std::span<float> fold =
      ScratchSpan(fold_buf, size_t(weights_.ne()) * size_t(dim_));
  FoldContext(side, weights_, dim_, entities_.Of(anchor),
              relations_.Of(relation), fold);
  return fold;
}

void MultiEmbeddingModel::ScoreAll(QuerySide side, EntityId anchor,
                                   RelationId relation,
                                   std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // Fold once, then one tiled matrix-vector product over the whole
  // entity table (rows are contiguous in the parameter block). Zero heap
  // allocations at steady state.
  DotBatch(Fold(side, anchor, relation), entities_.block().Flat(), out);
}

void MultiEmbeddingModel::ScoreBatch(QuerySide side, EntityId anchor,
                                     RelationId relation,
                                     std::span<const EntityId> candidates,
                                     std::span<float> out) const {
  KGE_CHECK(out.size() == candidates.size());
  // Candidate rows are scored in place in the entity table via the
  // id-indirected kernel — no per-call gather copy.
  DotBatchIndexed(Fold(side, anchor, relation), entities_.block().Flat(),
                  candidates, out);
}

namespace {

// The per-tier multi-query product behind the batched scorer: one
// kernel dispatch against the entity table (double and float32 tiers
// stream the same master rows; int8 streams the quantized replica,
// which must be fresh — PrepareForScoring runs before the fanout).
KGE_HOT_NOALLOC
void DotBatchMultiAt(ScorePrecision precision, std::span<const float> folds,
                     size_t num_queries, const ParameterBlock& entity_block,
                     const ScoringReplica& replica, std::span<float> out) {
  switch (precision) {
    case ScorePrecision::kDouble:
      DotBatchMulti(folds, num_queries, entity_block.Flat(), out);
      return;
    case ScorePrecision::kFloat32:
      DotBatchMultiF32(folds, num_queries, entity_block.Flat(), out);
      return;
    case ScorePrecision::kInt8:
      KGE_DCHECK(replica.IsFresh(ScorePrecision::kInt8));
      DotBatchMultiI8(folds, num_queries, replica.Int8Rows(),
                      replica.Int8Scales(), out);
      return;
  }
  KGE_CHECK(false);
}

}  // namespace

void MultiEmbeddingModel::ScoreAllBatch(QuerySide side,
                                        std::span<const EntityId> anchors,
                                        RelationId relation,
                                        std::span<float> out,
                                        ScorePrecision precision) const {
  const size_t num = size_t(entities_.num_ids());
  KGE_CHECK(out.size() == anchors.size() * num);
  if (anchors.empty()) return;
  const size_t width = size_t(weights_.ne()) * size_t(dim_);
  // Fold every context into one row-major B × width scratch matrix, then
  // a single multi-query product over the entity table. Zero heap
  // allocations at steady state.
  static thread_local std::vector<float> folds_buf;
  const std::span<float> folds = ScratchSpan(folds_buf, anchors.size() * width);
  const std::span<const float> rel = relations_.Of(relation);
  for (size_t q = 0; q < anchors.size(); ++q) {
    FoldContext(side, weights_, dim_, entities_.Of(anchors[q]), rel,
                folds.subspan(q * width, width));
  }
  DotBatchMultiAt(precision, folds, anchors.size(), entities_.block(),
                  entity_replica_, out);
}

namespace {

// Scores entity rows [row0, row0 + len) against one fold at `precision`
// — the range-restricted twin of DotBatchMultiAt. Each output value is
// bit-identical to the corresponding cell of the full-table batched
// product (the per-cell contract of math/simd.h), so tiling, sharding,
// and pruning are pure scheduling.
KGE_HOT_NOALLOC
void ScoreRowsAt(ScorePrecision precision, const float* fold, size_t width,
                 const ParameterBlock& entity_block,
                 const ScoringReplica& replica, size_t row0, size_t len,
                 float* out) {
  switch (precision) {
    case ScorePrecision::kDouble:
      simd::DotBatch(fold, entity_block.Flat().data() + row0 * width, len,
                     width, out);
      return;
    case ScorePrecision::kFloat32:
      simd::DotBatchMultiF32(fold, 1, entity_block.Flat().data() + row0 * width,
                             len, width, out);
      return;
    case ScorePrecision::kInt8:
      KGE_DCHECK(replica.IsFresh(ScorePrecision::kInt8));
      simd::DotBatchMultiI8(fold, 1, replica.Int8Rows().data() + row0 * width,
                            replica.Int8Scales().data() + row0, len, width,
                            out);
      return;
  }
  KGE_CHECK(false);
}

}  // namespace

void MultiEmbeddingModel::CountAbove(
    QuerySide side, EntityId anchor, RelationId relation, float threshold,
    EntityId begin, EntityId end, std::span<const EntityId> excluded,
    EntityId also_skip, ScorePrecision precision, bool prune, uint64_t* better,
    uint64_t* equal, RankScanStats* stats) const {
  if (begin >= end) return;
  const std::span<const float> fold = Fold(side, anchor, relation);
  const size_t width = fold.size();
  const size_t rows_per_tile = simd::PrunedTileRows(width);
  static thread_local std::vector<float> tile_buf;
  const std::span<float> tile_scores = ScratchSpan(tile_buf, rows_per_tile);
  std::span<const float> bounds;
  double query_norm = 0.0;
  if (prune) {
    KGE_DCHECK(entity_replica_.BoundsFresh(precision));
    bounds = entity_replica_.TileBounds(precision);
    query_norm = std::sqrt(simd::SquaredNorm(fold.data(), width)) *
                 simd::kPruneBoundSlack;
  }
  const bool skip_in_excluded =
      std::binary_search(excluded.begin(), excluded.end(), also_skip);
  size_t cursor = 0;
  while (cursor < excluded.size() && excluded[cursor] < begin) ++cursor;
  uint64_t g_total = 0;
  uint64_t e_total = 0;
  for (size_t row0 = size_t(begin); row0 < size_t(end);) {
    const size_t tile = row0 / rows_per_tile;
    const size_t tile_end =
        std::min(size_t(end), (tile + 1) * rows_per_tile);
    stats->tiles_total += 1;
    // Strict <: a tile whose bound equals the threshold can still hold
    // equal-scoring candidates, which the tie-aware rank counts.
    if (prune && query_norm * double(bounds[tile]) < double(threshold)) {
      stats->tiles_skipped += 1;
      // A skipped tile provably holds no score >= threshold, so its
      // excluded ids would have contributed nothing either.
      while (cursor < excluded.size() && size_t(excluded[cursor]) < tile_end) {
        ++cursor;
      }
      row0 = tile_end;
      continue;
    }
    const size_t len = tile_end - row0;
    ScoreRowsAt(precision, fold.data(), width, entities_.block(),
                entity_replica_, row0, len, tile_scores.data());
    size_t tile_greater = 0;
    size_t tile_equal = 0;
    simd::CountGreaterEqual(tile_scores.data(), len, threshold, &tile_greater,
                            &tile_equal);
    // Back out the candidates the rank must not count: filtered ids and
    // the true entity (subtracted once even when it is also filtered).
    for (; cursor < excluded.size() && size_t(excluded[cursor]) < tile_end;
         ++cursor) {
      const float s = tile_scores[size_t(excluded[cursor]) - row0];
      if (s > threshold) {
        --tile_greater;
      } else if (s == threshold) {
        --tile_equal;
      }
    }
    if (!skip_in_excluded && also_skip >= EntityId(row0) &&
        also_skip < EntityId(tile_end)) {
      const float s = tile_scores[size_t(also_skip) - row0];
      if (s > threshold) {
        --tile_greater;
      } else if (s == threshold) {
        --tile_equal;
      }
    }
    g_total += tile_greater;
    e_total += tile_equal;
    row0 = tile_end;
  }
  *better += g_total;
  *equal += e_total;
}

float MultiEmbeddingModel::ScoreOne(QuerySide side, const Triple& triple,
                                    ScorePrecision precision) const {
  const std::span<const float> fold =
      Fold(side, AnchorOf(side, triple), triple.relation);
  float out = 0.0f;
  ScoreRowsAt(precision, fold.data(), fold.size(), entities_.block(),
              entity_replica_, size_t(AnswerOf(side, triple)), 1, &out);
  return out;
}

void MultiEmbeddingModel::TopKInRange(
    QuerySide side, EntityId anchor, RelationId relation, EntityId begin,
    EntityId end, std::span<const EntityId> excluded, ScorePrecision precision,
    bool prune, TopKHeap<float, EntityId>* heap, RankScanStats* stats) const {
  if (begin >= end) return;
  const std::span<const float> fold = Fold(side, anchor, relation);
  const size_t width = fold.size();
  const size_t rows_per_tile = simd::PrunedTileRows(width);
  static thread_local std::vector<float> tile_buf;
  const std::span<float> tile_scores = ScratchSpan(tile_buf, rows_per_tile);
  std::span<const float> bounds;
  double query_norm = 0.0;
  if (prune) {
    KGE_DCHECK(entity_replica_.BoundsFresh(precision));
    bounds = entity_replica_.TileBounds(precision);
    query_norm = std::sqrt(simd::SquaredNorm(fold.data(), width)) *
                 simd::kPruneBoundSlack;
  }
  size_t cursor = 0;
  while (cursor < excluded.size() && excluded[cursor] < begin) ++cursor;
  for (size_t row0 = size_t(begin); row0 < size_t(end);) {
    const size_t tile = row0 / rows_per_tile;
    const size_t tile_end =
        std::min(size_t(end), (tile + 1) * rows_per_tile);
    stats->tiles_total += 1;
    // Skip only on strict <, against the heap minimum once full or the
    // shared prune floor a sharded caller installed: an equal-score
    // candidate can still enter via the smaller-id tie-break, so a
    // bound equal to the threshold must be scanned.
    if (prune && heap->CanSkipBound(query_norm * double(bounds[tile]))) {
      stats->tiles_skipped += 1;
      while (cursor < excluded.size() && size_t(excluded[cursor]) < tile_end) {
        ++cursor;
      }
      row0 = tile_end;
      continue;
    }
    const size_t len = tile_end - row0;
    ScoreRowsAt(precision, fold.data(), width, entities_.block(),
                entity_replica_, row0, len, tile_scores.data());
    for (size_t i = 0; i < len; ++i) {
      const EntityId id = EntityId(row0 + i);
      if (cursor < excluded.size() && excluded[cursor] == id) {
        ++cursor;
        continue;
      }
      heap->PushCandidate(id, tile_scores[i]);
    }
    row0 = tile_end;
  }
}

std::vector<ParameterBlock*> MultiEmbeddingModel::Blocks() {
  return {entities_.block(), relations_.block()};
}

void MultiEmbeddingModel::AccumulateGradients(const Triple& triple,
                                              float dscore,
                                              GradientBuffer* grads) {
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);
  AccumulateTripleGradients(weights_, dim_, entities_.Of(triple.head),
                            entities_.Of(triple.tail),
                            relations_.Of(triple.relation), dscore, gh, gt,
                            gr);
}

void MultiEmbeddingModel::NormalizeEntities(
    std::span<const EntityId> entities) {
  for (EntityId e : entities) entities_.NormalizeVectorsOf(e);
}

std::unique_ptr<MultiEmbeddingModel> MakeDistMult(int32_t num_entities,
                                                  int32_t num_relations,
                                                  int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>(
      "DistMult", num_entities, num_relations, dim, WeightTable::DistMult(),
      seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeComplEx(int32_t num_entities,
                                                 int32_t num_relations,
                                                 int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>(
      "ComplEx", num_entities, num_relations, dim, WeightTable::ComplEx(),
      seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeCp(int32_t num_entities,
                                            int32_t num_relations,
                                            int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>("CP", num_entities,
                                               num_relations, dim,
                                               WeightTable::Cp(), seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeCph(int32_t num_entities,
                                             int32_t num_relations,
                                             int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>("CPh", num_entities,
                                               num_relations, dim,
                                               WeightTable::Cph(), seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeMultiEmbedding(
    std::string name, int32_t num_entities, int32_t num_relations,
    int32_t dim, WeightTable weights, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>(std::move(name), num_entities,
                                               num_relations, dim,
                                               std::move(weights), seed);
}

}  // namespace kge
