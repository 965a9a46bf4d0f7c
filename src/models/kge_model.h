// KgeModel: the abstract interface every knowledge graph embedding model
// implements (§2.1's three-component architecture: embedding lookup +
// interaction mechanism + prediction). The trainer and evaluator are
// written against this interface only.
//
// Training protocol per mini-batch:
//   model->BeginBatch();
//   for each (triple, dscore): model->AccumulateGradients(...);
//   loss += model->FinishBatch(&grads);
//   optimizer->Apply(grads);
//   model->NormalizeEntities(touched_entities);
#ifndef KGE_MODELS_KGE_MODEL_H_
#define KGE_MODELS_KGE_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parameter_block.h"
#include "core/scoring_replica.h"
#include "core/topk_heap.h"
#include "kg/triple.h"
#include "util/hotpath.h"

namespace kge {

// Counters reported by the range-scoped ranking scans (DESIGN.md §5h):
// how many bound tiles the scan covered and how many it proved
// sub-threshold and skipped without touching their rows. Exhaustive
// fallbacks count their whole range as one unskipped tile.
struct RankScanStats {
  uint64_t tiles_total = 0;
  uint64_t tiles_skipped = 0;
};

// Which end of a partial triple a query ranks. kTail ranks candidate
// tails for (anchor, ?, relation); kHead ranks candidate heads for
// (?, anchor, relation). The values are kge_serve's wire encoding
// (serve/serve_protocol.h), so they must never change.
enum class QuerySide : uint8_t { kTail = 0, kHead = 1 };

// The known entity of `triple` for a `side` query, and the entity that
// query ranks.
constexpr EntityId AnchorOf(QuerySide side, const Triple& triple) {
  return side == QuerySide::kTail ? triple.head : triple.tail;
}
constexpr EntityId AnswerOf(QuerySide side, const Triple& triple) {
  return side == QuerySide::kTail ? triple.tail : triple.head;
}

// The triple a `side` query over `anchor` forms with `candidate`.
constexpr Triple TripleOf(QuerySide side, EntityId anchor, EntityId candidate,
                          RelationId relation) {
  return side == QuerySide::kTail ? Triple{anchor, candidate, relation}
                                  : Triple{candidate, anchor, relation};
}

// Start of shard s when [0, n) is split into `shards` contiguous
// near-equal ranges: shard s covers
// [ShardBegin(n, shards, s), ShardBegin(n, shards, s + 1)). Computed in
// 64-bit so n·shards never overflows, monotone in s, and exactly
// partitioning — the sharded ranking paths rely on every id landing in
// exactly one shard.
constexpr EntityId ShardBegin(EntityId n, int shards, int s) {
  return EntityId((int64_t(n) * int64_t(s)) / int64_t(shards));
}

class KgeModel {
 public:
  virtual ~KgeModel() = default;

  virtual const std::string& name() const = 0;
  virtual int32_t num_entities() const = 0;
  virtual int32_t num_relations() const = 0;

  // Matching score S(h, t, r); higher = more likely valid.
  virtual double Score(const Triple& triple) const = 0;

  // Scores every candidate on `side` of a partial triple: for kTail,
  // (anchor, t', relation) for every t' in [0, num_entities); for kHead,
  // (h', anchor, relation) for every h'. `out` has num_entities floats.
  // Must be thread-safe for concurrent calls (used by the parallel
  // evaluator).
  KGE_HOT_NOALLOC
  virtual void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                        std::span<float> out) const = 0;

  // Batched full-vocabulary scoring at `precision`: row q of the
  // row-major anchors.size() × num_entities matrix `out` scores query
  // (anchors[q], side). At kDouble row q is element-for-element identical
  // to ScoreAll(side, anchors[q]) — batching is a scheduling contract,
  // never a numeric one; kFloat32 accumulates in float over the master
  // table and kInt8 reads a quantized scoring replica (see
  // core/scoring_replica.h and math/simd.h's precision-tier contract).
  // A model that folds gets its B queries folded into one scratch matrix
  // and one multi-query kernel dispatch over the whole table (ScoreRows,
  // models/range_scan.h); any other model loops ScoreAll at kDouble
  // (KGE_CHECK-fails otherwise — callers gate on SupportsScorePrecision).
  // Non-double tiers require PrepareForScoring first. Thread-safe.
  KGE_HOT_NOALLOC
  void ScoreAllBatch(QuerySide side, std::span<const EntityId> anchors,
                     RelationId relation, std::span<float> out,
                     ScorePrecision precision) const;

  // ---- Fold surface (DESIGN.md §5c) ----------------------------------------
  // A model that scores a candidate as one dot product between a folded
  // (anchor, relation) query and the candidate's row exposes both, and
  // the batched scorer and range scans (models/range_scan.h) do the rest.

  // The rows a fold is scored against at `precision`, or width 0 when
  // the model cannot fold or lacks the tier. Thread-safe.
  KGE_HOT_NOALLOC
  virtual CandidateTable CandidateTableAt(ScorePrecision precision) const {
    (void)precision;
    return {};
  }

  // Writes the `side` query's fold (CandidateTableAt(...).width floats)
  // into `fold`. Called only on models with a table. Thread-safe.
  KGE_HOT_NOALLOC
  virtual void FoldQuery(QuerySide side, EntityId anchor, RelationId relation,
                         std::span<float> fold) const;

  // True when the model can score full-vocabulary batches at
  // `precision`. Every model supports kDouble; only models with scoring
  // replicas (the trilinear family) report the reduced tiers.
  virtual bool SupportsScorePrecision(ScorePrecision precision) const {
    return precision == ScorePrecision::kDouble;
  }

  // Rebuilds any scoring replica `precision` needs if it is stale
  // against the master parameters — free at pure-eval time, one
  // requantization pass after training steps. Must be called from one
  // thread with no concurrent scoring; `const` because replicas are
  // derived caches, not model state. No-op by default and for kDouble.
  virtual void PrepareForScoring(ScorePrecision precision) const {
    (void)precision;
  }

  // PrepareForScoring plus a rebuild of the per-tile score bounds the
  // pruned range scans read (CandidateTable::tile_bounds); models without
  // bounds never skip a tile. Same threading contract.
  virtual void PrepareForPrunedScoring(ScorePrecision precision) const {
    PrepareForScoring(precision);
  }

  // TopKInRange(*this, QuerySide::kTail, …) under the name the
  // benchmark harness (kgebench/layers.cc) calls.
  void TopKTailsInRange(EntityId head, RelationId relation, EntityId begin,
                        EntityId end, std::span<const EntityId> excluded,
                        ScorePrecision precision, bool prune,
                        TopKHeap<float, EntityId>* heap,
                        RankScanStats* stats) const;

  // Scores each candidate in `candidates` on `side` of (anchor,
  // relation): out[i] = float(Score(TripleOf(side, anchor, candidates[i],
  // relation))). The base implementation loops over Score; models with a
  // fold decomposition override this to fold the context once and score
  // all candidates with a single batched matrix-vector product. Must be
  // thread-safe for concurrent calls (used by the parallel trainer
  // shards).
  KGE_HOT_NOALLOC
  virtual void ScoreBatch(QuerySide side, EntityId anchor, RelationId relation,
                          std::span<const EntityId> candidates,
                          std::span<float> out) const;

  // Parameter blocks in a fixed order; the index of a block in this
  // vector is its block index in GradientBuffer.
  virtual std::vector<ParameterBlock*> Blocks() = 0;

  // Const view of the same blocks, for serialization and analysis code
  // that only reads parameters (e.g. SaveModelCheckpoint).
  std::vector<const ParameterBlock*> Blocks() const;

  // Hook called before gradient accumulation of each batch.
  virtual void BeginBatch() {}

  // Accumulates dL/dparams for one triple given upstream dscore = dL/dS.
  KGE_HOT_NOALLOC
  virtual void AccumulateGradients(const Triple& triple, float dscore,
                                   GradientBuffer* grads) = 0;

  // Hook called after all triples of a batch; flushes any batch-level
  // gradients (e.g. the learned-ω chain rule) and returns any extra
  // regularization loss incurred this batch.
  virtual double FinishBatch(GradientBuffer* grads) {
    (void)grads;
    return 0.0;
  }

  // Applies the paper's unit-norm constraint to the given entities.
  virtual void NormalizeEntities(std::span<const EntityId> entities) = 0;

  // True when AccumulateGradients only reads model parameters and writes
  // the given GradientBuffer (no shared mutable state), allowing the
  // trainer to compute a batch's gradients concurrently into per-shard
  // buffers. Models with batch-level internal accumulators (e.g. the
  // learned-ω model) must return false.
  virtual bool SupportsParallelGradients() const { return true; }

  // Deterministic (re-)initialization of all parameters.
  virtual void InitParameters(uint64_t seed) = 0;

  int64_t NumParameters() const;
};

}  // namespace kge

#endif  // KGE_MODELS_KGE_MODEL_H_
