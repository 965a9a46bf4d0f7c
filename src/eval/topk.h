// Top-k link prediction — the serving-side API: given a partial triple
// (h, ?, r) or (?, t, r), return the k best completions, optionally
// excluding already-known triples (the "new facts only" mode a
// recommender or completion UI wants).
//
// The selection core is `TopKHeap` (core/topk_heap.h), a reusable
// fixed-size bounded heap (template over score/id type), and the one
// sharded selection over it is `ShardedTopK` below — shared by the
// offline predictors, the online serving layer in src/serve/, and
// bench/perf_report. Ordering is deterministic: higher score first, ties
// broken by smaller id.
#ifndef KGE_EVAL_TOPK_H_
#define KGE_EVAL_TOPK_H_

#include <span>
#include <vector>

#include "core/topk_heap.h"
#include "kg/filter_index.h"
#include "models/kge_model.h"
#include "util/hotpath.h"
#include "util/thread_pool.h"

namespace kge {

struct ScoredEntity {
  EntityId entity = 0;
  float score = 0.0f;
};

struct TopKOptions {
  int k = 10;
  // When non-null, entities forming known triples with the query are
  // excluded from the results.
  const FilterIndex* exclude_known = nullptr;
  // Entity-table shards ranked independently and merged (values < 1 are
  // treated as 1). The result is exactly shard-count invariant.
  int num_shards = 1;
  // Skip score tiles whose Cauchy–Schwarz upper bound cannot beat the
  // current heap minimum. Exact: bounds are conservative, never
  // approximate. Effective for models with a fold-then-dot scan
  // (the trilinear family); others fall back to the exhaustive scan.
  bool prune = false;
};

// Prefix length ShardedTopK scans exhaustively to prime the shared prune
// floor (TopKHeap::SetPruneFloor) before fanning out over shards. The
// k-th best of the prefix lower-bounds the global k-th best, so the
// floor keeps per-shard pruning exact; a few thousand candidates make it
// tight enough to bite (k alone is too noisy — a high-norm row does not
// guarantee a high score), while staying a negligible fraction of a
// 100k+ entity table.
inline constexpr EntityId kPrunePrimePrefix = EntityId(2048);

// The sharded top-k selection (DESIGN.md §5h): the k best candidates on
// `side` of (anchor, relation) not in `excluded` (sorted ascending),
// scored at `precision`, into `merged` (reset here; read it with
// TakeSorted). The entity table is split into shard_heaps.size()
// contiguous shards (ShardBegin); each shard runs TopKInRange into its
// own caller-owned heap — fanned out over `pool` when non-null — and the
// heaps merge into `merged` in shard order. With one shard the scan
// feeds `merged` directly. With `prune` and several shards, a shared
// floor is first primed from the exhaustive prefix
// [0, max(k, kPrunePrimePrefix) + excluded.size()) — padded by the
// exclusions so it still offers >= k candidates — whenever that prefix
// is shorter than the table: a shard heap's own minimum only reflects
// its shard, the floor lets every shard prune against a global bound.
// The (score, id) total order makes the result exactly the single-pass
// top-k for every shard count, thread count and prune setting. Tile
// counters go to shard_stats[s] (the prime scan to shard_stats[0]);
// shard_stats.size() must equal shard_heaps.size() >= 1. Allocation-free
// once the heaps are Reserve'd to k and the pool's stage ring to the
// shard count.
KGE_HOT_NOALLOC
void ShardedTopK(const KgeModel& model, QuerySide side, EntityId anchor,
                 RelationId relation, std::span<const EntityId> excluded,
                 ScorePrecision precision, bool prune, int k,
                 std::span<TopKHeap<float, EntityId>> shard_heaps,
                 std::span<RankScanStats> shard_stats, ThreadPool* pool,
                 TopKHeap<float, EntityId>* merged);

// Completions for (head, ?, relation), best first. Ties broken by entity
// id for determinism.
std::vector<ScoredEntity> PredictTails(const KgeModel& model, EntityId head,
                                       RelationId relation,
                                       const TopKOptions& options);

// Completions for (?, tail, relation).
std::vector<ScoredEntity> PredictHeads(const KgeModel& model, EntityId tail,
                                       RelationId relation,
                                       const TopKOptions& options);

}  // namespace kge

#endif  // KGE_EVAL_TOPK_H_
