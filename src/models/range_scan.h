// Range scans (DESIGN.md §5h): everything past a model's fold, once —
// the precision-tier dispatch and one tile walk shared by rank counting
// and top-k selection, over the candidate range [begin, end).
//
// Scores are the exact floats KgeModel::ScoreAllBatch produces at
// `precision` (math/simd.h's per-cell contract), so ranges are pure
// scheduling: counts summed over a shard partition, and per-shard heaps
// merged, equal the single-pass results bit-for-bit. With `prune` and
// fresh tile bounds, a tile whose Cauchy–Schwarz bound
// (‖fold‖₂ · tile max row norm · simd::kPruneBoundSlack) cannot reach
// the threshold is skipped unscored — exact, never approximate. A model
// that cannot fold has its ScoreAll row walked as one unskipped tile.
// Thread-safe; non-double tiers require PrepareForScoring first.
#ifndef KGE_MODELS_RANGE_SCAN_H_
#define KGE_MODELS_RANGE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/scoring_replica.h"
#include "core/topk_heap.h"
#include "kg/triple.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

// The one precision-tier dispatch: out[q·len + i] scores fold q
// (table.width floats each, row-major) against table row row0 + i —
// DotBatchMulti, DotBatchMultiF32 or DotBatchMultiI8. Each cell equals
// the same cell of a full-table call bit-for-bit.
KGE_HOT_NOALLOC
void ScoreRows(const CandidateTable& table, ScorePrecision precision,
               const float* folds, size_t num_queries, size_t row0,
               size_t len, float* out);

// Sentinel for CountAbove's also_skip.
inline constexpr EntityId kNoSkipEntity = EntityId(-1);

// Counts candidates in [begin, end) on `side` of (anchor, relation)
// with score strictly above (*better) resp. equal to (*equal)
// `threshold`, skipping ids in `excluded` (sorted ascending) and
// `also_skip` (pass kNoSkipEntity for none; an also_skip id that also
// appears in `excluded` is skipped once). Adds to *better/*equal and to
// `stats`.
KGE_HOT_NOALLOC
void CountAbove(const KgeModel& model, QuerySide side, EntityId anchor,
                RelationId relation, float threshold, EntityId begin,
                EntityId end, std::span<const EntityId> excluded,
                EntityId also_skip, ScorePrecision precision, bool prune,
                uint64_t* better, uint64_t* equal, RankScanStats* stats);

// The float score of `triple` exactly as the `side` query's batched
// kernels produce it at `precision` — the rank threshold of the pruned
// evaluator. (float(model.Score(triple)) is NOT the same value for
// reduced tiers, and can differ in the last bit even at kDouble for
// models whose ScoreAll path reassociates.)
KGE_HOT_NOALLOC
float ScoreOne(const KgeModel& model, QuerySide side, const Triple& triple,
               ScorePrecision precision);

// Offers every candidate in [begin, end) on `side` of (anchor,
// relation) that is not in `excluded` (sorted ascending) to `heap`.
// With `prune`, tiles whose bound cannot beat the heap's current
// minimum (or its prune floor) are skipped — only on a strictly-less
// comparison (an equal-score candidate can still win its way in via
// the smaller-id tie-break, so equality never skips).
KGE_HOT_NOALLOC
void TopKInRange(const KgeModel& model, QuerySide side, EntityId anchor,
                 RelationId relation, EntityId begin, EntityId end,
                 std::span<const EntityId> excluded, ScorePrecision precision,
                 bool prune, TopKHeap<float, EntityId>* heap,
                 RankScanStats* stats);

}  // namespace kge

#endif  // KGE_MODELS_RANGE_SCAN_H_
