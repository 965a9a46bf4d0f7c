#include "models/range_scan.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/simd.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

void ScoreRows(const CandidateTable& table, ScorePrecision precision,
               const float* folds, size_t num_queries, size_t row0,
               size_t len, float* out) {
  const size_t width = table.width;
  KGE_DCHECK((row0 + len) * width <= (precision == ScorePrecision::kInt8
                                          ? table.int8_rows.size()
                                          : table.rows.size()));
  switch (precision) {
    case ScorePrecision::kDouble:
      simd::DotBatchMulti(folds, num_queries, table.rows.data() + row0 * width,
                          len, width, out);
      return;
    case ScorePrecision::kFloat32:
      simd::DotBatchMultiF32(folds, num_queries,
                             table.rows.data() + row0 * width, len, width,
                             out);
      return;
    case ScorePrecision::kInt8:
      simd::DotBatchMultiI8(folds, num_queries,
                            table.int8_rows.data() + row0 * width,
                            table.int8_scales.data() + row0, len, width, out);
      return;
  }
  KGE_CHECK(false);
}

namespace {

// Splits off the leading ids of `*excluded` that lie below `end`.
KGE_HOT_NOALLOC
std::span<const EntityId> TakeBelow(std::span<const EntityId>* excluded,
                                    size_t end) {
  size_t n = 0;
  while (n < excluded->size() && size_t((*excluded)[n]) < end) ++n;
  const std::span<const EntityId> taken = excluded->first(n);
  *excluded = excluded->subspan(n);
  return taken;
}

// The full-vocabulary row of a model that cannot fold, scored through
// the batched interface (so reduced tiers see the same values) into one
// per-thread buffer shared by every scan.
KGE_HOT_NOALLOC
std::span<const float> FullRowScratch(const KgeModel& model, QuerySide side,
                                      EntityId anchor, RelationId relation,
                                      ScorePrecision precision) {
  static thread_local std::vector<float> row_buf;
  const std::span<float> row =
      ScratchSpan(row_buf, size_t(model.num_entities()));
  model.ScoreAllBatch(side, std::span<const EntityId>(&anchor, 1), relation,
                      row, precision);
  return row;
}

// One scored run of rows handed to a scan: scores[i] belongs to row
// row0 + i, and `excluded` lists the excluded ids inside the run.
struct ScoredTile {
  size_t row0;
  std::span<const float> scores;
  std::span<const EntityId> excluded;
};

// The one range walk behind every scan: folds the query once, scores
// [begin, end) tile by tile (simd::PrunedTileRows rows, aligned to the
// bound tiles) and hands each scored tile to `visit(tile)`. With `prune`
// and fresh tile bounds, a tile whose score bound `skip(bound)` accepts
// is counted as skipped and never scored; its excluded ids go with it.
// A model that cannot fold has its full-vocabulary row walked as one
// unskipped tile.
template <typename SkipFn, typename VisitFn>
KGE_HOT_NOALLOC void ScanRange(const KgeModel& model, QuerySide side,
                               EntityId anchor, RelationId relation,
                               EntityId begin, EntityId end,
                               std::span<const EntityId> excluded,
                               ScorePrecision precision, bool prune,
                               RankScanStats* stats, SkipFn skip,
                               VisitFn visit) {
  if (begin >= end) return;
  TakeBelow(&excluded, size_t(begin));
  const CandidateTable table = model.CandidateTableAt(precision);
  if (table.width == 0) {
    const std::span<const float> row =
        FullRowScratch(model, side, anchor, relation, precision);
    stats->tiles_total += 1;
    visit(ScoredTile{size_t(begin),
                     row.subspan(size_t(begin), size_t(end - begin)),
                     TakeBelow(&excluded, size_t(end))});
    return;
  }
  static thread_local std::vector<float> fold_buf;
  const std::span<float> fold = ScratchSpan(fold_buf, table.width);
  model.FoldQuery(side, anchor, relation, fold);
  const size_t rows_per_tile = simd::PrunedTileRows(table.width);
  static thread_local std::vector<float> tile_buf;
  const std::span<float> tile_scores = ScratchSpan(tile_buf, rows_per_tile);
  const bool pruning = prune && !table.tile_bounds.empty();
  const double query_norm =
      pruning ? std::sqrt(simd::SquaredNorm(fold.data(), fold.size())) *
                    simd::kPruneBoundSlack
              : 0.0;
  for (size_t row0 = size_t(begin); row0 < size_t(end);) {
    const size_t tile = row0 / rows_per_tile;
    const size_t tile_end = std::min(size_t(end), (tile + 1) * rows_per_tile);
    const std::span<const EntityId> tile_excluded =
        TakeBelow(&excluded, tile_end);
    stats->tiles_total += 1;
    if (pruning && skip(query_norm * double(table.tile_bounds[tile]))) {
      stats->tiles_skipped += 1;
    } else {
      const size_t len = tile_end - row0;
      ScoreRows(table, precision, fold.data(), 1, row0, len,
                tile_scores.data());
      visit(ScoredTile{row0, tile_scores.first(len), tile_excluded});
    }
    row0 = tile_end;
  }
}

}  // namespace

void CountAbove(const KgeModel& model, QuerySide side, EntityId anchor,
                RelationId relation, float threshold, EntityId begin,
                EntityId end, std::span<const EntityId> excluded,
                EntityId also_skip, ScorePrecision precision, bool prune,
                uint64_t* better, uint64_t* equal, RankScanStats* stats) {
  const bool skip_in_excluded =
      std::binary_search(excluded.begin(), excluded.end(), also_skip);
  uint64_t g_total = 0;
  uint64_t e_total = 0;
  ScanRange(
      model, side, anchor, relation, begin, end, excluded, precision, prune,
      stats,
      // Strict <: a tile whose bound equals the threshold can still hold
      // equal-scoring candidates, which the tie-aware rank counts.
      [threshold](double bound) { return bound < double(threshold); },
      [&](const ScoredTile& tile) {
        size_t greater = 0;
        size_t eq = 0;
        simd::CountGreaterEqual(tile.scores.data(), tile.scores.size(),
                                threshold, &greater, &eq);
        // Back out the candidates the rank must not count: filtered ids
        // and the true entity (subtracted once even when it is also
        // filtered).
        const auto back_out = [&](EntityId id) {
          const float s = tile.scores[size_t(id) - tile.row0];
          if (s > threshold) {
            --greater;
          } else if (s == threshold) {
            --eq;
          }
        };
        for (const EntityId id : tile.excluded) back_out(id);
        if (!skip_in_excluded && also_skip >= EntityId(tile.row0) &&
            size_t(also_skip) < tile.row0 + tile.scores.size()) {
          back_out(also_skip);
        }
        g_total += greater;
        e_total += eq;
      });
  *better += g_total;
  *equal += e_total;
}

float ScoreOne(const KgeModel& model, QuerySide side, const Triple& triple,
               ScorePrecision precision) {
  const EntityId answer = AnswerOf(side, triple);
  float score = 0.0f;
  RankScanStats stats;
  ScanRange(
      model, side, AnchorOf(side, triple), triple.relation, answer,
      answer + 1, {}, precision, /*prune=*/false, &stats,
      [](double) { return false; },
      [&score](const ScoredTile& tile) { score = tile.scores[0]; });
  return score;
}

void TopKInRange(const KgeModel& model, QuerySide side, EntityId anchor,
                 RelationId relation, EntityId begin, EntityId end,
                 std::span<const EntityId> excluded, ScorePrecision precision,
                 bool prune, TopKHeap<float, EntityId>* heap,
                 RankScanStats* stats) {
  ScanRange(
      model, side, anchor, relation, begin, end, excluded, precision, prune,
      stats,
      // Skip only on strict <, against the heap minimum once full or the
      // shared prune floor a sharded caller installed.
      [heap](double bound) { return heap->CanSkipBound(bound); },
      [heap](const ScoredTile& tile) {
        size_t next = 0;  // cursor into tile.excluded
        for (size_t i = 0; i < tile.scores.size(); ++i) {
          const EntityId id = EntityId(tile.row0 + i);
          if (next < tile.excluded.size() && tile.excluded[next] == id) {
            ++next;
          } else {
            heap->PushCandidate(id, tile.scores[i]);
          }
        }
      });
}

}  // namespace kge
