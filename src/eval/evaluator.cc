#include "eval/evaluator.h"

#include <algorithm>
#include <vector>

#include "models/range_scan.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {
namespace {

// Computes the tie-averaged rank of `true_score` among the candidate
// scores, skipping filtered ids. The true entity's own slot is always
// skipped (its score is `true_score` by definition).
double RankAmong(std::span<const float> scores, float true_score,
                 EntityId true_entity, std::span<const EntityId> filtered) {
  size_t better = 0;
  size_t equal = 0;
  size_t filter_cursor = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    // `filtered` is sorted; advance the cursor lazily.
    while (filter_cursor < filtered.size() &&
           size_t(filtered[filter_cursor]) < e) {
      ++filter_cursor;
    }
    const bool is_filtered = filter_cursor < filtered.size() &&
                             size_t(filtered[filter_cursor]) == e;
    if (is_filtered || EntityId(e) == true_entity) continue;
    if (scores[e] > true_score) {
      ++better;
    } else if (scores[e] == true_score) {
      ++equal;
    }
  }
  return 1.0 + double(better) + double(equal) / 2.0;
}

// The filtered-protocol corruptions of `triple`'s `side` query that are
// themselves known triples (sorted ascending).
std::span<const EntityId> KnownFor(const FilterIndex& filter, QuerySide side,
                                   const Triple& triple) {
  return side == QuerySide::kTail
             ? filter.KnownTails(triple.head, triple.relation)
             : filter.KnownHeads(triple.tail, triple.relation);
}

}  // namespace

Evaluator::Evaluator(const FilterIndex* filter, int32_t num_relations)
    : filter_(filter), num_relations_(num_relations) {
  KGE_CHECK(filter_ != nullptr);
}

double Evaluator::Rank(QuerySide side, const Triple& triple,
                       std::span<const float> scores, bool filtered) const {
  const EntityId truth = AnswerOf(side, triple);
  return RankAmong(scores, scores[size_t(truth)], truth,
                   filtered ? KnownFor(*filter_, side, triple)
                            : std::span<const EntityId>());
}

size_t Evaluator::CountCandidates(QuerySide side, const Triple& triple,
                                  int32_t num_entities, bool filtered) const {
  if (!filtered) return size_t(num_entities);
  // Candidates = all entities minus filtered corruptions; the true
  // entity always ranks (whether or not it is in the filtered set).
  const std::span<const EntityId> known = KnownFor(*filter_, side, triple);
  const bool truth_known =
      std::binary_search(known.begin(), known.end(), AnswerOf(side, triple));
  return size_t(num_entities) - known.size() + (truth_known ? 1 : 0);
}

int ResolveEvalBatchQueries(int requested, int32_t num_entities,
                            ScorePrecision precision, int num_shards) {
  if (requested >= 1) return requested;
  // Auto: start at 32 queries per batch and halve while the per-thread
  // B × ceil(E / num_shards) scoring footprint would exceed 64 MiB, so
  // huge vocabularies never blow the cache budget (or the heap) just
  // because batching is on. Each score is charged at the tier's
  // streamed-candidate width (kDouble keeps a double accumulator group
  // per candidate cell, float32 streams 4-byte rows, int8 1-byte rows),
  // so the narrower tiers hold 2x/8x more queries per batch when the
  // budget binds. Every term stays size_t: at 1M+ entities B × E ×
  // bytes_per_score exceeds int32 range long before the budget halves
  // the batch, so int math anywhere here would wrap instead of shrink.
  constexpr size_t kMaxScoreMatrixBytes = 64u << 20;
  size_t bytes_per_score = sizeof(double);
  switch (precision) {
    case ScorePrecision::kDouble:
      bytes_per_score = 8;
      break;
    case ScorePrecision::kFloat32:
      bytes_per_score = 4;
      break;
    case ScorePrecision::kInt8:
      bytes_per_score = 1;
      break;
  }
  const size_t shards = size_t(std::max(num_shards, 1));
  const size_t entities = size_t(std::max(num_entities, 1));
  const size_t widest_shard = (entities + shards - 1) / shards;
  int batch = 32;
  while (batch > 1 &&
         size_t(batch) * widest_shard * bytes_per_score >
             kMaxScoreMatrixBytes) {
    batch /= 2;
  }
  return batch;
}

namespace {

// One batched scoring call: `count` queries sharing a relation and a
// side, covering eval-order triple indices order[begin .. begin+count).
struct QueryBatch {
  uint32_t begin = 0;
  uint32_t count = 0;
  RelationId relation = 0;
  QuerySide side = QuerySide::kTail;
};

constexpr QuerySide kSides[] = {QuerySide::kTail, QuerySide::kHead};

}  // namespace

EvalResult Evaluator::Evaluate(const KgeModel& model,
                               const std::vector<Triple>& triples,
                               const EvalOptions& options) const {
  EvalResult result;
  result.per_relation.resize(size_t(num_relations_));
  for (int32_t r = 0; r < num_relations_; ++r) {
    result.per_relation[size_t(r)].relation = r;
  }

  // Deterministic stride subsample when capped.
  std::vector<Triple> subset;
  const std::vector<Triple>* eval_triples = &triples;
  if (options.max_triples > 0 && triples.size() > options.max_triples) {
    const size_t stride = triples.size() / options.max_triples;
    for (size_t i = 0; i < triples.size() && subset.size() < options.max_triples;
         i += stride) {
      subset.push_back(triples[i]);
    }
    eval_triples = &subset;
  }

  // Ranks are pure per-triple functions of the scores, so they are
  // computed in parallel into per-(side, triple) slots — indexed by
  // int(QuerySide) — and the metrics are accumulated SERIALLY in the
  // original triple order afterwards. That makes the result exactly
  // invariant to the thread count, the batching schedule and the shard
  // count (and equal to the single-thread per-triple accumulation
  // order).
  const size_t num_triples = eval_triples->size();
  const int32_t num_entities = model.num_entities();
  std::vector<double> ranks[2] = {std::vector<double>(num_triples),
                                  std::vector<double>(num_triples)};
  std::vector<size_t> cands[2] = {std::vector<size_t>(num_triples),
                                  std::vector<size_t>(num_triples)};

  const ScorePrecision precision = options.score_precision;
  KGE_CHECK(model.SupportsScorePrecision(precision));
  const int num_shards = std::max(options.num_shards, 1);
  // Refresh any scoring replica the tier needs ONCE, before the fanout:
  // the rebuild mutates the replica, the scoring reads below do not.
  // The pruned path additionally refreshes the per-tile score bounds.
  if (options.prune) {
    model.PrepareForPrunedScoring(precision);
  } else {
    model.PrepareForScoring(precision);
  }
  ThreadPool pool(size_t(std::max(1, options.num_threads)));

  if (options.prune || num_shards > 1) {
    // Sharded / pruned ranking (DESIGN.md §5h): instead of materializing
    // B × num_entities score matrices, each (triple, side, shard) task
    // counts candidates above the true score inside its entity range
    // with CountAbove. Counts are additive over the shard partition and
    // the scores are the exact kernel values the matrix path produces, so
    // the serial reduction below yields bit-identical ranks for every
    // shard count, thread count, and prune setting. Each task re-derives
    // the true score via ScoreOne — deterministic and race-free, so no
    // cross-task ordering matters. Task index:
    // (triple * 2 + int(side)) * num_shards + shard.
    const size_t shards = size_t(num_shards);
    const size_t num_tasks = num_triples * 2 * shards;
    std::vector<uint64_t> better(num_tasks, 0), equal(num_tasks, 0);
    std::vector<RankScanStats> task_stats(num_tasks);
    pool.ParallelFor(0, num_tasks, [&](size_t begin, size_t end) {
      for (size_t task = begin; task < end; ++task) {
        const Triple& triple = (*eval_triples)[task / (2 * shards)];
        const QuerySide side = kSides[(task / shards) % 2];
        const int s = int(task % shards);
        CountAbove(model, side, AnchorOf(side, triple), triple.relation,
                   ScoreOne(model, side, triple, precision),
                   ShardBegin(num_entities, num_shards, s),
                   ShardBegin(num_entities, num_shards, s + 1),
                   options.filtered ? KnownFor(*filter_, side, triple)
                                    : std::span<const EntityId>(),
                   AnswerOf(side, triple), precision, options.prune,
                   &better[task], &equal[task], &task_stats[task]);
      }
    });
    for (size_t i = 0; i < num_triples; ++i) {
      for (const QuerySide side : kSides) {
        uint64_t side_better = 0, side_equal = 0;
        const size_t first = (i * 2 + size_t(side)) * shards;
        for (size_t task = first; task < first + shards; ++task) {
          side_better += better[task];
          side_equal += equal[task];
        }
        ranks[size_t(side)][i] =
            1.0 + double(side_better) + double(side_equal) / 2.0;
        cands[size_t(side)][i] = CountCandidates(
            side, (*eval_triples)[i], num_entities, options.filtered);
      }
    }
    for (const RankScanStats& stats : task_stats) {
      result.scan_stats.tiles_total += stats.tiles_total;
      result.scan_stats.tiles_skipped += stats.tiles_skipped;
    }
  } else {
    // Batched GEMM path. Counting-sort the triple indices by relation
    // (stable, deterministic), then cover each relation segment with
    // tail-side and head-side batches of at most batch_queries queries:
    // every batch folds once per query and streams each entity-table
    // tile once per batch instead of once per query.
    const int batch_queries =
        ResolveEvalBatchQueries(options.batch_queries, num_entities, precision);
    std::vector<uint32_t> order(num_triples);
    std::vector<size_t> relation_counts(size_t(num_relations_) + 1, 0);
    for (const Triple& t : *eval_triples) {
      ++relation_counts[size_t(t.relation) + 1];
    }
    for (size_t r = 1; r < relation_counts.size(); ++r) {
      relation_counts[r] += relation_counts[r - 1];
    }
    std::vector<size_t> cursor(relation_counts.begin(),
                               relation_counts.end() - 1);
    for (size_t i = 0; i < num_triples; ++i) {
      order[cursor[size_t((*eval_triples)[i].relation)]++] = uint32_t(i);
    }

    std::vector<QueryBatch> batches;
    batches.reserve(2 * (num_triples / size_t(batch_queries) +
                         size_t(num_relations_) + 1));
    for (int32_t r = 0; r < num_relations_; ++r) {
      const size_t seg_begin = relation_counts[size_t(r)];
      const size_t seg_end = relation_counts[size_t(r) + 1];
      for (const QuerySide side : kSides) {
        for (size_t b = seg_begin; b < seg_end; b += size_t(batch_queries)) {
          QueryBatch batch;
          batch.begin = uint32_t(b);
          batch.count = uint32_t(
              std::min(size_t(batch_queries), seg_end - b));
          batch.relation = r;
          batch.side = side;
          batches.push_back(batch);
        }
      }
    }

    pool.ParallelFor(0, batches.size(), [&](size_t begin, size_t end) {
      static thread_local std::vector<float> score_buf;
      static thread_local std::vector<EntityId> query_buf;
      for (size_t bi = begin; bi < end; ++bi) {
        const QueryBatch& batch = batches[bi];
        const std::span<EntityId> queries =
            ScratchSpan(query_buf, size_t(batch.count));
        for (uint32_t q = 0; q < batch.count; ++q) {
          queries[q] =
              AnchorOf(batch.side, (*eval_triples)[order[batch.begin + q]]);
        }
        const std::span<float> scores = ScratchSpan(
            score_buf, size_t(batch.count) * size_t(num_entities));
        model.ScoreAllBatch(batch.side, queries, batch.relation, scores,
                            precision);
        for (uint32_t q = 0; q < batch.count; ++q) {
          const size_t i = order[batch.begin + q];
          const Triple& triple = (*eval_triples)[i];
          const std::span<const float> row =
              scores.subspan(size_t(q) * size_t(num_entities),
                             size_t(num_entities));
          ranks[size_t(batch.side)][i] =
              Rank(batch.side, triple, row, options.filtered);
          cands[size_t(batch.side)][i] = CountCandidates(
              batch.side, triple, num_entities, options.filtered);
        }
      }
    });
  }

  // Serial accumulation in original triple order: tail rank then head
  // rank per triple, exactly like the pre-batching inner loop.
  constexpr size_t kTail = size_t(QuerySide::kTail);
  constexpr size_t kHead = size_t(QuerySide::kHead);
  for (size_t i = 0; i < num_triples; ++i) {
    const Triple& triple = (*eval_triples)[i];
    result.overall.AddRank(ranks[kTail][i], cands[kTail][i]);
    result.overall.AddRank(ranks[kHead][i], cands[kHead][i]);
    PerRelationMetrics& rel = result.per_relation[size_t(triple.relation)];
    rel.tail_queries.AddRank(ranks[kTail][i], cands[kTail][i]);
    rel.head_queries.AddRank(ranks[kHead][i], cands[kHead][i]);
  }
  return result;
}

RankingMetrics Evaluator::EvaluateOverall(const KgeModel& model,
                                          const std::vector<Triple>& triples,
                                          const EvalOptions& options) const {
  return Evaluate(model, triples, options).overall;
}

}  // namespace kge
