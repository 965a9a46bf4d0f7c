// The link-prediction evaluation protocol of Bordes et al. [4] as used by
// the paper (§5.2): for each true triple (h, t, r), rank t among all
// (h, t', r) corruptions and h among all (h', t, r) corruptions. With
// `filtered` set, corruptions that are themselves known valid triples
// (anywhere in train ∪ valid ∪ test) are excluded before ranking.
//
// Ties: a true triple whose score equals some corruptions' scores gets
// the tie-averaged rank 1 + |better| + |equal|/2, so constant score
// functions receive chance-level (not perfect) metrics.
#ifndef KGE_EVAL_EVALUATOR_H_
#define KGE_EVAL_EVALUATOR_H_

#include <vector>

#include "eval/metrics.h"
#include "kg/filter_index.h"
#include "kg/relation_analysis.h"
#include "kg/triple.h"
#include "models/kge_model.h"
#include "util/hotpath.h"
#include "util/thread_pool.h"

namespace kge {

struct EvalOptions {
  bool filtered = true;
  // Evaluate at most this many triples (0 = all); a deterministic
  // stride-based subsample is used, which keeps validation checks cheap
  // during training.
  size_t max_triples = 0;
  // Threads for the candidate-scoring loop (1 = inline).
  int num_threads = 1;
  // Queries ranked per ScoreAllBatch call. Test queries are grouped by
  // (relation, side) and scored B at a time, so each entity-table tile
  // is streamed from DRAM once per B queries instead of once per query.
  // 0 = auto (see ResolveEvalBatchQueries); 1 = one query per call.
  // Metrics are bit-identical at every setting: ranks are computed per
  // triple either way and accumulated in the original triple order.
  int batch_queries = 0;
  // Numeric tier for full-vocabulary candidate scoring (see
  // core/scoring_replica.h): kDouble is the exact protocol; kFloat32 and
  // kInt8 trade bounded metric drift (measured in BENCH_eval.json's
  // precision section) for ranking throughput. The model must report
  // SupportsScorePrecision(score_precision), and Evaluate refreshes
  // the model's scoring replicas once (PrepareForScoring) before fanning
  // out.
  ScorePrecision score_precision = ScorePrecision::kDouble;
  // Entity-table shards for the range-scoped ranking path (DESIGN.md
  // §5h). With > 1 (or prune set) ranking runs per-(triple, side, shard)
  // count scans instead of materializing B × num_entities score
  // matrices, so million-entity vocabularies rank inside the cache
  // budget. Metrics are exactly invariant to this setting: range counts
  // are additive over any partition of [0, num_entities) and scores are
  // the same kernel values the exhaustive path produces.
  int num_shards = 1;
  // Skip candidate tiles whose Cauchy–Schwarz score bound proves no
  // candidate in them can reach the true triple's score. Conservative
  // and never approximate — metrics stay bit-identical; only the work
  // (RankScanStats::tiles_skipped) changes. Implies the range-scoped
  // path even at num_shards == 1.
  bool prune = false;
};

// Resolves EvalOptions::batch_queries: values >= 1 pass through; 0 picks
// 32 and halves it while the per-thread B × ceil(num_entities /
// num_shards) score matrix would exceed 64 MiB (never below 1). The
// budget charges each score at the precision tier's streamed-candidate
// width — 8 bytes at kDouble (double accumulators live per candidate),
// 4 at kFloat32, 1 at kInt8 — so the narrower tiers keep proportionally
// larger batches when the budget binds instead of inheriting the double
// tier's cap, and sharded rankers only pay for the widest shard they
// actually materialize. All sizing math is size_t: at num_entities ≥ 1M
// a B × E product already exceeds int32 range at kDouble, so nothing in
// the budget walk may round-trip through int. Exposed so tools can log
// the effective batch size.
int ResolveEvalBatchQueries(int requested, int32_t num_entities,
                            ScorePrecision precision = ScorePrecision::kDouble,
                            int num_shards = 1);

struct PerRelationMetrics {
  RelationId relation = 0;
  RankingMetrics tail_queries;  // ranking the tail given (h, ?, r)
  RankingMetrics head_queries;  // ranking the head given (?, t, r)
};

struct EvalResult {
  RankingMetrics overall;
  std::vector<PerRelationMetrics> per_relation;
  // Tile counters aggregated over every range scan of the run (only
  // populated by the sharded/pruned path; zero on the matrix paths).
  // tiles_skipped / tiles_total is the pruning effectiveness BENCH_eval
  // reports as tiles_skipped_frac.
  RankScanStats scan_stats;
};

class Evaluator {
 public:
  // `filter` must outlive the evaluator; pass the index over all splits.
  Evaluator(const FilterIndex* filter, int32_t num_relations);

  // Full protocol over `triples`.
  EvalResult Evaluate(const KgeModel& model,
                      const std::vector<Triple>& triples,
                      const EvalOptions& options) const;

  // Convenience: overall metrics only.
  RankingMetrics EvaluateOverall(const KgeModel& model,
                                 const std::vector<Triple>& triples,
                                 const EvalOptions& options) const;

  // Tie-averaged rank of the true answer of `triple`'s `side` query
  // (AnswerOf(side, triple)), using `scores` =
  // model.ScoreAll(side, AnchorOf(side, triple), triple.relation)
  // (exposed for testing).
  KGE_HOT_NOALLOC
  double Rank(QuerySide side, const Triple& triple,
              std::span<const float> scores, bool filtered) const;

  // Number of ranked candidates (the true answer plus surviving
  // corruptions) of `triple`'s `side` query; feeds the adjusted mean
  // rank.
  KGE_HOT_NOALLOC
  size_t CountCandidates(QuerySide side, const Triple& triple,
                         int32_t num_entities, bool filtered) const;

 private:
  const FilterIndex* filter_;
  int32_t num_relations_;
};

}  // namespace kge

#endif  // KGE_EVAL_EVALUATOR_H_
