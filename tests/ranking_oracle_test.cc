// Differential ranking oracle: every production ranking path must agree
// EXACTLY with one naive oracle — same tie-averaged ranks, same metric
// doubles, same top-k entities and float scores.
//
// The oracle scores a full-vocabulary row itself and then ranks it the
// slow, obvious way: a full sort by (score desc, id asc) for top-k, and
// a linear count of strictly-better / equal candidates for ranks. For
// the trilinear family (DistMult, CP, ComplEx, quaternion) it folds the
// query context and applies the simd::ref kernels that DEFINE each
// precision tier; for the other models (TransE, RotatE, RESCAL, and the
// ReciprocalWrapper over CP, plain and norm-skewed) it takes the model's
// own full-vocabulary row. Paths checked, on both query sides:
//   * Evaluator::Evaluate — matrix-batched path (B in {1, 5, auto}) and
//     the range-scan path (shards in {1, 3} x prune on/off);
//   * PredictTails / PredictHeads — sharded x pruned, with and without
//     known-triple exclusion;
//   * MicroBatcher — matrix reduce and sharded reduce, at every tier the
//     model supports (forced through the degradation ladder),
//     max_batch in {1, 5, auto} and 1 or 4 workers.
// Thread counts, shard counts, batch sizes, pruning and precision tiers
// are all scheduling or tier choices: none may move a single bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/interaction.h"
#include "eval/evaluator.h"
#include "eval/topk.h"
#include "kg/filter_index.h"
#include "math/simd.h"
#include "models/quaternion_model.h"
#include "models/reciprocal_wrapper.h"
#include "models/rescal.h"
#include "models/rotate.h"
#include "models/transe.h"
#include "models/trilinear_models.h"
#include "serve/micro_batcher.h"
#include "serve/snapshot.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace kge {
namespace {

// Large enough that the sharded+pruned top-k primes its floor from a
// strict prefix (kPrunePrimePrefix + k + exclusions < kEntities) and
// that norm-skewed tables span several bound tiles.
constexpr int32_t kEntities = 2600;
constexpr int32_t kRelations = 3;
constexpr int kTopK = 10;
// A hub with many known tails: its exclusion list is longer than k, so
// the prime prefix padding and the exclusion walk both get exercised.
constexpr EntityId kHub = 5;
constexpr RelationId kHubRelation = 2;

const ScorePrecision kAllTiers[] = {ScorePrecision::kDouble,
                                    ScorePrecision::kFloat32,
                                    ScorePrecision::kInt8};

struct Subject {
  std::string name;
  // Owned base model behind a wrapper (null otherwise).
  std::unique_ptr<KgeModel> base;
  // The snapshot owns the model under test, so the batcher can serve it.
  std::shared_ptr<ModelSnapshot> snapshot;
  // Non-null for the trilinear family: the oracle scores from its
  // parameters with simd::ref instead of asking the model.
  const MultiEmbeddingModel* trilinear = nullptr;
  std::vector<ScorePrecision> tiers;
  // The pruned runs must skip at least one tile (norm-skewed tables).
  bool expect_skips = false;

  const KgeModel& model() const { return *snapshot->model; }
};

// Decaying per-row norms, like a frequency-sorted trained vocabulary:
// without the skew no bound tile is ever skipped and the pruned
// branches would go untested.
void SkewEntityNorms(MultiEmbeddingModel* model) {
  const int32_t n = model->num_entities();
  for (int32_t e = 0; e < n; ++e) {
    const double u = double(e) / double(n);
    const float scale = 0.05f + 0.95f * float(std::exp(-8.0 * u));
    for (float& x : model->entity_store().Of(e)) x *= scale;
  }
}

Subject Trilinear(std::string name, std::unique_ptr<MultiEmbeddingModel> m) {
  SkewEntityNorms(m.get());
  Subject s;
  s.name = std::move(name);
  s.trilinear = m.get();
  s.expect_skips = true;
  s.tiers.assign(std::begin(kAllTiers), std::end(kAllTiers));
  s.snapshot = std::make_shared<ModelSnapshot>();
  s.snapshot->model = std::move(m);
  return s;
}

Subject Other(std::string name, std::unique_ptr<KgeModel> m) {
  Subject s;
  s.name = std::move(name);
  s.tiers = {ScorePrecision::kDouble};
  s.snapshot = std::make_shared<ModelSnapshot>();
  s.snapshot->model = std::move(m);
  return s;
}

std::vector<Subject> MakeSubjects() {
  std::vector<Subject> subjects;
  subjects.push_back(
      Trilinear("DistMult", MakeDistMult(kEntities, kRelations, 16, 11)));
  subjects.push_back(Trilinear("CP", MakeCp(kEntities, kRelations, 8, 12)));
  subjects.push_back(
      Trilinear("ComplEx", MakeComplEx(kEntities, kRelations, 8, 13)));
  subjects.push_back(Trilinear(
      "Quaternion", MakeQuaternionModel(kEntities, kRelations, 4, 14)));
  subjects.push_back(Other("TransE", MakeTransE(kEntities, kRelations, 12,
                                                /*norm_p=*/1, 15)));
  subjects.push_back(
      Other("RotatE", MakeRotatE(kEntities, kRelations, 6, 16)));
  std::unique_ptr<KgeModel> base = MakeCp(kEntities, 2 * kRelations, 8, 17);
  Subject wrapped = Other("CP+reciprocal", std::make_unique<ReciprocalWrapper>(
                                               base.get(), kRelations));
  wrapped.base = std::move(base);
  subjects.push_back(std::move(wrapped));
  subjects.push_back(
      Other("RESCAL", MakeRescal(kEntities, kRelations, 8, 18)));
  // The wrapper's range scans reach the base table's tile bounds, so a
  // skewed base must prune through it.
  std::unique_ptr<MultiEmbeddingModel> skewed =
      MakeCp(kEntities, 2 * kRelations, 8, 19);
  SkewEntityNorms(skewed.get());
  Subject skewed_wrapped =
      Other("CP+reciprocal skewed",
            std::make_unique<ReciprocalWrapper>(skewed.get(), kRelations));
  skewed_wrapped.base = std::move(skewed);
  skewed_wrapped.expect_skips = true;
  subjects.push_back(std::move(skewed_wrapped));
  // Bounds and replicas for every tier up front, single-threaded: the
  // batcher never prepares a snapshot it serves.
  for (const Subject& s : subjects) {
    for (const ScorePrecision tier : s.tiers) {
      s.model().PrepareForPrunedScoring(tier);
    }
  }
  return subjects;
}

// Known triples: a pseudo-random background plus a hub whose known-tail
// and known-head lists are both long.
std::vector<Triple> MakeKnownTriples() {
  Rng rng(99);
  std::vector<Triple> triples;
  for (int i = 0; i < 3000; ++i) {
    triples.push_back({EntityId(rng.NextBounded(kEntities)),
                       EntityId(rng.NextBounded(kEntities)),
                       RelationId(rng.NextBounded(kRelations))});
  }
  for (EntityId t = 0; t < 300; ++t) {
    triples.push_back({kHub, EntityId(t * 7 % kEntities), kHubRelation});
    triples.push_back({EntityId(t * 3 % kEntities), kHub, kHubRelation});
  }
  return triples;
}

// Test queries drawn from the known set, hub queries included.
std::vector<Triple> MakeTestTriples(const std::vector<Triple>& known) {
  std::vector<Triple> test;
  for (size_t i = 0; i < known.size(); i += 137) test.push_back(known[i]);
  test.push_back({kHub, 7, kHubRelation});
  test.push_back({3, kHub, kHubRelation});
  return test;
}

// ---- The oracle --------------------------------------------------------

// The full-vocabulary row for (anchor, relation) on `side` at `tier`.
std::vector<float> OracleRow(const Subject& s, QuerySide side,
                             EntityId anchor, RelationId relation,
                             ScorePrecision tier) {
  const size_t n = size_t(kEntities);
  std::vector<float> row(n);
  if (s.trilinear == nullptr) {
    s.model().ScoreAll(side, anchor, relation, row);
    return row;
  }
  const MultiEmbeddingModel& m = *s.trilinear;
  const size_t width = size_t(m.weights().ne()) * size_t(m.dim());
  std::vector<float> fold(width);
  if (side == QuerySide::kTail) {
    FoldForTail(m.weights(), m.dim(), m.entity_store().Of(anchor),
                m.relation_store().Of(relation), fold);
  } else {
    FoldForHead(m.weights(), m.dim(), m.entity_store().Of(anchor),
                m.relation_store().Of(relation), fold);
  }
  const float* rows = m.entity_store().block().Flat().data();
  switch (tier) {
    case ScorePrecision::kDouble:
      for (size_t e = 0; e < n; ++e) {
        row[e] = float(simd::ref::Dot(fold.data(), rows + e * width, width));
      }
      break;
    case ScorePrecision::kFloat32:
      simd::ref::DotBatchMultiF32(fold.data(), 1, rows, n, width, row.data());
      break;
    case ScorePrecision::kInt8: {
      std::vector<std::int8_t> codes(n * width);
      std::vector<float> scales(n);
      simd::QuantizeRowsI8(rows, n, width, codes.data(), scales.data());
      simd::ref::DotBatchMultiI8(fold.data(), 1, codes.data(), scales.data(),
                                 n, width, row.data());
      break;
    }
  }
  return row;
}

bool Contains(std::span<const EntityId> sorted, EntityId e) {
  return std::binary_search(sorted.begin(), sorted.end(), e);
}

// Tie-averaged rank of row[truth] among the non-excluded candidates.
double OracleRank(const std::vector<float>& row, EntityId truth,
                  std::span<const EntityId> excluded) {
  const float score = row[size_t(truth)];
  uint64_t better = 0;
  uint64_t equal = 0;
  for (EntityId e = 0; e < kEntities; ++e) {
    if (e == truth || Contains(excluded, e)) continue;
    if (row[size_t(e)] > score) ++better;
    if (row[size_t(e)] == score) ++equal;
  }
  return 1.0 + double(better) + double(equal) / 2.0;
}

size_t OracleCandidates(EntityId truth, std::span<const EntityId> excluded) {
  size_t count = 0;
  for (EntityId e = 0; e < kEntities; ++e) {
    if (e == truth || !Contains(excluded, e)) ++count;
  }
  return count;
}

// The k best non-excluded candidates by full sort on (score desc, id asc).
std::vector<ScoredEntity> OracleTopK(const std::vector<float>& row, int k,
                                     std::span<const EntityId> excluded) {
  std::vector<EntityId> ids;
  for (EntityId e = 0; e < kEntities; ++e) {
    if (!Contains(excluded, e)) ids.push_back(e);
  }
  std::sort(ids.begin(), ids.end(), [&](EntityId a, EntityId b) {
    const float sa = row[size_t(a)];
    const float sb = row[size_t(b)];
    return sa != sb ? sa > sb : a < b;
  });
  ids.resize(std::min(ids.size(), size_t(std::max(k, 0))));
  std::vector<ScoredEntity> out;
  for (const EntityId e : ids) out.push_back({e, row[size_t(e)]});
  return out;
}

EvalResult OracleEvaluate(const Subject& s, const FilterIndex& filter,
                          const std::vector<Triple>& triples, bool filtered,
                          ScorePrecision tier) {
  EvalResult result;
  result.per_relation.resize(size_t(kRelations));
  for (const Triple& triple : triples) {
    const std::span<const EntityId> known_tails =
        filtered ? filter.KnownTails(triple.head, triple.relation)
                 : std::span<const EntityId>();
    const std::span<const EntityId> known_heads =
        filtered ? filter.KnownHeads(triple.tail, triple.relation)
                 : std::span<const EntityId>();
    const double tail_rank =
        OracleRank(OracleRow(s, QuerySide::kTail, triple.head,
                             triple.relation, tier),
                   triple.tail, known_tails);
    const double head_rank =
        OracleRank(OracleRow(s, QuerySide::kHead, triple.tail,
                             triple.relation, tier),
                   triple.head, known_heads);
    const size_t tail_cands = OracleCandidates(triple.tail, known_tails);
    const size_t head_cands = OracleCandidates(triple.head, known_heads);
    result.overall.AddRank(tail_rank, tail_cands);
    result.overall.AddRank(head_rank, head_cands);
    PerRelationMetrics& rel = result.per_relation[size_t(triple.relation)];
    rel.tail_queries.AddRank(tail_rank, tail_cands);
    rel.head_queries.AddRank(head_rank, head_cands);
  }
  return result;
}

// ---- Comparisons -------------------------------------------------------

void ExpectSameMetrics(const RankingMetrics& expect, const RankingMetrics& got,
                       const std::string& label) {
  EXPECT_EQ(expect.count(), got.count()) << label;
  EXPECT_EQ(expect.Mrr(), got.Mrr()) << label;
  EXPECT_EQ(expect.MeanRank(), got.MeanRank()) << label;
  EXPECT_EQ(expect.HitsAt(1), got.HitsAt(1)) << label;
  EXPECT_EQ(expect.HitsAt(3), got.HitsAt(3)) << label;
  EXPECT_EQ(expect.HitsAt(10), got.HitsAt(10)) << label;
  EXPECT_EQ(expect.AdjustedMeanRankIndex(), got.AdjustedMeanRankIndex())
      << label;
}

void ExpectSameResult(const EvalResult& expect, const EvalResult& got,
                      const std::string& label) {
  ExpectSameMetrics(expect.overall, got.overall, label + " overall");
  ASSERT_EQ(expect.per_relation.size(), got.per_relation.size()) << label;
  for (size_t r = 0; r < expect.per_relation.size(); ++r) {
    const std::string rel = label + " relation=" + std::to_string(r);
    ExpectSameMetrics(expect.per_relation[r].tail_queries,
                      got.per_relation[r].tail_queries, rel + " tails");
    ExpectSameMetrics(expect.per_relation[r].head_queries,
                      got.per_relation[r].head_queries, rel + " heads");
  }
}

void ExpectSameTopK(const std::vector<ScoredEntity>& expect,
                    std::span<const ScoredEntity> got,
                    const std::string& label) {
  ASSERT_EQ(expect.size(), got.size()) << label;
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].entity, got[i].entity) << label << " position " << i;
    // Exact float equality on purpose: no path may move a bit.
    EXPECT_EQ(expect[i].score, got[i].score) << label << " position " << i;
  }
}

std::string TierName(ScorePrecision tier) {
  return std::string(ScorePrecisionName(tier));
}

class RankingOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    known_ = MakeKnownTriples();
    test_ = MakeTestTriples(known_);
    filter_.Build(known_, {}, {});
    subjects_ = MakeSubjects();
  }

  std::vector<Triple> known_;
  std::vector<Triple> test_;
  FilterIndex filter_;
  std::vector<Subject> subjects_;
};

TEST_F(RankingOracleTest, EvaluateMatchesOracleOnEveryPath) {
  const Evaluator evaluator(&filter_, kRelations);
  for (const Subject& s : subjects_) {
    uint64_t tiles_skipped = 0;
    for (const ScorePrecision tier : s.tiers) {
      for (const bool filtered : {true, false}) {
        const EvalResult expect =
            OracleEvaluate(s, filter_, test_, filtered, tier);
        for (const int shards : {1, 3}) {
          for (const bool prune : {false, true}) {
            for (const int batch : {1, 5, 0}) {
              for (const int threads : {1, 4}) {
                EvalOptions options;
                options.filtered = filtered;
                options.score_precision = tier;
                options.num_shards = shards;
                options.prune = prune;
                options.batch_queries = batch;
                options.num_threads = threads;
                const std::string label =
                    s.name + " tier=" + TierName(tier) +
                    " filtered=" + std::to_string(filtered) +
                    " shards=" + std::to_string(shards) +
                    " prune=" + std::to_string(prune) +
                    " B=" + std::to_string(batch) +
                    " threads=" + std::to_string(threads);
                const EvalResult got =
                    evaluator.Evaluate(s.model(), test_, options);
                ExpectSameResult(expect, got, label);
                tiles_skipped += got.scan_stats.tiles_skipped;
              }
            }
          }
        }
      }
    }
    // The pruned branches must actually run, or this proves nothing.
    if (s.expect_skips) {
      EXPECT_GT(tiles_skipped, 0u) << s.name;
    }
  }
}

TEST_F(RankingOracleTest, PredictMatchesOracleBothSides) {
  for (const Subject& s : subjects_) {
    for (const Triple& triple : test_) {
      for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
        const EntityId anchor =
            side == QuerySide::kTail ? triple.head : triple.tail;
        const std::vector<float> row = OracleRow(
            s, side, anchor, triple.relation, ScorePrecision::kDouble);
        for (const bool exclude : {false, true}) {
          const std::span<const EntityId> excluded =
              !exclude ? std::span<const EntityId>()
              : side == QuerySide::kTail
                  ? filter_.KnownTails(anchor, triple.relation)
                  : filter_.KnownHeads(anchor, triple.relation);
          const std::vector<ScoredEntity> expect =
              OracleTopK(row, kTopK, excluded);
          for (const int shards : {1, 3}) {
            for (const bool prune : {false, true}) {
              TopKOptions options;
              options.k = kTopK;
              options.exclude_known = exclude ? &filter_ : nullptr;
              options.num_shards = shards;
              options.prune = prune;
              const std::vector<ScoredEntity> got =
                  side == QuerySide::kTail
                      ? PredictTails(s.model(), anchor, triple.relation,
                                     options)
                      : PredictHeads(s.model(), anchor, triple.relation,
                                     options);
              ExpectSameTopK(expect, got,
                             s.name + " side=" + std::to_string(int(side)) +
                                 " anchor=" + std::to_string(anchor) +
                                 " exclude=" + std::to_string(exclude) +
                                 " shards=" + std::to_string(shards) +
                                 " prune=" + std::to_string(prune));
            }
          }
        }
      }
    }
  }
}

// Collects every reply of one submission round.
struct Replies {
  Mutex mutex;
  CondVar cv;
  int pending KGE_GUARDED_BY(mutex) = 0;
  std::vector<ServeStatusCode> status KGE_GUARDED_BY(mutex);
  std::vector<ScorePrecision> tier KGE_GUARDED_BY(mutex);
  std::vector<std::vector<ScoredEntity>> results KGE_GUARDED_BY(mutex);
};

struct ReplySlot {
  Replies* replies = nullptr;
  size_t index = 0;

  static void OnReply(void* ctx, const ServeReply& reply) {
    auto* slot = static_cast<ReplySlot*>(ctx);
    Replies* r = slot->replies;
    MutexLock lock(r->mutex);
    r->status[slot->index] = reply.status;
    r->tier[slot->index] = reply.tier;
    r->results[slot->index].assign(reply.results.begin(),
                                   reply.results.end());
    --r->pending;
    r->cv.NotifyAll();
  }
};

TEST_F(RankingOracleTest, MicroBatcherMatchesOracleOnBothReductions) {
  // Mixed sides and relations, submitted before Start so batches
  // coalesce deterministically by (relation, side).
  std::vector<ServeRequest> requests;
  for (size_t i = 0; i < test_.size() && requests.size() < 14; i += 2) {
    for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
      ServeRequest request;
      request.side = side;
      request.entity = side == QuerySide::kTail ? test_[i].head : test_[i].tail;
      request.relation = test_[i].relation;
      request.k = uint32_t(kTopK);
      request.request_id = requests.size();
      requests.push_back(request);
    }
  }
  for (const Subject& s : subjects_) {
    uint64_t tiles_skipped = 0;
    SnapshotRegistry registry;
    registry.Publish(s.snapshot);
    for (const ScorePrecision tier : s.tiers) {
      std::vector<std::vector<ScoredEntity>> expect;
      for (const ServeRequest& request : requests) {
        expect.push_back(OracleTopK(OracleRow(s, request.side, request.entity,
                                              request.relation, tier),
                                    kTopK, {}));
      }
      for (const int shards : {1, 3}) {
        for (const bool prune : {false, true}) {
          for (const int batch : {1, 5, 0}) {
            for (const int workers : {1, 4}) {
              BatcherOptions options;
              options.default_deadline_ms = kServeMaxDeadlineMs;
              options.num_shards = shards;
              options.prune = prune;
              if (batch > 0) options.max_batch = batch;
              options.num_workers = workers;
              // Force the tier through the degradation ladder: a zero
              // threshold arms a tier at any queue occupancy.
              options.degrade_floor = tier;
              options.degrade_float32_pct = 0;
              options.degrade_int8_pct = 0;
              Replies replies;
              std::vector<ReplySlot> slots(requests.size());
              {
                MutexLock lock(replies.mutex);
                replies.pending = int(requests.size());
                replies.status.assign(requests.size(), ServeStatusCode::kError);
                replies.tier.assign(requests.size(), ScorePrecision::kDouble);
                replies.results.assign(requests.size(), {});
              }
              MicroBatcher batcher(&registry, options);
              for (size_t i = 0; i < requests.size(); ++i) {
                slots[i] = ReplySlot{&replies, i};
                batcher.Submit(requests[i], &ReplySlot::OnReply, &slots[i]);
              }
              batcher.Start();
              {
                MutexLock lock(replies.mutex);
                while (replies.pending > 0) replies.cv.Wait(replies.mutex);
              }
              batcher.Stop();
              tiles_skipped += batcher.stats().tiles_skipped;
              MutexLock lock(replies.mutex);
              for (size_t i = 0; i < requests.size(); ++i) {
                const std::string label =
                    s.name + " tier=" + TierName(tier) +
                    " shards=" + std::to_string(shards) +
                    " prune=" + std::to_string(prune) +
                    " B=" + std::to_string(batch) +
                    " workers=" + std::to_string(workers) +
                    " request=" + std::to_string(i);
                ASSERT_EQ(replies.status[i], ServeStatusCode::kOk) << label;
                EXPECT_EQ(replies.tier[i], tier) << label;
                ExpectSameTopK(expect[i], replies.results[i], label);
              }
            }
          }
        }
      }
    }
    if (s.expect_skips) {
      EXPECT_GT(tiles_skipped, 0u) << s.name;
    }
  }
}

}  // namespace
}  // namespace kge
