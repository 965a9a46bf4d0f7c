// Property sweep for the sharded/pruned top-k and rank scans: for every
// trilinear model, scoring precision, and shard count, the pruned result
// must equal the exhaustive one EXACTLY — same entities, same float
// scores, same tie-breaks. Pruning is a work optimization (skipped
// tiles), never an answer approximation, and sharding is a partition of
// the candidate range whose merge is total-order deterministic. The
// sweep runs on norm-skewed models (where tiles actually get skipped)
// and on adversarial edge cases: all-tied scores, exclusions that leave
// fewer than k survivors, and k larger than the vocabulary.
//
// Also runs under TSan in CI (tests are built per-sanitizer), which
// checks the PrepareForPrunedScoring -> concurrent-scan handoff.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/topk_heap.h"
#include "datagen/wordnet_like_generator.h"
#include "eval/evaluator.h"
#include "eval/topk.h"
#include "kg/filter_index.h"
#include "models/range_scan.h"
#include "models/trilinear_models.h"
#include "util/random.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 2000;
constexpr int32_t kRelations = 6;
constexpr int kTopK = 10;
const int kShardCounts[] = {1, 2, 7};
const ScorePrecision kPrecisions[] = {
    ScorePrecision::kDouble, ScorePrecision::kFloat32,
    ScorePrecision::kInt8};

// Decaying per-row norms, like a frequency-sorted trained vocabulary —
// the profile tile pruning exists for. Without the skew, bounds rarely
// beat the running threshold and the pruned branch would go untested.
void SkewEntityNorms(MultiEmbeddingModel* model) {
  const int32_t n = model->num_entities();
  for (int32_t e = 0; e < n; ++e) {
    const double u = double(e) / double(n);
    const float scale = 0.05f + 0.95f * float(std::exp(-8.0 * u));
    for (float& x : model->entity_store().Of(e)) x *= scale;
  }
}

struct NamedModel {
  std::string name;
  std::unique_ptr<MultiEmbeddingModel> model;
};

std::vector<NamedModel> MakeSkewedModels(uint64_t seed) {
  std::vector<NamedModel> models;
  models.push_back({"DistMult", MakeDistMult(kEntities, kRelations, 16, seed)});
  models.push_back({"ComplEx", MakeComplEx(kEntities, kRelations, 8, seed)});
  models.push_back({"CP", MakeCp(kEntities, kRelations, 8, seed)});
  models.push_back({"CPh", MakeCph(kEntities, kRelations, 8, seed)});
  for (NamedModel& m : models) SkewEntityNorms(m.model.get());
  return models;
}

using Heap = TopKHeap<float, EntityId>;

// The production sharded+pruned selection (eval/topk.cc SelectTopK,
// serve/micro_batcher.cc ReduceQuerySharded): prime a shared floor from
// an exhaustive prefix, then per-shard pruned scans merged in order.
void ShardedTopK(const MultiEmbeddingModel& model, EntityId head,
                 RelationId relation, std::span<const EntityId> excluded,
                 ScorePrecision precision, int shards, bool prune, int k,
                 Heap* merged, RankScanStats* stats) {
  const EntityId n = model.num_entities();
  Heap shard_heap(k);
  float floor = 0.0f;
  bool have_floor = false;
  if (prune && shards > 1) {
    const int64_t prime_span =
        std::max<int64_t>(k, int64_t(kPrunePrimePrefix)) +
        int64_t(excluded.size());
    const EntityId prime_end =
        EntityId(std::min<int64_t>(int64_t(n), prime_span));
    TopKInRange(model, QuerySide::kTail, head, relation, 0, prime_end,
                excluded, precision, /*prune=*/false, &shard_heap, stats);
    if (shard_heap.full()) {
      floor = shard_heap.WorstScore();
      have_floor = true;
    }
  }
  merged->ResetCapacity(k);
  for (int s = 0; s < shards; ++s) {
    Heap* heap = shards == 1 ? merged : &shard_heap;
    if (shards != 1) {
      shard_heap.ResetCapacity(k);
      if (have_floor) shard_heap.SetPruneFloor(floor);
    }
    TopKInRange(model, QuerySide::kTail, head, relation,
                ShardBegin(n, shards, s), ShardBegin(n, shards, s + 1),
                excluded, precision, prune, heap, stats);
    if (shards != 1) merged->MergeFrom(shard_heap);
  }
}

void ExpectSameTopK(std::span<const Heap::Entry> expect,
                    std::span<const Heap::Entry> got,
                    const std::string& label) {
  ASSERT_EQ(expect.size(), got.size()) << label;
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].entity, got[i].entity) << label << " position " << i;
    // Exact float equality on purpose: pruning and sharding must not
    // change a single bit of any kept score.
    EXPECT_EQ(expect[i].score, got[i].score) << label << " position " << i;
  }
}

TEST(PrunedTopKProperty, AllModelsPrecisionsAndShardCountsMatchExhaustive) {
  Rng rng(1234);
  for (NamedModel& nm : MakeSkewedModels(7)) {
    const MultiEmbeddingModel& model = *nm.model;
    for (const ScorePrecision precision : kPrecisions) {
      if (!model.SupportsScorePrecision(precision)) continue;
      model.PrepareForPrunedScoring(precision);
      Heap exhaustive(kTopK);
      Heap candidate(kTopK);
      RankScanStats skip_stats;
      for (int q = 0; q < 12; ++q) {
        const EntityId head = EntityId(rng.NextBounded(kEntities));
        const RelationId relation = RelationId(rng.NextBounded(kRelations));
        exhaustive.ResetCapacity(kTopK);
        TopKInRange(model, QuerySide::kTail, head, relation, 0, kEntities, {},
                    precision, /*prune=*/false, &exhaustive, &skip_stats);
        const auto expect = exhaustive.TakeSorted();
        for (const int shards : kShardCounts) {
          for (const bool prune : {false, true}) {
            RankScanStats stats;
            ShardedTopK(model, head, relation, {}, precision, shards, prune,
                        kTopK, &candidate, &stats);
            ExpectSameTopK(expect, candidate.TakeSorted(),
                           nm.name + " precision=" +
                               std::string(ScorePrecisionName(precision)) +
                               " shards=" + std::to_string(shards) +
                               " prune=" + std::to_string(prune));
          }
        }
      }
    }
  }
}

TEST(PrunedTopKProperty, PruningActuallySkipsTilesOnSkewedModels) {
  // Guards against the pruning predicate silently never firing (the
  // exactness sweep above would still pass). Skewed DistMult at kDouble
  // must skip a nonzero fraction of tiles both single- and multi-shard.
  auto model = MakeDistMult(kEntities, kRelations, 16, 7);
  SkewEntityNorms(model.get());
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  Rng rng(99);
  Heap heap(kTopK);
  for (const int shards : kShardCounts) {
    RankScanStats stats;
    for (int q = 0; q < 12; ++q) {
      const EntityId head = EntityId(rng.NextBounded(kEntities));
      const RelationId relation = RelationId(rng.NextBounded(kRelations));
      ShardedTopK(*model, head, relation, {}, ScorePrecision::kDouble,
                  shards, /*prune=*/true, kTopK, &heap, &stats);
    }
    EXPECT_GT(stats.tiles_skipped, 0u) << "shards=" << shards;
    EXPECT_LT(stats.tiles_skipped, stats.tiles_total);
  }
}

TEST(PrunedTopKProperty, AllTiedScoresKeepSmallestIds) {
  // Zeroed embeddings: every candidate scores exactly 0, every tile
  // bound is 0, and the tie-break must hand back ids 0..k-1 for every
  // shard/prune combination (equality never skips a tile).
  auto model = MakeDistMult(kEntities, kRelations, 16, 7);
  model->entity_store().block()->Zero();
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  Heap heap(kTopK);
  for (const int shards : kShardCounts) {
    for (const bool prune : {false, true}) {
      RankScanStats stats;
      ShardedTopK(*model, 3, 1, {}, ScorePrecision::kDouble, shards, prune,
                  kTopK, &heap, &stats);
      const auto sorted = heap.TakeSorted();
      ASSERT_EQ(sorted.size(), size_t(kTopK));
      for (int i = 0; i < kTopK; ++i) {
        EXPECT_EQ(sorted[size_t(i)].entity, EntityId(i))
            << "shards=" << shards << " prune=" << prune;
        EXPECT_EQ(sorted[size_t(i)].score, 0.0f);
      }
    }
  }
}

TEST(PrunedTopKProperty, FewerSurvivorsThanKStaysExact) {
  // Exclusions leave only 3 candidates but k = 10: the heap never
  // fills, the primed floor may not exist, and every combination must
  // return exactly those 3 survivors in score order.
  auto model = MakeDistMult(kEntities, kRelations, 16, 7);
  SkewEntityNorms(model.get());
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  std::vector<EntityId> excluded;
  for (EntityId e = 0; e < kEntities; ++e) {
    if (e != 17 && e != 901 && e != 1777) excluded.push_back(e);
  }
  Heap exhaustive(kTopK);
  Heap heap(kTopK);
  RankScanStats stats;
  exhaustive.ResetCapacity(kTopK);
  TopKInRange(*model, QuerySide::kTail, 5, 2, 0, kEntities, excluded,
              ScorePrecision::kDouble, false, &exhaustive, &stats);
  const auto expect = exhaustive.TakeSorted();
  ASSERT_EQ(expect.size(), 3u);
  for (const int shards : kShardCounts) {
    for (const bool prune : {false, true}) {
      ShardedTopK(*model, 5, 2, excluded, ScorePrecision::kDouble, shards,
                  prune, kTopK, &heap, &stats);
      ExpectSameTopK(expect, heap.TakeSorted(),
                     "survivors shards=" + std::to_string(shards) +
                         " prune=" + std::to_string(prune));
    }
  }
}

TEST(PrunedTopKProperty, PredictTailsInvariantAcrossOptions) {
  // End-to-end through the public API, including the filtered mode.
  auto model = MakeComplEx(kEntities, kRelations, 8, 11);
  SkewEntityNorms(model.get());
  std::vector<Triple> known;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    known.push_back({EntityId(rng.NextBounded(kEntities)),
                     EntityId(rng.NextBounded(kEntities)),
                     RelationId(rng.NextBounded(kRelations))});
  }
  FilterIndex filter;
  filter.Build(known, {}, {});
  TopKOptions reference;
  reference.k = kTopK;
  reference.exclude_known = &filter;
  const auto expect = PredictTails(*model, known[0].head, known[0].relation,
                                   reference);
  for (const int shards : kShardCounts) {
    for (const bool prune : {false, true}) {
      TopKOptions options = reference;
      options.num_shards = shards;
      options.prune = prune;
      const auto got = PredictTails(*model, known[0].head,
                                    known[0].relation, options);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].entity, got[i].entity);
        EXPECT_EQ(expect[i].score, got[i].score);
      }
    }
  }
}

TEST(PrunedTopKProperty, EvaluatorMetricsInvariantToShardsAndPruning) {
  // The rank scans behind Evaluate share the same bound logic; filtered
  // MRR / Hits / MeanRank must be exactly invariant to both knobs.
  WordNetLikeOptions gen;
  gen.num_entities = 400;
  gen.seed = 21;
  const Dataset data = GenerateWordNetLike(gen);
  auto model = MakeDistMult(data.num_entities(), data.num_relations(), 16, 3);
  SkewEntityNorms(model.get());
  FilterIndex filter;
  filter.Build(data.train, data.valid, data.test);
  Evaluator evaluator(&filter, data.num_relations());
  EvalOptions base;
  base.max_triples = 80;
  const EvalResult expect = evaluator.Evaluate(*model, data.test, base);
  for (const int shards : kShardCounts) {
    for (const bool prune : {false, true}) {
      EvalOptions options = base;
      options.num_shards = shards;
      options.prune = prune;
      const EvalResult got = evaluator.Evaluate(*model, data.test, options);
      EXPECT_EQ(expect.overall.Mrr(), got.overall.Mrr())
          << "shards=" << shards << " prune=" << prune;
      EXPECT_EQ(expect.overall.MeanRank(), got.overall.MeanRank());
      EXPECT_EQ(expect.overall.HitsAt(10), got.overall.HitsAt(10));
      EXPECT_EQ(expect.overall.count(), got.overall.count());
    }
  }
}

}  // namespace
}  // namespace kge
