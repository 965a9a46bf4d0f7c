#include "eval/topk.h"

#include <algorithm>
#include <vector>

#include "models/range_scan.h"
#include "util/check.h"

namespace kge {

void ShardedTopK(const KgeModel& model, QuerySide side, EntityId anchor,
                 RelationId relation, std::span<const EntityId> excluded,
                 ScorePrecision precision, bool prune, int k,
                 std::span<TopKHeap<float, EntityId>> shard_heaps,
                 std::span<RankScanStats> shard_stats, ThreadPool* pool,
                 TopKHeap<float, EntityId>* merged) {
  const size_t shards = shard_heaps.size();
  KGE_DCHECK(shards >= 1 && shard_stats.size() == shards);
  const EntityId num_entities = model.num_entities();
  merged->ResetCapacity(k);
  if (shards == 1) {
    TopKInRange(model, side, anchor, relation, 0, num_entities, excluded,
                precision, prune, merged, &shard_stats[0]);
    return;
  }
  float prune_floor = 0.0f;
  bool have_floor = false;
  const int64_t prime_end =
      std::max<int64_t>(k, int64_t(kPrunePrimePrefix)) +
      int64_t(excluded.size());
  if (prune && k > 0 && prime_end < int64_t(num_entities)) {
    TopKInRange(model, side, anchor, relation, 0, EntityId(prime_end),
                excluded, precision, /*prune=*/false, merged,
                &shard_stats[0]);
    if (merged->full()) {
      prune_floor = merged->WorstScore();
      have_floor = true;
    }
    merged->ResetCapacity(k);
  }
  for (TopKHeap<float, EntityId>& heap : shard_heaps) {
    heap.ResetCapacity(k);
    if (have_floor) heap.SetPruneFloor(prune_floor);
  }
  const auto scan_shards = [&](size_t first, size_t last) {
    for (size_t s = first; s < last; ++s) {
      TopKInRange(model, side, anchor, relation,
                  ShardBegin(num_entities, int(shards), int(s)),
                  ShardBegin(num_entities, int(shards), int(s) + 1),
                  excluded, precision, prune, &shard_heaps[s],
                  &shard_stats[s]);
    }
  };
  if (pool != nullptr) {
    pool->StageFor(0, shards, scan_shards);
  } else {
    scan_shards(0, shards);
  }
  for (const TopKHeap<float, EntityId>& heap : shard_heaps) {
    merged->MergeFrom(heap);
  }
}

namespace {

// The offline convenience path: shards scanned sequentially on the
// calling thread (the serving layer fans them out over a pool).
std::vector<ScoredEntity> Predict(const KgeModel& model, QuerySide side,
                                  EntityId anchor, RelationId relation,
                                  std::span<const EntityId> excluded,
                                  const TopKOptions& options) {
  KGE_CHECK(anchor >= 0 && anchor < model.num_entities());
  if (options.prune) {
    model.PrepareForPrunedScoring(ScorePrecision::kDouble);
  }
  const size_t shards = size_t(std::max(options.num_shards, 1));
  std::vector<TopKHeap<float, EntityId>> shard_heaps(shards);
  std::vector<RankScanStats> shard_stats(shards);
  TopKHeap<float, EntityId> merged;
  ShardedTopK(model, side, anchor, relation, excluded,
              ScorePrecision::kDouble, options.prune, options.k, shard_heaps,
              shard_stats, /*pool=*/nullptr, &merged);
  std::vector<ScoredEntity> result;
  result.reserve(size_t(merged.size()));
  for (const auto& entry : merged.TakeSorted()) {
    result.push_back({entry.entity, entry.score});
  }
  return result;
}

}  // namespace

std::vector<ScoredEntity> PredictTails(const KgeModel& model, EntityId head,
                                       RelationId relation,
                                       const TopKOptions& options) {
  return Predict(model, QuerySide::kTail, head, relation,
                 options.exclude_known != nullptr
                     ? options.exclude_known->KnownTails(head, relation)
                     : std::span<const EntityId>(),
                 options);
}

std::vector<ScoredEntity> PredictHeads(const KgeModel& model, EntityId tail,
                                       RelationId relation,
                                       const TopKOptions& options) {
  return Predict(model, QuerySide::kHead, tail, relation,
                 options.exclude_known != nullptr
                     ? options.exclude_known->KnownHeads(tail, relation)
                     : std::span<const EntityId>(),
                 options);
}

}  // namespace kge
