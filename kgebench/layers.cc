// The traced run (--trace 1): stands the layers of all three workloads
// up in-process on the same inputs and traffic, with a span around each
// call into a module's public functions, and reports one figure per
// layer. Spans are recorded only here, in the benchmark's own code; the
// program itself is not instrumented. The spans are written to
// <out-dir>/trace_<workload>_seed<seed>.json when the run ends.
//
// Every traced run reports every per-layer metric, whatever --workload
// names: the workload only names the span file.
#include <sys/mman.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "kge.h"
#include "math/simd.h"
#include "oracle.h"
#include "serve_client.h"
#include "trace.h"
#include "workloads.h"

namespace kgebench {
namespace {

// Traced-run sizes: enough work per layer for a steady median, small
// enough that all three groups fit well inside one run's time limit.
struct LayerSizes {
  int train_epochs;
  size_t eval_triples;
  size_t direct_requests;  // one-in-flight requests per probe
  size_t load_requests;    // requests of each under-load phase
};

LayerSizes SizesFor(const RunArgs& args) {
  if (args.smoke) return {2, 64, 10, 40};
  return {3, 500, 40, 60};
}

// Blocks until the batcher answers one request.
class ReplyWaiter {
 public:
  static void OnReply(void* ctx, const kge::ServeReply& reply) {
    auto* self = static_cast<ReplyWaiter*>(ctx);
    std::lock_guard<std::mutex> lock(self->mutex_);
    self->status_ = reply.status;
    self->results_.assign(reply.results.begin(), reply.results.end());
    self->done_ = true;
    self->cv_.notify_one();
  }
  // Submits `request`; returns the latency in ms and the reply.
  double Call(kge::MicroBatcher* batcher, const kge::ServeRequest& request,
              bool* ok) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = false;
    }
    const int64_t start = NowNanos();
    batcher->Submit(request, &ReplyWaiter::OnReply, this);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_; });
    const double ms = double(NowNanos() - start) * 1e-6;
    *ok = status_ == kge::ServeStatusCode::kOk && results_.size() == kTopK;
    for (size_t i = 1; *ok && i < results_.size(); ++i) {
      if (results_[i].score > results_[i - 1].score) *ok = false;
    }
    return ms;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  kge::ServeStatusCode status_ = kge::ServeStatusCode::kError;
  std::vector<kge::ScoredEntity> results_;
};

// Requests through the batcher directly, one in flight: p50 ms.
double DirectP50(kge::MicroBatcher* batcher,
                 const std::vector<kge::ServeRequest>& requests,
                 Phase* phase) {
  ReplyWaiter waiter;
  std::vector<double> ms;
  for (const kge::ServeRequest& request : requests) {
    ScopedSpan span("serve.request");
    bool ok = false;
    ms.push_back(waiter.Call(batcher, request, &ok));
    ++phase->attempted;
    if (!ok) ++phase->failed;
  }
  return Median(ms);
}

// Submit → reply latencies under load from `threads` submitters. With
// `due` empty they run closed-loop; otherwise each request waits for its
// due time (open loop) and latency counts from it.
std::vector<double> UnderLoad(kge::MicroBatcher* batcher,
                              const std::vector<kge::ServeRequest>& requests,
                              const std::vector<double>& due, int threads,
                              Phase* phase) {
  std::vector<double> ms(requests.size(), 0.0);
  std::vector<char> ok(requests.size(), 0);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto worker = [&] {
    ReplyWaiter waiter;
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      double late_ms = 0.0;
      if (!due.empty()) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i])));
        late_ms = std::max(0.0, (SecondsSince(start) - due[i]) * 1e3);
      }
      ScopedSpan span("serve.request");
      bool good = false;
      ms[i] = late_ms + waiter.Call(batcher, requests[i], &good);
      ok[i] = good;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  phase->attempted += int64_t(requests.size());
  phase->failed += int64_t(std::count(ok.begin(), ok.end(), 0));
  return ms;
}

double BatchSizeMean(const kge::BatcherStatsView& before,
                     const kge::BatcherStatsView& after) {
  const double batches = double(after.batches - before.batches);
  return batches > 0.0
             ? double(after.batched_queries - before.batched_queries) / batches
             : 0.0;
}

// Loads a serving snapshot the way kge_serve does, with the factory's
// model init and the pruning bounds as their own spans.
std::shared_ptr<kge::ModelSnapshot> LoadSnapshot(const std::string& path,
                                                 int32_t entities,
                                                 int32_t relations,
                                                 bool prune,
                                                 std::string* error) {
  const kge::ModelFactory factory = [entities, relations] {
    ScopedSpan span("models.init");
    return kge::MakeModelByName(kModelName, entities, relations, kDimBudget,
                                kCheckpointSeed);
  };
  kge::Result<std::shared_ptr<kge::ModelSnapshot>> snapshot = [&] {
    ScopedSpan span("serve.snapshot_load");
    return kge::LoadServingSnapshot(path, factory, {kge::ScorePrecision::kDouble},
                                    false);
  }();
  if (!snapshot.ok()) {
    *error = snapshot.status().ToString();
    return nullptr;
  }
  if (prune) {
    ScopedSpan span("models.prepare_bounds");
    (*snapshot)->model->PrepareForPrunedScoring(kge::ScorePrecision::kDouble);
  }
  return *snapshot;
}

// ---- train_wn18like's layers ----------------------------------------

void TrainLayers(const RunArgs& args, const LayerSizes& sizes,
                 RunResult* result) {
  const int threads = LoadThreads();
  Phase* phase = result->AddPhase("train_layers");
  ++phase->attempted;
  kge::Result<kge::Dataset> loaded = [&] {
    ScopedSpan span("kg.dataset_load");
    return kge::LoadDatasetFromDirectory(DatasetDir(args),
                                         kge::TripleFileFormat::kHeadRelationTail);
  }();
  if (!loaded.ok()) {
    ++phase->failed;
    result->AddCheck("dataset loads", false, loaded.status().ToString());
    return;
  }
  const kge::Dataset data = std::move(*loaded);
  kge::FilterIndex filter;
  {
    ScopedSpan span("kg.filter_build");
    filter.Build(data.train, data.valid, data.test);
  }
  auto make_model = [&] {
    ScopedSpan span("models.init_wn18");
    return kge::MakeModelByName(kModelName, data.num_entities(),
                                data.num_relations(), kDimBudget,
                                StreamSeed(args.seed, 10));
  };
  kge::Result<std::unique_ptr<kge::KgeModel>> model = make_model();
  kge::Result<std::unique_ptr<kge::KgeModel>> serial_model = make_model();
  if (!model.ok() || !serial_model.ok()) {
    ++phase->failed;
    result->AddCheck("model builds", false);
    return;
  }

  // Epochs on every load thread, then on one thread (the workload's).
  kge::Trainer trainer(model->get(),
                       TrainOptions(args, threads, sizes.train_epochs));
  kge::Result<kge::TrainResult> trained = [&] {
    ScopedSpan span("train.train");
    return trainer.Train(data.train, nullptr);
  }();
  kge::Trainer serial(serial_model->get(),
                      TrainOptions(args, 1, sizes.train_epochs));
  kge::Result<kge::TrainResult> serial_trained = [&] {
    ScopedSpan span("train.train_1thread");
    return serial.Train(data.train, nullptr);
  }();
  if (!trained.ok() || !serial_trained.ok()) {
    ++phase->failed;
    result->AddCheck("training runs", false);
    return;
  }
  // The workload trains on one thread, so its epoch and stage figures
  // come from the 1-thread trainer.
  const double epoch_s = Median(serial_trained->epoch_seconds);
  const kge::TrainStageStats stages = serial.stage_stats();
  const double wall = std::max(stages.wall_seconds, 1e-9);
  result->AddMetric("train.epoch_s", epoch_s, "s");
  result->AddMetric("train.stage_busy_frac.sample",
                    stages.sample_seconds / wall, "fraction");
  result->AddMetric("train.stage_busy_frac.score",
                    stages.score_seconds / wall, "fraction");
  result->AddMetric("train.stage_busy_frac.merge",
                    stages.merge_seconds / wall, "fraction");
  result->AddMetric("train.stage_busy_frac.apply",
                    stages.apply_seconds / wall, "fraction");
  result->AddMetric("train.thread_speedup",
                    epoch_s / Median(trained->epoch_seconds), "x");
  std::string why;
  result->AddCheck("traced training loss falls",
                   CheckLossFalls(trained->loss_history, &why), why);
  const bool identical = trained->loss_history == serial_trained->loss_history;
  result->AddCheck("epochs identical at 1 and N threads", identical,
                   identical ? "" : "loss histories differ");

  // DotBatchIndexed at the trainer's shape: one folded query against a
  // positive and a negative row of the entity table.
  const kge::ParameterBlock& table = *model->get()->Blocks()[0];
  const size_t width = size_t(table.row_dim());
  const float* rows = table.Flat().data();
  {
    SplitMix64 rng(StreamSeed(args.seed, 50));
    std::vector<float> query(width);
    for (float& x : query) x = float(rng.Unit() - 0.5);
    std::vector<int32_t> ids(1 << 16);
    for (int32_t& id : ids) {
      id = int32_t(rng.Below(uint64_t(table.num_rows())));
    }
    constexpr size_t kPerCall = 2;
    const size_t calls = args.smoke ? 20000 : 400000;
    float out[kPerCall];
    float sink = 0.0f;
    ScopedSpan span("math.dot_batch_indexed");
    for (size_t c = 0; c < calls; ++c) {
      kge::simd::DotBatchIndexed(query.data(), rows,
                                 &ids[(c * kPerCall) % (ids.size() - kPerCall)],
                                 kPerCall, width, out);
      sink += out[0];
    }
    const double seconds = span.Seconds();
    result->AddFigure("dot_batch_indexed_sink", double(sink));
    result->AddMetric("math.dot_batch_indexed_gflops",
                      double(calls * kPerCall * width * 2) / seconds * 1e-9,
                      "GFLOP/s");
  }

  // Evaluator over the workload's test sample.
  const std::vector<kge::Triple> sample =
      TestSample(data, args.seed, sizes.eval_triples);
  const kge::Evaluator evaluator(&filter, data.num_relations());
  kge::EvalOptions eval_options;
  eval_options.num_threads = threads;
  double evaluate_s = 0.0;
  {
    ScopedSpan span("eval.evaluate");
    const kge::EvalResult evaluated =
        evaluator.Evaluate(**model, sample, eval_options);
    evaluate_s = span.Seconds();
    result->AddCheck("traced Evaluate ranks every query",
                     evaluated.overall.count() == 2 * sample.size());
  }
  result->AddMetric("eval.evaluate_s", evaluate_s, "s");
  result->AddMetric("eval.ns_per_candidate",
                    evaluate_s * 1e9 /
                        (2.0 * double(sample.size()) * double(data.num_entities())),
                    "ns");

  // DotBatchMulti at the evaluator's resolved batch size, one thread.
  {
    const size_t batch = size_t(kge::ResolveEvalBatchQueries(0, data.num_entities()));
    const size_t num_rows = size_t(table.num_rows());
    SplitMix64 rng(StreamSeed(args.seed, 51));
    std::vector<float> queries(batch * width);
    for (float& x : queries) x = float(rng.Unit() - 0.5);
    std::vector<float> out(batch * num_rows);
    const int reps = args.smoke ? 2 : 7;
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
      ScopedSpan span("math.dot_batch_multi");
      kge::simd::DotBatchMulti(queries.data(), batch, rows, num_rows, width,
                               out.data());
      seconds.push_back(span.Seconds());
    }
    const double t = Median(seconds);
    const double flops = 2.0 * double(batch) * double(num_rows) * double(width);
    const double bytes = 4.0 * (double(num_rows) * double(width) +
                                double(batch) * double(width) +
                                double(batch) * double(num_rows));
    result->AddMetric("math.dot_batch_multi_gflops", flops / t * 1e-9,
                      "GFLOP/s");
    result->AddMetric("math.dot_batch_multi_gb_per_s", bytes / t * 1e-9,
                      "GB/s");
    result->AddFigure("dot_batch_multi_queries", double(batch));
  }
}

// ---- serve_100k_open's layers ---------------------------------------

void Serve100kLayers(const RunArgs& args, const LayerSizes& sizes,
                     RunResult* result) {
  RunArgs serve_args = args;
  serve_args.workload = "serve_100k_open";
  const std::string scale = args.smoke ? "small" : "medium";
  const std::string path = CheckpointPath(args, scale);
  Phase* phase = result->AddPhase("serve_100k_layers");
  int32_t entities = 0;
  int32_t relations = 0;
  std::string error;
  std::shared_ptr<kge::ModelSnapshot> snapshot =
      ReadCheckpointShape(path, &entities, &relations)
          ? LoadSnapshot(path, entities, relations, false, &error)
          : nullptr;
  ++phase->attempted;
  if (snapshot == nullptr) {
    ++phase->failed;
    result->AddCheck("100k snapshot loads", false, error);
    return;
  }
  const kge::KgeModel& model = *snapshot->model;
  const std::vector<kge::ServeRequest> traffic = MakeServeTraffic(
      serve_args, entities, relations,
      2 * sizes.direct_requests + sizes.load_requests + 16);

  // CRC32C over a checkpoint-sized buffer: the 100k checkpoint, mapped.
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    const off_t length = fd >= 0 ? ::lseek(fd, 0, SEEK_END) : -1;
    void* base = length > 0 ? ::mmap(nullptr, size_t(length), PROT_READ,
                                     MAP_PRIVATE, fd, 0)
                            : MAP_FAILED;
    if (fd >= 0) ::close(fd);
    if (base == MAP_FAILED) {
      result->AddCheck("checkpoint maps", false, path);
    } else {
      std::vector<double> seconds;
      uint32_t crc = 0;
      for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan span("util.crc32c");
        crc ^= kge::Crc32c(base, size_t(length));
        seconds.push_back(span.Seconds());
      }
      ::munmap(base, size_t(length));
      result->AddFigure("crc32c_fold", double(crc));
      result->AddMetric("util.crc32c_mb_per_s",
                        double(length) / Median(seconds) * 1e-6, "MB/s");
    }
  }

  // PredictTails at 100k, one shard.
  {
    QuaternionParams params;
    std::string view_error;
    auto& mutable_model = const_cast<kge::KgeModel&>(model);
    const bool viewed = ViewQuaternionParams(mutable_model, &params, &view_error);
    std::vector<double> ms;
    size_t checked_bad = 0;
    kge::TopKOptions options;
    options.k = int(kTopK);
    for (size_t i = 0; i < sizes.direct_requests; ++i) {
      const kge::ServeRequest& r = traffic[i];
      ScopedSpan span("eval.predict_tails");
      const std::vector<kge::ScoredEntity> top =
          kge::PredictTails(model, r.entity, r.relation, options);
      ms.push_back(span.Seconds() * 1e3);
      std::string why;
      if (i < 4 && (!viewed || !CheckTopK(params, r.entity, r.relation, true,
                                          kTopK, top, 1e-5, &why))) {
        ++checked_bad;
      }
    }
    result->AddCheck("PredictTails matches the oracle", checked_bad == 0);
    result->AddMetric("eval.predict_tails_ms", Median(ms), "ms");
  }

  // The micro-batcher with kge_serve's default options, then the same
  // batcher behind KgeServer on loopback.
  kge::SnapshotRegistry registry;
  registry.Publish(snapshot);
  kge::BatcherOptions options;
  options.max_topk = 64;
  kge::MicroBatcher batcher(&registry, options);
  batcher.Start();
  Phase* requests_phase = result->AddPhase("serve_100k_layer_requests");
  const std::vector<kge::ServeRequest> direct(
      traffic.begin(), traffic.begin() + long(sizes.direct_requests));
  const double batcher_p50 = DirectP50(&batcher, direct, requests_phase);
  result->AddMetric("serve.batcher_p50_ms", batcher_p50, "ms");

  kge::KgeServer server(&batcher, kge::ServerOptions{0, 64});
  if (!server.Start().ok()) {
    result->AddCheck("in-process KgeServer starts", false);
    return;
  }
  {
    ServeConnection conn;
    const bool connected = conn.Connect(server.port());
    std::vector<double> ms;
    kge::ServeResponseHeader header;
    std::vector<kge::ScoredEntity> results;
    for (size_t i = 0; i < sizes.direct_requests; ++i) {
      ScopedSpan span("serve.loopback_request");
      const bool ok = connected && conn.Query(traffic[sizes.direct_requests + i],
                                              &header, &results) &&
                      header.status == kge::ServeStatusCode::kOk &&
                      results.size() == kTopK;
      ms.push_back(span.Seconds() * 1e3);
      ++requests_phase->attempted;
      if (!ok) ++requests_phase->failed;
    }
    result->AddMetric("serve.loopback_overhead_ms", Median(ms) - batcher_p50,
                      "ms");
  }
  server.Stop();

  // Under the workload's load: open-loop Poisson arrivals at the fixed
  // offered rate from four submitters.
  kge::MicroBatcher loaded_batcher(&registry, options);
  loaded_batcher.Start();
  const std::vector<kge::ServeRequest> load(
      traffic.begin() + long(2 * sizes.direct_requests),
      traffic.begin() + long(2 * sizes.direct_requests + sizes.load_requests));
  const kge::BatcherStatsView before = loaded_batcher.stats();
  const std::vector<double> ms = UnderLoad(
      &loaded_batcher, load,
      PoissonSchedule(load.size(), kFixedRatePerS, kArrivalTraceSeed),
      LoadThreads(), requests_phase);
  const kge::BatcherStatsView after = loaded_batcher.stats();
  loaded_batcher.Stop();
  result->AddMetric("serve.queue_wait_p50_ms", Median(ms) - batcher_p50, "ms");
  result->AddMetric("serve.batch_size_mean_100k", BatchSizeMean(before, after),
                    "queries/batch");
  result->AddCheck("100k layer requests all OK", requests_phase->failed == 0);
}

// ---- serve_1m_hot's layers ------------------------------------------

void Serve1mLayers(const RunArgs& args, const LayerSizes& sizes,
                   RunResult* result) {
  RunArgs serve_args = args;
  serve_args.workload = "serve_1m_hot";
  const std::string scale = args.smoke ? "small" : "xl";
  const std::string path = CheckpointPath(args, scale);
  Phase* phase = result->AddPhase("serve_1m_layers");
  ++phase->attempted;
  int32_t entities = 0;
  int32_t relations = 0;
  if (!ReadCheckpointShape(path, &entities, &relations)) {
    ++phase->failed;
    result->AddCheck("1M checkpoint exists", false, path);
    return;
  }

  // What kge_serve does before it can load: regenerate the dataset only
  // to learn the vocabulary sizes, then verify the checkpoint's CRCs.
  {
    kge::WordNetLikeOptions options;
    options.num_entities = entities;
    options.seed = kCheckpointSeed;
    ScopedSpan span("datagen.generate");
    const kge::Dataset data = kge::GenerateWordNetLike(options);
    result->AddCheck("regenerated vocabulary matches the checkpoint",
                     data.num_entities() == entities &&
                         data.num_relations() == relations);
  }
  {
    ScopedSpan span("models.checkpoint_verify");
    result->AddCheck("1M checkpoint verifies",
                     kge::VerifyCheckpoint(path).ok());
  }
  std::string error;
  std::shared_ptr<kge::ModelSnapshot> snapshot =
      LoadSnapshot(path, entities, relations, true, &error);
  if (snapshot == nullptr) {
    ++phase->failed;
    result->AddCheck("1M snapshot loads", false, error);
    return;
  }
  const kge::KgeModel& model = *snapshot->model;
  const std::vector<kge::ServeRequest> traffic = MakeServeTraffic(
      serve_args, entities, relations,
      sizes.direct_requests + sizes.load_requests + 16);

  // The pruned range scan over the whole table, as one shard sees it.
  {
    std::vector<double> seconds;
    kge::RankScanStats stats;
    kge::TopKHeap<float, kge::EntityId> heap;
    const size_t scans = args.smoke ? 4 : 8;
    for (size_t i = 0; i < scans; ++i) {
      heap.ResetCapacity(int(kTopK));
      ScopedSpan span("models.topk_scan");
      model.TopKTailsInRange(traffic[i].entity, traffic[i].relation, 0,
                             entities, {}, kge::ScorePrecision::kDouble, true,
                             &heap, &stats);
      seconds.push_back(span.Seconds());
    }
    result->AddMetric("models.topk_scan_ns_per_candidate",
                      Median(seconds) * 1e9 / double(entities), "ns");
    result->AddMetric("models.tiles_skipped_frac",
                      stats.tiles_total > 0
                          ? double(stats.tiles_skipped) / double(stats.tiles_total)
                          : 0.0,
                      "fraction");
  }

  // One query against every row: the DRAM stream of an unpruned scan.
  {
    auto& mutable_model = const_cast<kge::KgeModel&>(model);
    const kge::ParameterBlock& table = *mutable_model.Blocks()[0];
    const size_t width = size_t(table.row_dim());
    std::vector<float> query(width, 0.01f);
    std::vector<float> out(static_cast<size_t>(entities));
    std::vector<double> seconds;
    for (int rep = 0; rep < (args.smoke ? 2 : 5); ++rep) {
      ScopedSpan span("math.dot_batch");
      kge::simd::DotBatch(query.data(), table.Flat().data(), size_t(entities),
                          width, out.data());
      seconds.push_back(span.Seconds());
    }
    result->AddMetric("math.dot_batch_gb_per_s_1m",
                      double(entities) * double(width) * 4.0 /
                          Median(seconds) * 1e-9,
                      "GB/s");
  }

  // The batcher as `kge_serve --shards=4 --prune` runs it: one in flight,
  // then four closed-loop submitters on the workload's traffic.
  kge::SnapshotRegistry registry;
  registry.Publish(snapshot);
  kge::BatcherOptions options;
  options.max_topk = 64;
  options.num_shards = 4;
  options.prune = true;
  kge::MicroBatcher batcher(&registry, options);
  batcher.Start();
  Phase* requests_phase = result->AddPhase("serve_1m_layer_requests");
  const std::vector<kge::ServeRequest> direct(
      traffic.begin(), traffic.begin() + long(sizes.direct_requests / 4));
  const double batcher_p50 = DirectP50(&batcher, direct, requests_phase);
  result->AddMetric("serve.batcher_p50_ms_1m", batcher_p50, "ms");
  const std::vector<kge::ServeRequest> load(
      traffic.begin() + long(sizes.direct_requests),
      traffic.begin() + long(sizes.direct_requests + sizes.load_requests / 3));
  const kge::BatcherStatsView before = batcher.stats();
  const std::vector<double> ms =
      UnderLoad(&batcher, load, {}, LoadThreads(), requests_phase);
  const kge::BatcherStatsView after = batcher.stats();
  batcher.Stop();
  result->AddMetric("serve.batch_size_mean", BatchSizeMean(before, after),
                    "queries/batch");
  result->AddMetric("serve.queue_wait_p50_ms_1m", Median(ms) - batcher_p50,
                    "ms");
  result->AddFigure("batcher_tiles_skipped",
                    double(after.tiles_skipped - before.tiles_skipped));
  result->AddFigure("batcher_tiles_total",
                    double(after.tiles_total - before.tiles_total));
  result->AddCheck("1M layer requests all OK", requests_phase->failed == 0);
}

}  // namespace

RunResult RunLayers(const RunArgs& args) {
  RunResult result;
  const LayerSizes sizes = SizesFor(args);
  const Clock::time_point start = Clock::now();
  const CpuJiffies cpu0 = ReadCpuJiffies();
  TrainLayers(args, sizes, &result);
  Serve100kLayers(args, sizes, &result);
  Serve1mLayers(args, sizes, &result);
  const double wall = SecondsSince(start);
  Tracer& tracer = Tracer::Get();

  // Spans under the per-layer metric names of BENCHMARK.json.
  result.AddMetric("datagen.generate_s", tracer.TotalSeconds("datagen.generate"),
                   "s");
  result.AddMetric("kg.dataset_load_s", tracer.TotalSeconds("kg.dataset_load"),
                   "s");
  result.AddMetric("kg.filter_build_s", tracer.TotalSeconds("kg.filter_build"),
                   "s");
  // The 1M factory call inside the snapshot load (the last models.init).
  result.AddMetric("models.init_s", tracer.LastSeconds("models.init"), "s");
  result.AddMetric("models.checkpoint_verify_s",
                   tracer.TotalSeconds("models.checkpoint_verify"), "s");
  result.AddMetric("serve.snapshot_load_s",
                   tracer.LastSelfSeconds("serve.snapshot_load"), "s");
  result.AddMetric("models.prepare_bounds_s",
                   tracer.TotalSeconds("models.prepare_bounds"), "s");

  // Tracing overhead: spans recorded × the measured cost of one span,
  // as a share of the traced run's wall time.
  const double span_cost = MeasureSpanCostSeconds(100000);
  result.AddMetric("trace.overhead_pct",
                   100.0 * double(tracer.size()) * span_cost / wall, "%");
  result.AddFigure("spans", double(tracer.size()));
  result.AddFigure("span_cost_ns", span_cost * 1e9);
  result.AddFigure("traced_wall_s", wall);
  result.AddFigure("steal_share", StealShare(cpu0, ReadCpuJiffies()));

  const std::string path = args.out_dir + "/trace_" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".json";
  result.AddCheck("span file written", tracer.WriteJson(path), path);
  return result;
}

}  // namespace kgebench
