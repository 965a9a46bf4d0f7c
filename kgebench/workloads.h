// The benchmark's workloads and the inputs they share.
//
//   train_wn18like   Trainer + Evaluator on a WN18-size WordNet-like
//                    dataset loaded from TSV files
//   serve_100k_open  kge_serve (defaults) on a 100k-entity checkpoint,
//                    open-loop mixed traffic
//   serve_1m_hot     kge_serve --shards=4 --prune on a 1M-entity
//                    checkpoint, four closed-loop callers on one relation
//
// The traced run (--trace 1) stands the same layers up in-process and
// reports the per-layer metrics (layers.cc).
#ifndef KGEBENCH_WORKLOADS_H_
#define KGEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "kge.h"

namespace kgebench {

// Every model in the benchmark is the paper's quaternion model at a
// 200-parameter-per-entity budget (50 quaternion dimensions).
inline constexpr const char* kModelName = "quaternion";
inline constexpr int kDimBudget = 200;
// WN18's vocabulary size; the generator's 18 relations match WN18's.
inline constexpr int32_t kWn18Entities = 40943;
// Seed of the serving checkpoints and of the datasets kge_serve
// regenerates for their vocabulary sizes (fixed: one checkpoint per scale
// serves every traffic seed).
inline constexpr uint64_t kCheckpointSeed = 42;
// Load comes from one process with at most this many threads and
// connections (the reference host has 4 cores).
int LoadThreads();

// Program-written inputs under RunArgs::inputs_dir.
std::string DatasetDir(const RunArgs& args);  // WN18-size TSVs of args.seed
std::string CheckpointPath(const RunArgs& args, const std::string& scale);
// Vocabulary sizes recorded next to a checkpoint when it was written.
bool ReadCheckpointShape(const std::string& checkpoint, int32_t* entities,
                         int32_t* relations);

// Writes the serving checkpoint of `scale` (small | medium | xl): the
// vocabulary kge_serve regenerates, a freshly initialized quaternion
// model, saved with the program's SaveModelCheckpoint.
int PrepareCheckpoint(const RunArgs& args, const std::string& scale);

// ---- Shared by a workload and the traced run of its layers ----------

// Training configuration of train_wn18like: Adam, one negative per
// positive, unit-norm entities, the paper's logistic loss.
kge::TrainerOptions TrainOptions(const RunArgs& args, int threads,
                                 int epochs);
// The fixed test sample of a seed: a seeded shuffle of the test split.
std::vector<kge::Triple> TestSample(const kge::Dataset& data, uint64_t seed,
                                    size_t count);

// Serving traffic: top-10 queries with an explicit deadline, so the
// server's 50 ms default never expires one.
inline constexpr uint32_t kTopK = 10;
inline constexpr uint32_t kDeadlineMs = 10000;
// serve_100k_open's fixed offered rate, about a third of kge_serve's
// single-worker capacity at 100k entities on the reference host, so
// that queueing does not amplify the host's speed swings into p95.
inline constexpr double kFixedRatePerS = 12.0;
// The request stream of a serving workload, drawn from args.seed:
// serve_100k_open mixes relations and sides with Zipf-popular entities;
// serve_1m_hot asks hypernym tails of uniform entities.
std::vector<kge::ServeRequest> MakeServeTraffic(const RunArgs& args,
                                                int32_t entities,
                                                int32_t relations,
                                                size_t count);
// Poisson arrival times (seconds) at `rate` per second. The open-loop
// phase replays one fixed arrival trace (kArrivalTraceSeed) for every
// run seed, so runs differ in what is asked, not in how bursty the
// schedule happened to be.
inline constexpr uint64_t kArrivalTraceSeed = 40;
std::vector<double> PoissonSchedule(size_t count, double rate, uint64_t seed);

RunResult RunTrainWorkload(const RunArgs& args);
RunResult RunServeWorkload(const RunArgs& args);
RunResult RunLayers(const RunArgs& args);

}  // namespace kgebench

#endif  // KGEBENCH_WORKLOADS_H_
