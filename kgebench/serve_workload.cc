// The serving workloads: the real kge_serve binary, launched from the
// build, driven over loopback TCP from this process. Each run launches it
// a fixed number of times (ServeSpec::rounds); every launch is timed to
// its first OK reply and then serves one round of the measured traffic.
//
//   serve_100k_open  default flags (1 worker, 1 shard, no pruning) on the
//                    100k-entity checkpoint. Relations and sides mixed,
//                    entities Zipf-popular. Latency under open-loop
//                    Poisson arrivals at one fixed offered rate over 4
//                    connections; throughput as the saturated rate of 4
//                    closed-loop connections.
//   serve_1m_hot     --shards=4 --prune on the 1M-entity checkpoint. Four
//                    closed-loop callers send tail queries on one
//                    relation with uniform entities.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "kge.h"
#include "oracle.h"
#include "serve_client.h"
#include "workloads.h"

namespace kgebench {
namespace {

// Replies per latency phase: at least 10 lie beyond p95.
constexpr size_t kMinReplies = 200;
// Open-loop replies per run of serve_100k_open, well above kMinReplies:
// the p50 then rests on 40 s of the host rather than 20 s, and its
// spread over seeds fell from 0.14 (240 replies) to 0.04.
constexpr size_t kOpenLoopReplies = 480;
// Zipf exponent of entity popularity in serve_100k_open.
constexpr double kZipfExponent = 1.0;

struct ServeSpec {
  std::string scale;  // kge_serve --scale preset
  std::vector<std::string> flags;
  bool open_loop = true;
  // kge_serve launches per run: each is timed to its first OK reply and
  // then serves one round of the measured traffic. Two at 1M, where a
  // launch takes about 11 s.
  size_t rounds = 3;
};

ServeSpec SpecFor(const RunArgs& args) {
  ServeSpec spec;
  if (args.workload == "serve_1m_hot") {
    spec.scale = args.smoke ? "small" : "xl";
    spec.flags = {"--shards=4", "--prune"};
    spec.open_loop = false;
    spec.rounds = 2;
  } else {
    spec.scale = args.smoke ? "small" : "medium";
    spec.open_loop = true;
  }
  return spec;
}

// Samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s, mapped through a seeded
// permutation so the popular entities are spread over the id space.
class ZipfEntities {
 public:
  ZipfEntities(int32_t n, double s, uint64_t seed) : cdf_(size_t(n)) {
    double total = 0.0;
    for (int32_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(double(r + 1), s);
      cdf_[size_t(r)] = total;
    }
    for (double& c : cdf_) c /= total;
    ids_.resize(size_t(n));
    for (int32_t i = 0; i < n; ++i) ids_[size_t(i)] = i;
    SplitMix64 rng(seed);
    for (size_t i = ids_.size(); i > 1; --i) {
      std::swap(ids_[i - 1], ids_[rng.Below(i)]);
    }
  }
  int32_t Draw(SplitMix64* rng) const {
    const double u = rng->Unit();
    const size_t rank = size_t(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int32_t> ids_;
};

kge::ServeRequest MakeRequest(kge::QuerySide side, int32_t entity,
                              int32_t relation, uint64_t id) {
  kge::ServeRequest request;
  request.side = side;
  request.entity = entity;
  request.relation = relation;
  request.k = kTopK;
  request.deadline_ms = kDeadlineMs;
  request.request_id = id;
  return request;
}

// A reply kept for the oracle.
struct Sampled {
  kge::ServeRequest request;
  std::vector<kge::ScoredEntity> results;
};

struct PhaseStats {
  size_t ok = 0;
  size_t failed = 0;
  size_t io_errors = 0;
  std::vector<double> latency_ms;  // OK replies only
  std::vector<double> lag_ms;      // sent - due
  std::vector<double> done_s;      // reply times of OK replies
};

PhaseStats Summarize(const std::vector<Outcome>& outcomes) {
  PhaseStats stats;
  for (const Outcome& o : outcomes) {
    stats.lag_ms.push_back((o.sent - o.due) * 1e3);
    if (o.io_error) ++stats.io_errors;
    if (o.ok(kTopK)) {
      ++stats.ok;
      stats.latency_ms.push_back(o.LatencyMs());
      stats.done_s.push_back(o.done);
    } else {
      ++stats.failed;
    }
  }
  std::sort(stats.done_s.begin(), stats.done_s.end());
  return stats;
}

// Reply rates of four windows of consecutive replies (each window's
// replies over its duration).
std::vector<double> WindowRates(const PhaseStats& stats) {
  constexpr size_t kWindows = 4;
  std::vector<double> rates;
  const size_t per_window = stats.done_s.size() / kWindows;
  for (size_t w = 0; per_window >= 2 && w < kWindows; ++w) {
    const double begin = stats.done_s[w * per_window];
    const double end = stats.done_s[(w + 1) * per_window - 1];
    rates.push_back(double(per_window - 1) / std::max(end - begin, 1e-6));
  }
  return rates;
}

void CountPhase(RunResult* result, const std::string& name,
                const PhaseStats& stats) {
  Phase* phase = result->AddPhase(name);
  phase->attempted = int64_t(stats.ok + stats.failed);
  phase->failed = int64_t(stats.failed);
}

void KeepSamples(const std::vector<Outcome>& outcomes,
                 const std::vector<kge::ServeRequest>& requests,
                 std::vector<Sampled>* sampled) {
  for (const Outcome& o : outcomes) {
    if (!o.results.empty()) {
      sampled->push_back({requests[o.index], o.results});
    }
  }
}

// Launches kge_serve and times it from the spawn to its first OK reply
// to `probe`.
bool LaunchAndProbe(const RunArgs& args, const ServeSpec& spec,
                    const kge::ServeRequest& probe, ServerProcess* server,
                    double* setup_s, Sampled* first_reply,
                    std::string* error) {
  std::vector<std::string> argv = {
      args.tools_dir + "/kge_serve",
      std::string("--model=") + kModelName,
      "--scale=" + spec.scale,
      "--dim-budget=" + std::to_string(kDimBudget),
      "--seed=" + std::to_string(kCheckpointSeed),
      "--checkpoint=" + CheckpointPath(args, spec.scale)};
  argv.insert(argv.end(), spec.flags.begin(), spec.flags.end());
  const Clock::time_point start = Clock::now();
  if (!server->Start(argv, args.out_dir + "/kge_serve.log", 170.0, error)) {
    return false;
  }
  ServeConnection conn;
  if (!conn.Connect(server->port())) {
    *error = "cannot connect to kge_serve";
    return false;
  }
  kge::ServeResponseHeader header;
  std::vector<kge::ScoredEntity> results;
  if (!conn.Query(probe, &header, &results) ||
      header.status != kge::ServeStatusCode::kOk || results.size() != kTopK) {
    *error = "first reply is not OK";
    return false;
  }
  *setup_s = SecondsSince(start);
  *first_reply = {probe, results};
  return true;
}

}  // namespace

std::vector<kge::ServeRequest> MakeServeTraffic(const RunArgs& args,
                                                int32_t entities,
                                                int32_t relations,
                                                size_t count) {
  std::vector<kge::ServeRequest> requests;
  SplitMix64 rng(StreamSeed(args.seed, 21));
  if (SpecFor(args).open_loop) {
    const ZipfEntities zipf(entities, kZipfExponent,
                            StreamSeed(args.seed, 22));
    for (size_t i = 0; i < count; ++i) {
      const int32_t relation = int32_t(rng.Below(uint64_t(relations)));
      const kge::QuerySide side = rng.Below(2) == 0 ? kge::QuerySide::kTail
                                                    : kge::QuerySide::kHead;
      requests.push_back(MakeRequest(side, zipf.Draw(&rng), relation, i + 1));
    }
  } else {
    // One (relation, side): hypernym tails, uniform entities.
    for (size_t i = 0; i < count; ++i) {
      requests.push_back(MakeRequest(
          kge::QuerySide::kTail, int32_t(rng.Below(uint64_t(entities))),
          kge::kHypernym, i + 1));
    }
  }
  return requests;
}

std::vector<double> PoissonSchedule(size_t count, double rate,
                                    uint64_t seed) {
  std::vector<double> due(count);
  SplitMix64 rng(seed);
  double t = 0.05;  // let every connection reach its first wait
  for (size_t i = 0; i < count; ++i) {
    due[i] = t;
    t += -std::log(1.0 - rng.Unit()) / rate;
  }
  return due;
}

RunResult RunServeWorkload(const RunArgs& args) {
  RunResult result;
  const ServeSpec spec = SpecFor(args);
  const int connections = LoadThreads();
  const std::string checkpoint = CheckpointPath(args, spec.scale);
  int32_t entities = 0;
  int32_t relations = 0;
  if (!ReadCheckpointShape(checkpoint, &entities, &relations)) {
    result.AddCheck("serving checkpoint exists", false, checkpoint);
    return result;
  }
  const std::vector<kge::ServeRequest> traffic =
      MakeServeTraffic(args, entities, relations, 200000);
  std::vector<Sampled> sampled;

  const size_t rounds = spec.rounds;
  size_t cursor = rounds;  // traffic[0..rounds) are the set-up probes
  auto take = [&](size_t count) {
    std::vector<kge::ServeRequest> slice(
        traffic.begin() + long(cursor), traffic.begin() + long(cursor + count));
    cursor += count;
    return slice;
  };
  // Every latency sample of the run, with the requests they answer.
  std::vector<Outcome> timed;
  std::vector<kge::ServeRequest> timed_requests;
  auto keep_timed = [&](std::vector<Outcome>* phase,
                        const std::vector<kge::ServeRequest>& requests) {
    for (Outcome& o : *phase) {
      o.index += timed_requests.size();
      timed.push_back(std::move(o));
    }
    timed_requests.insert(timed_requests.end(), requests.begin(),
                          requests.end());
  };

  // ---- Rounds: launch kge_serve, time it to its first OK reply, measure
  // one round of traffic on it, stop it. Spreading the measurement over
  // the launches puts a slow spell of the host into one round, not into
  // the whole figure.
  Phase* setup_phase = result.AddPhase("setup_probes");
  std::vector<double> setup_seconds;
  std::vector<double> window_rates;
  double peak_rss = 0.0;
  int unclean_exits = 0;
  size_t connection_errors = 0;
  const CpuJiffies cpu0 = ReadCpuJiffies();
  for (size_t round = 0; round < rounds; ++round) {
    ServerProcess server;
    ++setup_phase->attempted;
    double seconds = 0.0;
    Sampled first;
    std::string error;
    if (!LaunchAndProbe(args, spec, traffic[round], &server, &seconds, &first,
                        &error)) {
      ++setup_phase->failed;
      result.AddCheck("kge_serve starts and answers", false, error);
      return result;
    }
    setup_seconds.push_back(seconds);
    sampled.push_back(std::move(first));
    const int port = server.port();
    std::string tag = ".";
    tag += std::to_string(round);

    if (spec.open_loop) {
      // Latency at the fixed offered rate, timed from each due time, in
      // two halves on either side of the saturated phase, so the samples
      // span the whole round...
      const size_t count = std::max(
          (kOpenLoopReplies + rounds - 1) / rounds,
          size_t(kFixedRatePerS * 0.5 * args.seconds / double(rounds)));
      auto open_loop_half = [&](size_t half, size_t n) {
        const std::vector<kge::ServeRequest> requests = take(n);
        std::vector<char> keep(n, 0);
        for (size_t i = 0; i < n; i += std::max<size_t>(n / 4, 1)) keep[i] = 1;
        std::vector<Outcome> phase;
        RunOpenLoop(port, requests,
                    PoissonSchedule(n, kFixedRatePerS,
                                    kArrivalTraceSeed + 2 * round + half),
                    connections, keep, &phase);
        const PhaseStats stats = Summarize(phase);
        std::string name = "open_loop" + tag;
        name += half == 0 ? ".a" : ".b";
        CountPhase(&result, name, stats);
        connection_errors += stats.io_errors;
        keep_timed(&phase, requests);
      };
      open_loop_half(0, count / 2);

      // ...and the saturated rate of four closed-loop connections.
      std::vector<Outcome> closed;
      RunClosedLoop(port, take(4000), connections, 0.3 * args.seconds, 20, 0,
                    &closed);
      const PhaseStats saturated = Summarize(closed);
      CountPhase(&result, "closed_loop" + tag, saturated);
      connection_errors += saturated.io_errors;
      const std::vector<double> rates = WindowRates(saturated);
      window_rates.insert(window_rates.end(), rates.begin(), rates.end());
      open_loop_half(1, count - count / 2);
    } else {
      // Four closed-loop callers; one round's share of the run and of the
      // replies.
      const std::vector<kge::ServeRequest> requests = take(40000);
      std::vector<Outcome> phase;
      RunClosedLoop(port, requests, connections, args.seconds / double(rounds),
                    (kMinReplies + rounds - 1) / rounds, 25, &phase);
      const PhaseStats stats = Summarize(phase);
      CountPhase(&result, "closed_loop" + tag, stats);
      connection_errors += stats.io_errors;
      const std::vector<double> rates = WindowRates(stats);
      window_rates.insert(window_rates.end(), rates.begin(), rates.end());
      keep_timed(&phase, requests);
    }
    peak_rss = std::max(peak_rss, PeakRssMib(server.pid()));
    if (server.Stop() != 0) ++unclean_exits;
  }
  const CpuJiffies cpu1 = ReadCpuJiffies();

  const PhaseStats timed_stats = Summarize(timed);
  KeepSamples(timed, timed_requests, &sampled);
  const double p50 = Quantile(timed_stats.latency_ms, 0.5);
  const double p90 = Quantile(timed_stats.latency_ms, 0.9);
  const double p95 = Quantile(timed_stats.latency_ms, 0.95);
  const double throughput = Median(window_rates);

  // ---- Checks against the oracle -------------------------------------
  result.AddCheck("kge_serve exits cleanly on SIGTERM", unclean_exits == 0,
                  std::to_string(unclean_exits) + " unclean exits");
  kge::Result<std::unique_ptr<kge::KgeModel>> model = kge::MakeModelByName(
      kModelName, entities, relations, kDimBudget, kCheckpointSeed);
  const kge::Status loaded =
      model.ok() ? kge::LoadModelCheckpoint(model->get(), checkpoint)
                 : model.status();
  QuaternionParams params;
  std::string error;
  double agreement = 0.0;
  if (!loaded.ok() || !ViewQuaternionParams(**model, &params, &error)) {
    result.AddCheck("oracle reads the checkpoint", false,
                    loaded.ok() ? error : loaded.ToString());
  } else {
    std::vector<std::string> why(sampled.size());
    std::vector<char> ok(sampled.size(), 0);
    ParallelFor(sampled.size(), connections, [&](size_t i) {
      const kge::ServeRequest& r = sampled[i].request;
      ok[i] = CheckTopK(params, r.entity, r.relation,
                        r.side == kge::QuerySide::kTail, r.k,
                        sampled[i].results, 1e-5, &why[i]);
    });
    size_t bad = 0;
    std::string first_reason;
    for (size_t i = 0; i < sampled.size(); ++i) {
      if (!ok[i]) {
        if (bad == 0) first_reason = why[i];
        ++bad;
      }
    }
    result.AddCheck("top-k replies match the brute-force oracle",
                    bad == 0 && !sampled.empty(),
                    std::to_string(bad) + " of " +
                        std::to_string(sampled.size()) + " differ " +
                        first_reason);
    result.AddFigure("oracle_checked_replies", double(sampled.size()));
    if (!sampled.empty()) {
      agreement = double(sampled.size() - bad) / double(sampled.size());
    }
  }
  result.AddCheck("every reply OK with k ordered entries",
                  result.Failed() == 0,
                  std::to_string(result.Failed()) + " failed");

  // ---- Report -----------------------------------------------------------
  result.AddMetric("setup_s", Median(setup_seconds), "s");
  result.AddMetric("peak_rss_mb", peak_rss, "MiB");
  result.AddMetric("throughput_per_s", throughput, "1/s");
  result.AddMetric("latency_p50_ms", p50, "ms");
  // Exact serving: the share of checked replies equal to the oracle's.
  result.AddMetric("answer_quality", agreement, "ratio");

  result.AddFigure("serve_p50_ms", p50);
  result.AddFigure("serve_p90_ms", p90);
  result.AddFigure("serve_p95_ms", p95);
  result.AddFigure("latency_samples", double(timed_stats.latency_ms.size()));
  result.AddFigure(spec.open_loop ? "closed_loop_qps" : "serve_closed_qps",
                   throughput);
  if (spec.open_loop) result.AddFigure("offered_rate_per_s", kFixedRatePerS);
  for (size_t r = 0; r < setup_seconds.size(); ++r) {
    result.AddFigure("setup_s." + std::to_string(r), setup_seconds[r]);
  }
  result.AddFigure("connections", connections);
  result.AddFigure("connection_errors", double(connection_errors));
  if (spec.open_loop) {
    result.AddFigure("generator_lag_p50_ms", Quantile(timed_stats.lag_ms, 0.5));
    result.AddFigure("generator_lag_max_ms", Quantile(timed_stats.lag_ms, 1.0));
  }
  result.AddFigure("steal_share", StealShare(cpu0, cpu1));
  return result;
}

}  // namespace kgebench
