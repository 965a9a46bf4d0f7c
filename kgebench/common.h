// Shared plumbing for the kgebench runner: run arguments, the result
// and report objects every workload fills, a small JSON writer, the
// benchmark's own seeded random numbers, order statistics, and the host
// probes (/proc) that make each run report itself.
#ifndef KGEBENCH_COMMON_H_
#define KGEBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <deque>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kgebench {

// Command-line arguments of one run (see main.cc for the flags).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Short sizes for a quick end-to-end pass; not comparable to full runs.
  bool smoke = false;
  // Cached program-written inputs (datasets, checkpoints).
  std::string inputs_dir = ".bench_build/inputs";
  // Directory holding the built kge_serve / kge_datagen binaries.
  std::string tools_dir = ".bench_build/cmake/kge/tools";
  // Where the traced run writes its span file.
  std::string out_dir = ".bench_build/runs";
  // Identifies the measured source tree (git commit or content digest).
  std::string source_id = "unknown";
};

// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Operations attempted and failed in one phase of a run.
struct Phase {
  std::string name;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// One correctness check against the oracle or a stated property.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Everything a workload reports. `metrics` become the final JSON line;
// the rest is printed on the report line before it.
struct RunResult {
  std::vector<Metric> metrics;
  std::deque<Phase> phases;  // stable addresses for AddPhase callers
  std::vector<Check> checks;
  // Named figures for the report line (workload quantities such as
  // train_triples_per_s, generator lag, steal share).
  std::vector<std::pair<std::string, double>> figures;

  void AddMetric(const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddFigure(const std::string& name, double value) {
    figures.emplace_back(name, value);
  }
  void AddCheck(const std::string& name, bool ok,
                const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
  Phase* AddPhase(const std::string& name) {
    phases.push_back({name, 0, 0});
    return &phases.back();
  }
  bool AllChecksPassed() const;
  int64_t Attempted() const;
  int64_t Failed() const;
};

// ---- JSON ------------------------------------------------------------

// Minimal append-only JSON writer: callers emit keys and values in
// order; commas are inserted automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  const std::string& str() const { return out_; }

 private:
  void Separate();
  std::string out_;
  std::vector<bool> first_;  // per open container: no element yet
  bool after_key_ = false;
};

// Prints the report line and then the final result line on stdout.
void PrintRun(const RunArgs& args, const RunResult& result);

// ---- Random numbers (independent of the program's kge::Rng) -----------

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound);
  // Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

// Derives an independent stream seed for `purpose` from the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t purpose);

// ---- Order statistics -------------------------------------------------

// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// ---- Time ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- Host probes ------------------------------------------------------

// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB; -1 if
// unreadable.
double PeakRssMib(pid_t pid = 0);

// Aggregate CPU jiffies from /proc/stat, to compute the steal share of a
// measured interval.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
// Steal as a share of all CPU time between two readings (0 if unknown).
double StealShare(const CpuJiffies& begin, const CpuJiffies& end);

// CPU model name from /proc/cpuinfo.
std::string CpuModel();

}  // namespace kgebench

#endif  // KGEBENCH_COMMON_H_
