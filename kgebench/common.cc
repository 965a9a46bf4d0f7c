#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "math/simd.h"

namespace kgebench {

bool RunResult::AllChecksPassed() const {
  if (checks.empty()) return false;
  for (const Check& check : checks) {
    if (!check.ok) return false;
  }
  return true;
}

int64_t RunResult::Attempted() const {
  int64_t total = 0;
  for (const Phase& phase : phases) total += phase.attempted;
  return total;
}

int64_t RunResult::Failed() const {
  int64_t total = 0;
  for (const Phase& phase : phases) total += phase.failed;
  return total;
}

// ---- JSON ------------------------------------------------------------

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  String(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Separate();
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out_ += buffer;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

void PrintRun(const RunArgs& args, const RunResult& result) {
  bool metrics_finite = true;
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) metrics_finite = false;
  }
  const bool correct = metrics_finite && result.AllChecksPassed();

  JsonWriter report;
  report.BeginObject().Key("report").BeginObject();
  report.Key("workload").String(args.workload);
  report.Key("seed").Int(int64_t(args.seed));
  report.Key("seconds").Number(args.seconds);
  report.Key("trace").Bool(args.trace);
  report.Key("smoke").Bool(args.smoke);
  report.Key("host").BeginObject();
  report.Key("cpu").String(CpuModel());
  report.Key("nproc").Int(int64_t(std::thread::hardware_concurrency()));
  report.Key("isa").String(kge::simd::IsaName());
  report.Key("compiler").String(__VERSION__);
  report.Key("source").String(args.source_id);
  report.EndObject();
  report.Key("phases").BeginArray();
  for (const Phase& phase : result.phases) {
    report.BeginObject();
    report.Key("name").String(phase.name);
    report.Key("attempted").Int(phase.attempted);
    report.Key("failed").Int(phase.failed);
    report.EndObject();
  }
  report.EndArray();
  report.Key("checks").BeginArray();
  for (const Check& check : result.checks) {
    report.BeginObject();
    report.Key("name").String(check.name);
    report.Key("ok").Bool(check.ok);
    if (!check.detail.empty()) report.Key("detail").String(check.detail);
    report.EndObject();
  }
  report.EndArray();
  report.Key("figures").BeginObject();
  for (const auto& [name, value] : result.figures) {
    report.Key(name).Number(value);
  }
  report.EndObject();
  report.EndObject().EndObject();
  std::printf("%s\n", report.str().c_str());

  JsonWriter final_line;
  final_line.BeginObject();
  final_line.Key("correct").Bool(correct);
  final_line.Key("attempted").Int(std::max<int64_t>(result.Attempted(), 1));
  final_line.Key("failed").Int(result.Failed());
  final_line.Key("metrics").BeginObject();
  for (const Metric& metric : result.metrics) {
    final_line.Key(metric.name).BeginObject();
    final_line.Key("value").Number(metric.value);
    final_line.Key("unit").String(metric.unit);
    final_line.EndObject();
  }
  final_line.EndObject().EndObject();
  std::printf("%s\n", final_line.str().c_str());
  std::fflush(stdout);
}

// ---- Random numbers ---------------------------------------------------

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix64::Below(uint64_t bound) {
  // Lemire-style multiply-shift; the bias is < bound / 2^64, negligible
  // for traffic generation.
  return uint64_t((unsigned __int128)Next() * bound >> 64);
}

double SplitMix64::Unit() { return double(Next() >> 11) * 0x1.0p-53; }

uint64_t StreamSeed(uint64_t seed, uint64_t purpose) {
  SplitMix64 mix(seed * 0x100000001B3ULL + purpose);
  mix.Next();
  return mix.Next();
}

// ---- Order statistics -------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const size_t lo = size_t(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - double(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---- Host probes ------------------------------------------------------

double PeakRssMib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(int(pid)) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1.0;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

double StealShare(const CpuJiffies& begin, const CpuJiffies& end) {
  if (end.total <= begin.total) return 0.0;
  return double(end.steal - begin.steal) / double(end.total - begin.total);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace kgebench
