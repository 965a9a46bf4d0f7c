#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"

namespace kgebench {
namespace {

// Open span ids of the calling thread, innermost last.
thread_local std::vector<int> t_open_spans;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = name;
  record.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  std::lock_guard<std::mutex> lock(mutex_);
  record.start_ns = NowNanos();
  spans_.push_back(std::move(record));
  const int id = int(spans_.size() - 1);
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNanos();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(id)].end_ns = now;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return double(total) * 1e-9;
}

double Tracer::LastSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = spans_.size(); i > 0; --i) {
    const SpanRecord& span = spans_[i - 1];
    if (span.name == name) return double(span.end_ns - span.start_ns) * 1e-9;
  }
  return 0.0;
}

double Tracer::LastSelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = spans_.size(); i > 0; --i) {
    const SpanRecord& span = spans_[i - 1];
    if (span.name != name) continue;
    int64_t children = 0;
    for (size_t j = i; j < spans_.size(); ++j) {
      if (spans_[j].parent == int(i - 1)) {
        children += spans_[j].end_ns - spans_[j].start_ns;
      }
    }
    return double(span.end_ns - span.start_ns - children) * 1e-9;
  }
  return 0.0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::map<std::string, double> self_seconds;
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[size_t(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  JsonWriter json;
  json.BeginObject().Key("spans").BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    json.BeginObject();
    json.Key("id").Int(int64_t(i));
    json.Key("name").String(span.name);
    json.Key("start_ns").Int(span.start_ns - origin);
    json.Key("end_ns").Int(span.end_ns - origin);
    json.Key("parent").Int(span.parent);
    json.EndObject();
    self_seconds[span.name] +=
        double(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  json.EndArray();
  json.Key("self_seconds").BeginObject();
  for (const auto& [name, seconds] : self_seconds) {
    json.Key(name).Number(seconds);
  }
  json.EndObject().EndObject();

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok =
      std::fwrite(json.str().data(), 1, json.str().size(), file) ==
      json.str().size();
  return std::fclose(file) == 0 && ok;
}

ScopedSpan::ScopedSpan(const char* name)
    : id_(Tracer::Get().Begin(name)), start_ns_(NowNanos()) {}

ScopedSpan::~ScopedSpan() { Tracer::Get().End(id_); }

double ScopedSpan::Seconds() const {
  return double(NowNanos() - start_ns_) * 1e-9;
}

double MeasureSpanCostSeconds(int pairs) {
  Tracer probe;
  probe.Enable();
  const int64_t start = NowNanos();
  for (int i = 0; i < pairs; ++i) probe.End(probe.Begin("probe"));
  return double(NowNanos() - start) * 1e-9 / double(std::max(pairs, 1));
}

}  // namespace kgebench
