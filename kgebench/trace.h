// In-memory span recorder for the traced run. Spans are opened and
// closed by the benchmark's own code around calls into the program's
// public functions; nothing inside the program is instrumented. Each span
// has a name, start, end and parent (the innermost open span on the same
// thread). Spans stay in memory and are written out as JSON when the run
// ends.
#ifndef KGEBENCH_TRACE_H_
#define KGEBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace kgebench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
};

class Tracer {
 public:
  // The process-wide recorder. Disabled (every call a no-op returning
  // -1) until Enable().
  static Tracer& Get();

  void Enable() { enabled_ = true; }

  // Opens a span on the calling thread; returns its id (-1 if disabled).
  int Begin(const char* name);
  void End(int id);

  // Sum of the durations of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  // Duration and self time (duration minus the part covered by direct
  // children) of the last span called `name`; 0 if there is none.
  double LastSeconds(const std::string& name) const;
  double LastSelfSeconds(const std::string& name) const;
  size_t size() const;

  // Writes {"spans": [...], "self_seconds": {name: s}} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  bool enabled_ = false;
};

// RAII span. Also times itself, so callers read the duration whether or
// not tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Seconds since the span opened.
  double Seconds() const;

 private:
  int id_;
  int64_t start_ns_;
};

// Cost of one Begin/End pair, measured by timing `pairs` empty spans on
// a throwaway tracer (for the reported tracing overhead).
double MeasureSpanCostSeconds(int pairs);

}  // namespace kgebench

#endif  // KGEBENCH_TRACE_H_
