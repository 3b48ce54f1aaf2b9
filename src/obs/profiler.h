#ifndef TURL_OBS_PROFILER_H_
#define TURL_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace turl {
namespace obs {

/// Aggregated statistics for one span name across all executions and threads.
/// `total_ms` includes time spent in nested child spans; `self_ms` excludes
/// it, so a flame-style breakdown sums `self_ms` to wall time.
struct SpanStats {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
};

/// Process-wide span profiler: the by-name aggregate sink of TraceSpan /
/// TURL_TRACE_SCOPE (trace.h). Nesting is tracked per thread so parents
/// learn how much of their time was spent in children.
///
/// Disabled by default; a span then costs one relaxed atomic load and a
/// branch (shared with the tracer's switch). Enable programmatically with
/// SetEnabled(true) or via the environment: TURL_PROFILE=1 enables at
/// process start, TURL_PROFILE=0 pins it off (the kill switch benches
/// respect); any other value warns and keeps the default.
class Profiler {
 public:
  static Profiler& Get();

  static bool Enabled() { return (SpanSinks() & kProfileSink) != 0; }
  /// SetEnabled(true) is a no-op when the environment pinned profiling off.
  static void SetEnabled(bool on);

  /// Folds one finished span execution into the aggregate for `name`.
  void Record(const char* name, double total_ms, double self_ms);

  /// Aggregates sorted by total_ms descending.
  std::vector<SpanStats> Report() const;
  /// Human-readable span table (header + one line per span).
  std::string ReportTable() const;
  /// [{"name":...,"count":...,"total_ms":...,"self_ms":...,"p50_ms":...,
  ///   "p95_ms":...,"max_ms":...}, ...] sorted by total_ms descending.
  std::string ReportJson() const;
  void Reset();

 private:
  struct Agg;
  Profiler();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Agg>> spans_;
};

/// Writes {"spans":[...],"metrics":{...}} (span report + the global
/// MetricsRegistry) to `path`. Returns false if the file cannot be written.
bool WriteObsJson(const std::string& path);

}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_PROFILER_H_
