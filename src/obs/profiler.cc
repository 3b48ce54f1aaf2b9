#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace turl {
namespace obs {

struct Profiler::Agg {
  Agg() : durations(Histogram::DefaultLatencyBucketsMs()) {}
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  Histogram durations;
};

Profiler::Profiler() = default;

Profiler& Profiler::Get() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

void Profiler::SetEnabled(bool on) {
  internal::SetSpanSink(kProfileSink, on);
}

void Profiler::Record(const char* name, double total_ms, double self_ms) {
  Agg* agg;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = spans_[name];
    if (!slot) slot = std::make_unique<Agg>();
    agg = slot.get();
    ++agg->count;
    agg->total_ms += total_ms;
    agg->self_ms += self_ms;
  }
  // The histogram has its own mutex; no need to hold the map lock.
  agg->durations.Observe(total_ms);
}

std::vector<SpanStats> Profiler::Report() const {
  std::vector<SpanStats> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(spans_.size());
  for (const auto& [name, agg] : spans_) {
    SpanStats s;
    s.name = name;
    s.count = agg->count;
    s.total_ms = agg->total_ms;
    s.self_ms = agg->self_ms;
    s.p50_ms = agg->durations.Percentile(0.5);
    s.p95_ms = agg->durations.Percentile(0.95);
    s.max_ms = agg->durations.max();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

std::string Profiler::ReportTable() const {
  std::vector<SpanStats> report = Report();
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %10s %12s %12s %10s %10s %10s\n",
                "span", "count", "total_ms", "self_ms", "p50_ms", "p95_ms",
                "max_ms");
  out << line;
  for (const SpanStats& s : report) {
    std::snprintf(line, sizeof(line),
                  "%-32s %10lld %12.2f %12.2f %10.4f %10.4f %10.4f\n",
                  s.name.c_str(), static_cast<long long>(s.count), s.total_ms,
                  s.self_ms, s.p50_ms, s.p95_ms, s.max_ms);
    out << line;
  }
  return out.str();
}

std::string Profiler::ReportJson() const {
  std::vector<SpanStats> report = Report();
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < report.size(); ++i) {
    const SpanStats& s = report[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << JsonEscape(s.name)
        << "\",\"count\":" << s.count
        << ",\"total_ms\":" << JsonDouble(s.total_ms)
        << ",\"self_ms\":" << JsonDouble(s.self_ms)
        << ",\"p50_ms\":" << JsonDouble(s.p50_ms)
        << ",\"p95_ms\":" << JsonDouble(s.p95_ms)
        << ",\"max_ms\":" << JsonDouble(s.max_ms) << '}';
  }
  out << ']';
  return out.str();
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool WriteObsJson(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "{\"spans\":" << Profiler::Get().ReportJson()
      << ",\"metrics\":" << MetricsRegistry::Get().ToJson() << "}\n";
  return out.good();
}

}  // namespace obs
}  // namespace turl
