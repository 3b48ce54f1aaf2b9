#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace obs {

namespace {

/// TURL_TRACE=1 (or a TURL_TRACE_JSON path) enables tracing from process
/// start; TURL_TRACE=0 pins it off even against SetEnabled(true).
EnvSwitch TraceSwitch() {
  const EnvSwitch value = ReadEnvSwitch("TURL_TRACE");
  const char* path = std::getenv("TURL_TRACE_JSON");
  if (value == EnvSwitch::kUnset && path != nullptr && *path != '\0') {
    return EnvSwitch::kOn;
  }
  return value;
}

/// Each sink's environment switch, read once at start: TURL_PROFILE for
/// the Profiler, TURL_TRACE for the tracer.
const EnvSwitch g_profile_env = ReadEnvSwitch("TURL_PROFILE");
const EnvSwitch g_trace_env = TraceSwitch();

uint32_t SinksWithSwitch(EnvSwitch value) {
  return (g_profile_env == value ? kProfileSink : 0u) |
         (g_trace_env == value ? kTraceSink : 0u);
}

/// splitmix64 — the sampling hash; decisions depend only on (seed, seq).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

thread_local TraceContext tls_context;

/// Per-thread accumulator of child-span time for the Profiler sink: one
/// slot per span open in it on this thread; a closing span pops its slot
/// and adds its duration to the parent's.
thread_local std::vector<double> tls_child_ms;

void FormatAnnotationValue(char (&buf)[24], int64_t v) {
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
}

}  // namespace

namespace internal {

std::atomic<uint32_t> g_span_sinks{SinksWithSwitch(EnvSwitch::kOn)};

void SetSpanSink(SpanSink sink, bool on) {
  if (!on) {
    g_span_sinks.fetch_and(~uint32_t(sink), std::memory_order_relaxed);
  } else if ((SinksWithSwitch(EnvSwitch::kOff) & sink) == 0) {
    g_span_sinks.fetch_or(sink, std::memory_order_relaxed);
  }
}

}  // namespace internal

void ActiveSpan::Annotate(const char* key, const char* value) {
  if (!traced() || n_annotations >= 4) return;
  TraceAnnotation& a = annotations[n_annotations++];
  a.key = key;
  std::snprintf(a.value, sizeof(a.value), "%s", value);
}

void ActiveSpan::Annotate(const char* key, int64_t value) {
  if (!traced() || n_annotations >= 4) return;
  TraceAnnotation& a = annotations[n_annotations++];
  a.key = key;
  FormatAnnotationValue(a.value, value);
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      collector_("TURL_TRACE_BUFFER", 16384) {
  if (const char* v = std::getenv("TURL_TRACE_SAMPLE")) {
    SetSampler(ParseSamplePeriod(v), /*seed=*/0);
  }
  if (const char* path = std::getenv("TURL_TRACE_JSON")) {
    if (*path != '\0') {
      static std::string* exit_path = new std::string(path);
      std::atexit(+[] {
        if (!WriteChromeTrace(*exit_path)) {
          std::fprintf(stderr, "turl::obs: cannot write trace to %s\n",
                       exit_path->c_str());
        }
      });
    }
  }
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool on) {
  if (on && g_trace_env == EnvSwitch::kOff) return;
  if (on) Get();  // Materialize env config (sampler, exporter) up front.
  internal::SetSpanSink(kTraceSink, on);
}

void Tracer::SetSampler(uint64_t period, uint64_t seed) {
  sample_period_.store(period == 0 ? 1 : period, std::memory_order_relaxed);
  sample_seed_.store(seed, std::memory_order_relaxed);
  trace_seq_.store(0, std::memory_order_relaxed);
}

TraceContext Tracer::StartTrace() {
  if (!Enabled()) return TraceContext();
  const uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t period = sample_period_.load(std::memory_order_relaxed);
  if (period > 1) {
    const uint64_t seed = sample_seed_.load(std::memory_order_relaxed);
    if (Mix64(seed ^ seq) % period != 0) return TraceContext();
  }
  // Trace ids are 1-based so 0 can mean "untraced".
  return TraceContext{seq + 1, 0};
}

ActiveSpan Tracer::Begin(const char* name, TraceContext parent) {
  ActiveSpan span;
  if (!parent.traced()) return span;
  span.name = name;
  span.trace_id = parent.trace_id;
  span.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent_id = parent.span_id;
  span.start = std::chrono::steady_clock::now();
  return span;
}

ActiveSpan Tracer::BeginTrace(const char* name) {
  return Begin(name, StartTrace());
}

void Tracer::End(ActiveSpan* span) {
  if (!span->traced()) return;
  Push(*span, std::chrono::steady_clock::now());
  span->trace_id = 0;  // Ended spans record nothing twice.
}

void Tracer::RecordManual(
    const char* name, TraceContext parent,
    std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end,
    std::initializer_list<std::pair<const char*, int64_t>> annotations) {
  if (!parent.traced()) return;
  ActiveSpan span = Begin(name, parent);
  span.start = start;
  for (const auto& [key, value] : annotations) span.Annotate(key, value);
  Push(span, end);
}

void Tracer::Push(const ActiveSpan& span,
                  std::chrono::steady_clock::time_point end) {
  TraceEvent event;
  event.name = span.name;
  event.trace_id = span.trace_id;
  event.span_id = span.span_id;
  event.parent_id = span.parent_id;
  event.start_us = ToMicros(span.start);
  event.dur_us =
      std::chrono::duration<double, std::micro>(end - span.start).count();
  event.n_annotations = span.n_annotations;
  for (uint32_t i = 0; i < span.n_annotations; ++i) {
    event.annotations[i] = span.annotations[i];
  }
  TraceRing* ring = collector_.ring();
  event.tid = ring->tid();
  ring->Push(event);
}

double Tracer::ToMicros(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

TraceContext CurrentTraceContext() { return tls_context; }

TraceContextScope::TraceContextScope(TraceContext ctx) {
  if (!Tracer::Enabled() || !ctx.traced()) return;
  prev_ = tls_context;
  tls_context = ctx;
  installed_ = true;
}

TraceContextScope::~TraceContextScope() {
  if (installed_) tls_context = prev_;
}

void TraceSpan::Open(const char* name, bool new_trace) {
  ::new (&open_) OpenState();
  ActiveSpan& span = open_.span;
  if (sinks_ & kTraceSink) {
    const TraceContext parent =
        new_trace ? Tracer::Get().StartTrace() : tls_context;
    if (parent.traced()) {
      span = Tracer::Get().Begin(name, parent);
      open_.prev = tls_context;
      tls_context = span.context();
    } else {
      sinks_ &= ~uint32_t(kTraceSink);
    }
  }
  if (sinks_ & kProfileSink) {
    tls_child_ms.push_back(0.0);
    if (!span.traced()) {  // Begin stamped name and start on traced spans.
      span.name = name;
      span.start = std::chrono::steady_clock::now();
    }
  }
}

void TraceSpan::Close() {
  const auto end = std::chrono::steady_clock::now();
  const ActiveSpan& span = open_.span;
  if (sinks_ & kTraceSink) {
    tls_context = open_.prev;
    Tracer::Get().Push(span, end);
  }
  if (sinks_ & kProfileSink) {
    const double ms =
        std::chrono::duration<double, std::milli>(end - span.start).count();
    const double child_ms = tls_child_ms.back();
    tls_child_ms.pop_back();
    if (!tls_child_ms.empty()) tls_child_ms.back() += ms;
    Profiler::Get().Record(span.name, ms, ms - child_ms);
  }
}

uint64_t ParseSamplePeriod(const char* value) {
  if (value == nullptr || *value == '\0') return 1;
  const char* digits = std::strncmp(value, "1/", 2) == 0 ? value + 2 : value;
  long n = 1;  // Left as is when the value does not parse.
  if (!ParseIntInRange(digits, 1, std::numeric_limits<int>::max(), &n)) {
    TURL_LOG(Warning) << "TURL_TRACE_SAMPLE=" << value
                      << " is not N or 1/N, N in [1, INT_MAX]; keeping all";
  }
  return static_cast<uint64_t>(n);
}

std::string ChromeTraceJson(size_t last_n) {
  std::vector<TraceEvent> events = Tracer::Get().collector().Snapshot();
  if (last_n > 0 && events.size() > last_n) {
    // Snapshot is start-sorted, so the tail is the most recent activity.
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(last_n));
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  // Thread-name metadata so chrome://tracing labels the tracks.
  uint32_t max_tid = 0;
  for (const TraceEvent& e : events) max_tid = std::max(max_tid, e.tid);
  bool first = true;
  if (!events.empty()) {
    for (uint32_t tid = 0; tid <= max_tid; ++tid) {
      out << (first ? "" : ",")
          << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"turl-thread-"
          << tid << "\"}}";
      first = false;
    }
  }
  char buf[64];
  for (const TraceEvent& e : events) {
    out << (first ? "" : ",") << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\"turl\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", e.start_us,
                  e.dur_us);
    out << buf << ",\"args\":{\"trace\":\"" << e.trace_id << "\",\"span\":\""
        << e.span_id << "\",\"parent\":\"" << e.parent_id << '"';
    for (uint32_t i = 0; i < e.n_annotations; ++i) {
      out << ",\"" << JsonEscape(e.annotations[i].key) << "\":\""
          << JsonEscape(e.annotations[i].value) << '"';
    }
    out << "}}";
    first = false;
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << ChromeTraceJson() << '\n';
  return out.good();
}

std::string SlowTraceReport(size_t n) {
  const std::vector<TraceEvent> events = Tracer::Get().collector().Snapshot();

  struct TraceSummary {
    const TraceEvent* root = nullptr;
    // Top-level stage durations summed by name, insertion-ordered by first
    // appearance (pipeline order, since events are start-sorted).
    std::vector<std::pair<const char*, double>> stages;
  };
  // (trace, span) of every non-root span: a span parented under one is
  // nested inside a stage, whose duration already covers it.
  std::set<std::pair<uint64_t, uint64_t>> inner;
  for (const TraceEvent& e : events) {
    if (e.parent_id != 0) inner.emplace(e.trace_id, e.span_id);
  }
  std::map<uint64_t, TraceSummary> traces;
  for (const TraceEvent& e : events) {
    TraceSummary& t = traces[e.trace_id];
    if (e.parent_id == 0) {
      t.root = &e;
      continue;
    }
    if (inner.count({e.trace_id, e.parent_id})) continue;
    auto it = std::find_if(t.stages.begin(), t.stages.end(),
                           [&](const auto& s) {
                             return std::strcmp(s.first, e.name) == 0;
                           });
    if (it == t.stages.end()) {
      t.stages.emplace_back(e.name, e.dur_us);
    } else {
      it->second += e.dur_us;
    }
  }

  std::vector<const std::pair<const uint64_t, TraceSummary>*> rooted;
  for (const auto& entry : traces) {
    if (entry.second.root != nullptr) rooted.push_back(&entry);
  }
  std::sort(rooted.begin(), rooted.end(), [](const auto* a, const auto* b) {
    return a->second.root->dur_us > b->second.root->dur_us;
  });
  if (rooted.size() > n) rooted.resize(n);

  std::ostringstream out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "-- slowest %zu of %zu traced requests --\n", rooted.size(),
                traces.size());
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-8s %-16s %10s  %s\n", "trace", "root",
                "total_ms", "stage breakdown (ms)");
  out << buf;
  for (const auto* entry : rooted) {
    const TraceSummary& t = entry->second;
    std::snprintf(buf, sizeof(buf), "%-8" PRIu64 " %-16s %10.3f  ",
                  entry->first, t.root->name, t.root->dur_us / 1e3);
    out << buf;
    for (size_t i = 0; i < t.stages.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%s %.3f", i == 0 ? "" : " | ",
                    t.stages[i].first, t.stages[i].second / 1e3);
      out << buf;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace obs
}  // namespace turl
