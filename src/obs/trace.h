#ifndef TURL_OBS_TRACE_H_
#define TURL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/seqlock.h"

namespace turl {
namespace obs {

/// Spans and request-scoped tracing
/// ==================================
/// TraceSpan (TURL_TRACE_SCOPE) is the one scoped span. It records into two
/// sinks, chosen when it opens:
///   * the Profiler (profiler.h) while profiling is on — a by-name
///     aggregate with self time split from nested spans on the same thread,
///     answering "how fast is span X on average";
///   * the calling thread's trace ring while its TraceContext is traced —
///     answering "where did *this* request spend its time". Every inference
///     request (and every training step) carries a TraceContext — a trace id
///     plus the span id to parent children under — through the queue →
///     micro-batch → parallel-encode → score pipeline, and each span records
///     its parent link, thread id and key/value annotations (batch size,
///     token budget, task head, ...). A sampled request's trace therefore
///     holds its pipeline stages and, nested under them, the model, op and
///     kernel spans that ran on its behalf.
///
/// Trace events land in per-thread SeqlockRings (oldest overwritten first)
/// drained by the TraceCollector. Two exporters read them: Chrome
/// trace-event JSON (`TURL_TRACE_JSON=trace.json`, loadable in
/// chrome://tracing or Perfetto) and an aligned "slowest N requests with
/// per-stage breakdown" table printed by benches.
///
/// With both sinks off, entering a span is inline: one relaxed atomic load
/// and a branch, so instrumentation is safe always-on — even per op and per
/// kernel. Sampling (`TURL_TRACE_SAMPLE=1/N`) bounds the traced cost on
/// high-rate services; an unsampled request carries an empty context and
/// its spans skip the trace sink.
///
/// Environment:
///   TURL_TRACE=0|1      1 enables at process start; 0 pins off; any
///                       other value warns and keeps the default (off).
///   TURL_TRACE_JSON=p   enable (unless TURL_TRACE=0) and write Chrome
///                       trace JSON to `p` at exit.
///   TURL_TRACE_SAMPLE=1/N  keep ~1 in N traces (deterministic, seeded).
///   TURL_TRACE_BUFFER=N    per-thread ring capacity in events, 2..1048576
///                          (default 16384).
/// (TURL_PROFILE=0|1 is the Profiler's switch; see profiler.h.)

/// The sinks a span records into, one bit each in the word SpanSinks()
/// reads. Profiler::SetEnabled and Tracer::SetEnabled flip their bit.
enum SpanSink : uint32_t { kProfileSink = 1u, kTraceSink = 2u };

namespace internal {
extern std::atomic<uint32_t> g_span_sinks;
/// Turns `sink` on or off; turning on is a no-op when its environment
/// switch pinned it off.
void SetSpanSink(SpanSink sink, bool on);
}  // namespace internal

/// The sinks currently on — one relaxed load.
inline uint32_t SpanSinks() {
  return internal::g_span_sinks.load(std::memory_order_relaxed);
}

/// Identity of one traced request: the trace id plus the span new children
/// parent under. A default-constructed context is "not traced" (disabled or
/// unsampled) and makes every span operation under it a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  ///< Parent span for children opened under this context.
  bool traced() const { return trace_id != 0; }
};

/// One key/value annotation. The value is formatted into a short inline
/// buffer so events stay trivially copyable inside the seqlock ring. The
/// buffer is deliberately NOT zero-initialized — spans are constructed on
/// the disabled-tracing fast path, and only annotations[0, n_annotations)
/// are ever read (Annotate always NUL-terminates).
struct TraceAnnotation {
  const char* key = nullptr;  ///< Static string (outlives the tracer).
  char value[24];
};

/// One completed span as stored in the ring and handed to exporters.
/// Times are microseconds since the tracer's epoch (steady clock).
struct TraceEvent {
  const char* name = nullptr;  ///< Static string (outlives the tracer).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root span of its trace.
  double start_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;  ///< Dense per-thread id assigned at ring creation.
  uint32_t n_annotations = 0;
  TraceAnnotation annotations[4];
};

/// An open trace span: allocated by Tracer::Begin, closed by Tracer::End.
/// Plain data, so it can live inside a request struct and begin/end at
/// different call sites — or different threads, which is why it feeds the
/// trace ring only (the Profiler's self-time stack is per thread).
struct ActiveSpan {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::chrono::steady_clock::time_point start;
  uint32_t n_annotations = 0;
  TraceAnnotation annotations[4];

  bool traced() const { return trace_id != 0; }
  /// Context that parents children under this span.
  TraceContext context() const { return TraceContext{trace_id, span_id}; }
  /// No-ops on an untraced span; extra annotations beyond 4 are dropped.
  void Annotate(const char* key, const char* value);
  void Annotate(const char* key, int64_t value);
};

/// The per-thread trace-event ring (see SeqlockRing).
using TraceRing = SeqlockRing<TraceEvent>;

/// Snapshot order for trace events: by start time, then span id.
struct TraceEventOrder {
  bool operator()(const TraceEvent& a, const TraceEvent& b) const {
    return a.start_us != b.start_us ? a.start_us < b.start_us
                                    : a.span_id < b.span_id;
  }
};

/// One TraceRing per thread that ever recorded a span (a RingRegistry),
/// drained for the exporters.
using TraceCollector = RingRegistry<TraceEvent, TraceEventOrder>;

/// Process-wide tracer: enable switch, sampler, id allocation and the
/// collector. See the file comment for the environment knobs.
class Tracer {
 public:
  static Tracer& Get();

  static bool Enabled() { return (SpanSinks() & kTraceSink) != 0; }
  /// SetEnabled(true) is a no-op when TURL_TRACE=0 pinned tracing off.
  static void SetEnabled(bool on);

  /// Keep ~1 in `period` traces; decisions are a deterministic hash of
  /// (seed, trace sequence number), so a fixed seed replays the same
  /// sampled set. Resets the sequence. period <= 1 keeps everything.
  void SetSampler(uint64_t period, uint64_t seed);

  /// Allocates a new sampled trace; the context is untraced when tracing is
  /// disabled or the sampler skipped this request.
  TraceContext StartTrace();

  /// Opens a span under `parent` (untraced parent -> untraced span).
  ActiveSpan Begin(const char* name, TraceContext parent);
  /// StartTrace + Begin: the returned span is the root of a new trace.
  ActiveSpan BeginTrace(const char* name);
  /// Closes the span now and records it to the calling thread's ring.
  void End(ActiveSpan* span);
  /// Records a span with explicit endpoints — for stages reconstructed
  /// after the fact, like queue-wait (enqueue -> drain).
  void RecordManual(const char* name, TraceContext parent,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    std::initializer_list<std::pair<const char*, int64_t>>
                        annotations = {});

  TraceCollector& collector() { return collector_; }
  /// Microseconds since the tracer's epoch.
  double ToMicros(std::chrono::steady_clock::time_point t) const;

 private:
  friend class TraceSpan;
  Tracer();
  /// Records the traced `span`, ended at `end`, to the calling thread's
  /// ring.
  void Push(const ActiveSpan& span, std::chrono::steady_clock::time_point end);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> trace_seq_{0};
  std::atomic<uint64_t> sample_period_{1};
  std::atomic<uint64_t> sample_seed_{0};
  TraceCollector collector_;
};

/// The calling thread's current context — what spans with no explicit
/// parent nest under. Untraced outside any TraceContextScope/TraceSpan.
TraceContext CurrentTraceContext();

/// RAII: installs a request's context as the thread's current context (the
/// cross-thread handoff — e.g. a pool worker adopting the identity of the
/// request whose table it encodes) and restores the previous on exit.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
  bool installed_ = false;
};

/// Tag selecting the TraceSpan constructor that opens a new trace.
struct NewTraceTag {};
inline constexpr NewTraceTag kNewTrace{};

/// RAII span — the one scoped span (see the file comment). It opens in
/// the sinks that are on: the Profiler while profiling is on, and the trace
/// ring while the span is traced. The plain constructor nests under the
/// thread's current context; the kNewTrace constructor starts a new sampled
/// trace with this span as root. A traced span is the thread's current
/// context for its scope. A span closes in every sink it opened in, even
/// if that sink is disabled while it is open.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : sinks_(SpanSinks()) {
    if (sinks_ != 0) Open(name, /*new_trace=*/false);
  }
  TraceSpan(NewTraceTag, const char* name) : sinks_(SpanSinks()) {
    if (sinks_ != 0) Open(name, /*new_trace=*/true);
  }
  ~TraceSpan() {
    if (sinks_ != 0) Close();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool traced() const { return (sinks_ & kTraceSink) != 0; }
  TraceContext context() const {
    return traced() ? open_.span.context() : TraceContext();
  }
  void Annotate(const char* key, const char* value) {
    if (traced()) open_.span.Annotate(key, value);
  }
  void Annotate(const char* key, int64_t value) {
    if (traced()) open_.span.Annotate(key, value);
  }

 private:
  /// Opens in the sinks_ that take the span (clearing the trace bit when
  /// the context is untraced).
  void Open(const char* name, bool new_trace);
  void Close();

  struct OpenState {
    ActiveSpan span;    ///< name and start serve both sinks; ids if traced.
    TraceContext prev;  ///< Thread context to restore, if traced.
  };

  uint32_t sinks_;  ///< The sinks the span is open in; 0 = no-op.
  /// Constructed by Open() only, so a span with both sinks off never
  /// touches it.
  union {
    OpenState open_;
  };
};

/// Parses a TURL_TRACE_SAMPLE value: "1/N" or "N" with N in [1, INT_MAX]
/// -> N; empty -> 1 (keep everything); anything else warns and returns 1.
uint64_t ParseSamplePeriod(const char* value);

/// The collected events as Chrome trace-event JSON ({"traceEvents":[...]},
/// "X" complete events with ts/dur in microseconds; args carry trace/span/
/// parent ids and the annotations; "M" metadata events name the threads).
/// `last_n` > 0 keeps only the most recent N events by start time — the
/// bounded slice /tracez serves; 0 exports everything retained.
std::string ChromeTraceJson(size_t last_n = 0);
/// Writes ChromeTraceJson() to `path`; false if the file cannot be written.
bool WriteChromeTrace(const std::string& path);

/// Aligned table of the slowest `n` root spans with per-stage breakdown:
/// one line per request (trace id, root name, total ms) followed by the
/// summed duration of its top-level stages grouped by name. A span whose
/// parent is another non-root span of the trace gets no column: its time
/// is already inside its parent's.
std::string SlowTraceReport(size_t n = 10);

}  // namespace obs
}  // namespace turl

#define TURL_TRACE_CONCAT_INNER(a, b) a##b
#define TURL_TRACE_CONCAT(a, b) TURL_TRACE_CONCAT_INNER(a, b)

/// Times the enclosing scope as a TraceSpan: into the Profiler while
/// profiling is on, and as a child of the thread's current trace context
/// while that is traced (one load and a branch when both are off). `name`
/// must be a string literal.
#define TURL_TRACE_SCOPE(name) \
  ::turl::obs::TraceSpan TURL_TRACE_CONCAT(turl_trace_scope_, __LINE__)(name)

#endif  // TURL_OBS_TRACE_H_
