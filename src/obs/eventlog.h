#ifndef TURL_OBS_EVENTLOG_H_
#define TURL_OBS_EVENTLOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/seqlock.h"

namespace turl {
namespace obs {

/// Wide-event request log
/// ======================
/// One structured record per served request — the "wide event" style of
/// observability: instead of scattering a request's story across counters,
/// a single record carries everything needed to answer "which requests are
/// burning the p99?" after the fact (id, task, replica, byte sizes, the
/// per-stage time breakdown, the deadline budget vs. what was used, the
/// final status, and the trace id linking to /tracez).
///
/// Events land in lock-light per-thread rings (SeqlockRing, oldest
/// overwritten first — the tracer's storage too) so the serve hot path pays
/// a few stores per request and never contends a global lock. /requestz
/// serves the last N events with status/task filters; TURL_EVENTLOG_JSONL
/// exports everything retained at exit.
///
/// Environment:
///   TURL_EVENTLOG=0|1      0 pins the log off (Append is a single relaxed
///                          load and a branch); 1 or unset keeps it on.
///   TURL_EVENTLOG_BUFFER=N per-thread ring capacity in events, 2..1048576
///                          (default 1024).
///   TURL_EVENTLOG_JSONL=p  write the retained events as JSONL to `p` at
///                          process exit.

/// One wide event. Trivially copyable (seqlock slots copy it), so all
/// strings are static `const char*` (status/task/origin name tables).
struct WideEvent {
  /// Which layer emitted the event: "serve" (socket front-end), "rt"
  /// (scheduler-owned requests with no front-end), "train" (Pretrainer
  /// steps). Static string.
  const char* origin = nullptr;
  /// Task-kind name ("encode", "entity_linking", ...) or "train.step".
  /// Static string.
  const char* task = nullptr;
  /// Terminal status name ("ok", "overloaded", "deadline_exceeded", ...).
  /// Static string.
  const char* status = nullptr;
  uint64_t request_id = 0;
  /// Trace id of the request's root span (0 = untraced/unsampled); the
  /// /requestz → /tracez drill-down link.
  uint64_t trace_id = 0;
  /// Serving replica that ran the request; -1 when there is none.
  int32_t replica = -1;
  /// Wire payload bytes in / response frame bytes out (0 when no wire).
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  /// Completion time on the BatchScheduler::NowMs() steady clock — what
  /// /requestz sorts by and reports age against.
  double end_ms = 0.0;
  /// Per-stage breakdown, microseconds. encode_us is the wall time of the
  /// micro-batch the request rode in (batch-shared, see batch_size);
  /// score_us is head scoring when a head ran (0 for encode-only).
  double queue_wait_us = 0.0;
  double assembly_us = 0.0;
  double encode_us = 0.0;
  double score_us = 0.0;
  double reply_us = 0.0;
  /// End-to-end latency, microseconds (receipt/submit → reply written).
  double total_us = 0.0;
  /// Requests in the micro-batch that served this one (0 = never batched).
  int32_t batch_size = 0;
  /// Relative deadline granted on arrival, ms; 0 = none. The budget "used"
  /// is total_us — a deadline_exceeded event shows exactly how far over.
  double deadline_budget_ms = 0.0;
};

/// Single-line JSON serialization (durations in microseconds; ids as
/// strings, matching the Chrome-trace export).
std::string ToJsonLine(const WideEvent& event);

/// The per-thread wide-event ring (see SeqlockRing).
using EventRing = SeqlockRing<WideEvent>;

/// Process-wide wide-event log: one EventRing per emitting thread (a
/// RingRegistry), drained for /requestz and the JSONL export.
class EventLog {
 public:
  static EventLog& Get();

  /// Disabled Append costs one relaxed load and a branch. SetEnabled(true)
  /// is a no-op when TURL_EVENTLOG=0 pinned the log off.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on);

  /// Records one event to the calling thread's ring (no-op when disabled).
  void Append(const WideEvent& event);

  /// Retained events across every ring, oldest first by end_ms. `last_n`
  /// > 0 keeps only the newest N.
  std::vector<WideEvent> Snapshot(size_t last_n = 0) const;
  /// Total events overwritten across rings.
  uint64_t dropped() const;
  size_t ring_capacity() const { return rings_.ring_capacity(); }
  /// Forgets all recorded events (rings stay registered). Test hook; every
  /// emitting thread must be quiescent.
  void Reset();

  /// The retained events as JSONL, oldest first.
  std::string ToJsonl(size_t last_n = 0) const;
  /// Writes ToJsonl() to `path`; false if the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  /// Snapshot order: by completion time, then request id.
  struct EndOrder {
    bool operator()(const WideEvent& a, const WideEvent& b) const {
      return a.end_ms != b.end_ms ? a.end_ms < b.end_ms
                                  : a.request_id < b.request_id;
    }
  };

  EventLog();

  static std::atomic<bool> enabled_;
  RingRegistry<WideEvent, EndOrder> rings_;
};

}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_EVENTLOG_H_
