#ifndef TURL_OBS_SLO_H_
#define TURL_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace turl {
namespace obs {

/// Rolling-window SLIs and SLO watchdog
/// ====================================
/// The metrics registry answers "how many, ever"; the SLI engine answers
/// "is the service healthy *right now*". Every terminal request outcome is
/// recorded into per-stream time-bucketed windows (1-second buckets, 5
/// minutes of ring), and availability / shed rate / deadline-miss rate /
/// latency quantiles are computed over the trailing 10s, 1m and 5m horizons
/// by summing buckets — buckets merge additively (O(1) per bucket, no
/// re-sorting), so a snapshot costs a few hundred integer adds.
///
/// Exemplars: each bucket keeps the trace id of its worst traced sample, so
/// a window's p99 links to a real span on /tracez instead of being an
/// anonymous number.
///
/// The SLO watchdog evaluates declarative targets (availability >= x, p99
/// <= y ms, ...) against these windows and flips a `slo.<name>` readiness
/// probe in the HealthRegistry the moment a target burns — /healthz
/// degrades one window tick after the service does, before users notice.
///
/// Environment:
///   TURL_SLO=0   pins SLI recording off (Record is one relaxed load and a
///                branch).

/// Terminal classification of one request for SLI accounting.
enum class SliOutcome : uint8_t {
  kOk = 0,
  kShed = 1,          ///< Refused by admission control / overload.
  kDeadlineMiss = 2,  ///< Answered, but after its deadline (or never run).
  kError = 3,         ///< Anything else (bad request, shutdown, transport).
};

/// Maps a ResponseStatus name (the strings wide events carry) to an
/// outcome: "ok", "overloaded", "deadline_exceeded"; anything else is
/// kError.
SliOutcome OutcomeFromStatusName(const char* status);

/// One stream x horizon summary.
struct SliSnapshot {
  const char* stream = nullptr;
  int horizon_s = 0;
  int64_t total = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t deadline_miss = 0;
  int64_t error = 0;
  /// ok / total; 1 when the window is empty (no traffic is not an outage).
  double availability = 1.0;
  double shed_rate = 0.0;
  double deadline_miss_rate = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Trace id of the worst traced sample in the window (0 = none) and its
  /// latency — the /metrics -> /tracez link.
  uint64_t exemplar_trace_id = 0;
  double exemplar_ms = 0.0;
};

/// Process-wide SLI engine: named streams (one per task kind, "train",
/// plus the "all" aggregate every Record also feeds), each a ring of 1s
/// buckets. Record is thread-safe (per-stream mutex held for a few writes);
/// Snapshot is safe from any thread.
class SliEngine {
 public:
  static SliEngine& Get();

  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// SetEnabled(true) is a no-op when TURL_SLO=0 pinned recording off.
  static void SetEnabled(bool on);

  /// The horizons /statusz and the watchdog evaluate.
  static constexpr int kHorizonsS[3] = {10, 60, 300};
  /// Window horizon covered by the bucket ring (the longest horizon).
  static constexpr int kWindowS = 300;
  /// Every stream's Record also lands here.
  static constexpr const char* kAllStream = "all";

  SliEngine();
  SliEngine(const SliEngine&) = delete;
  SliEngine& operator=(const SliEngine&) = delete;
  ~SliEngine();

  /// Records one terminal outcome under `stream` (a static string — task
  /// kind name or "train") and under the "all" aggregate. `trace_id` 0 =
  /// untraced.
  void Record(const char* stream, SliOutcome outcome, double latency_ms,
              uint64_t trace_id = 0);

  /// Summary of `stream` over the trailing `horizon_s` seconds (clamped to
  /// kWindowS). Unknown streams return an empty snapshot.
  SliSnapshot Snapshot(const char* stream, int horizon_s) const;
  /// Every stream with any retained traffic, "all" first.
  std::vector<SliSnapshot> SnapshotAll(int horizon_s) const;
  /// Registered stream names, "all" first.
  std::vector<const char*> streams() const;

  /// Injectable seconds clock for tests (nullptr restores the steady
  /// clock). Set before traffic; not synchronized against concurrent
  /// Record.
  void SetClockForTest(std::function<int64_t()> now_s);
  int64_t NowS() const;

  /// Forgets all buckets (streams stay registered). Test hook.
  void Reset();

 private:
  struct Stream;
  Stream* FindOrCreate(const char* name);
  const Stream* Find(const char* name) const;

  static std::atomic<bool> enabled_;
  mutable std::mutex streams_mu_;
  std::vector<std::unique_ptr<Stream>> streams_;
  mutable std::mutex clock_mu_;
  std::function<int64_t()> clock_;
};

/// Prometheus-style exposition of every stream x horizon (families
/// turl_slo_requests, turl_slo_availability, turl_slo_shed_rate,
/// turl_slo_deadline_miss_rate, turl_slo_p50/p90/p99/max_ms) with
/// {task=...,window="10s"|"1m"|"5m"} labels. p99 series carry an
/// OpenMetrics-style exemplar (`# {trace_id="..."} <latency>`) when the
/// window has a traced worst sample — what makes a /metrics p99 resolvable
/// on /tracez. Appended to /metrics after the registry exposition.
std::string SliMetricsText(const SliEngine& engine = SliEngine::Get());

/// One declarative SLO: thresholds over a stream's trailing window.
/// Negative thresholds are unchecked; a window with fewer than
/// `min_requests` outcomes passes vacuously (no traffic is not an outage).
struct SloTarget {
  /// Probe name suffix: the target registers as `slo.<name>` in /healthz.
  std::string name;
  /// SLI stream the target watches (SliEngine::kAllStream for everything).
  std::string stream = SliEngine::kAllStream;
  int horizon_s = 60;
  int64_t min_requests = 1;
  double min_availability = -1.0;
  double max_shed_rate = -1.0;
  double max_deadline_miss_rate = -1.0;
  double max_p99_ms = -1.0;
};

/// Evaluates SloTargets and surfaces burns: each AddTarget registers a
/// `slo.<name>` readiness probe that re-evaluates the target on every
/// /healthz scrape, so readiness flips within one window tick of the SLI
/// degrading — no poller in the loop. Tick() additionally latches burn
/// edges: a target transitioning ok -> burning emits a warning TrainRecord
/// through the TelemetryHub (and bumps the obs.slo_burns counter) so every
/// configured sink sees the burn once, not once per scrape.
class SloWatchdog {
 public:
  static SloWatchdog& Get();

  explicit SloWatchdog(SliEngine* engine = nullptr);
  ~SloWatchdog();

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  /// Registers the target (and its `slo.<name>` probe). Returns an id for
  /// RemoveTarget.
  int AddTarget(SloTarget target);
  void RemoveTarget(int id);
  size_t size() const;

  struct Evaluation {
    std::string name;   ///< Probe name ("slo.<target>").
    bool ok = true;
    std::string detail; ///< "availability 0.95 < 0.99 (n=40, 1m)" on burn.
  };
  /// Evaluates every target now, latches burn/recovery edges, emits the
  /// burn-edge telemetry. The serve request path (once a second) and
  /// /statusz call it; /healthz stays correct without it.
  std::vector<Evaluation> Tick();

  struct Burn {
    std::string name;
    std::string reason;
    int64_t since_s = 0;  ///< Engine-clock second the burn started.
  };
  /// Targets burning as of the last evaluation (Tick or probe).
  std::vector<Burn> ActiveBurns() const;

 private:
  struct TargetState {
    SloTarget target;
    int probe_id = 0;
    bool burning = false;
    int64_t since_s = 0;
    std::string reason;
  };

  /// Threshold check only; no edge latching.
  Evaluation Evaluate(const SloTarget& target) const;
  /// Evaluates target `id` and latches its burn state (shared by probes
  /// and Tick).
  Evaluation EvaluateAndLatch(int id);

  SliEngine* engine_;
  mutable std::mutex mu_;
  int next_id_ = 1;
  std::map<int, TargetState> targets_;
};

}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_SLO_H_
