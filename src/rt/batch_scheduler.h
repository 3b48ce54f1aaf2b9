#ifndef TURL_RT_BATCH_SCHEDULER_H_
#define TURL_RT_BATCH_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "obs/server/handlers.h"
#include "obs/trace.h"
#include "rt/inference_session.h"
#include "rt/request.h"

namespace turl {
namespace rt {

/// Micro-batching policy for heterogeneous encode requests.
struct BatchSchedulerOptions {
  /// Flush when this many requests are queued.
  int max_batch_tables = 32;
  /// Flush when the queued token+entity budget (sum of EncodedTable::total())
  /// would exceed this. A request larger than the whole budget still runs,
  /// alone in its own batch.
  int64_t max_batch_budget = 4096;
};

/// Collects encode requests into size/budget-capped micro-batches and runs
/// each batch through InferenceSession::EncodeBatch. Bulk-eval workloads,
/// example binaries and the serve front-end all push heterogeneous tables
/// through one scheduler so the session sees well-shaped batches instead of
/// one giant fan-out (bounding the number of live activation graphs).
///
/// Submission is one rt::Request per table (see rt/request.h): the request
/// carries the table, task kind, id, deadline and trace context, and its
/// `done` callback receives an rt::Response. A request whose deadline has
/// lapsed by the time its batch is drained is completed with
/// kDeadlineExceeded — without being encoded — so queued work cannot waste
/// model time on replies nobody is waiting for anymore.
///
/// Thread safety: Submit and Flush may be called from any thread. One batch
/// runs at a time, inside Flush or a cap flush in Submit, so an idle
/// scheduler dispatches at once and requests submitted during a run form
/// the next (capped) batches. Callbacks run without the lock on their
/// batch's thread in submission order — with the session's by-index batch
/// semantics, kOk results equal session.Encode per request. A callback must
/// not call Submit or Flush on its own scheduler.
class BatchScheduler {
 public:
  /// Monotonic clock in milliseconds; injectable so tests can fake time.
  using ClockFn = std::function<double()>;

  /// The default clock: monotonic milliseconds (std::chrono::steady_clock).
  /// Deadlines in Request::deadline_ms are absolute on this clock unless a
  /// custom clock was injected.
  static double NowMs();

  /// The session must outlive the scheduler. A default clock reads NowMs().
  BatchScheduler(const InferenceSession* session,
                 BatchSchedulerOptions options = BatchSchedulerOptions(),
                 ClockFn clock = ClockFn());
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues one request; `request.done` runs when its batch is drained
  /// (kOk with the contextualized representations, or kDeadlineExceeded).
  /// The table must stay alive until then. Flushes eagerly once size or
  /// budget caps are hit.
  ///
  /// Tracing: when the caller does not own the trace context
  /// (request.caller_owns_trace is false) the scheduler opens the request's
  /// root span ("rt.request", sampled) at enqueue; the root closes after
  /// `done` returns, and queue-wait / batch-assembly / per-worker encode
  /// spans nest under it.
  void Submit(Request request);

  /// Returns once every request submitted before the call has completed
  /// (its `done` has returned), running batches on this thread whenever
  /// none is running; later arrivals are left to their own callers.
  void Flush() { std::unique_lock<std::mutex> lock(mu_); FlushLocked(lock); }

  size_t pending() const { return size_t(pending_count_->load()); }
  const BatchSchedulerOptions& options() const { return options_; }

 private:
  struct Queued {
    Request request;
    double enqueue_ms;
    /// Root span owned by the scheduler (untraced when the caller supplied
    /// its own context, tracing is off, or the request was unsampled).
    obs::ActiveSpan root;
    /// Context the request's stage spans nest under: the owned root's, or
    /// the caller-supplied one.
    obs::TraceContext trace;
    /// Real-clock enqueue time for the queue-wait span (the ms clock above
    /// is injectable/fake in tests, so it cannot feed trace timestamps).
    std::chrono::steady_clock::time_point enqueue_tp;
  };

  void FlushLocked(std::unique_lock<std::mutex>& lock);
  void RunBatch(std::unique_lock<std::mutex>& lock);

  const InferenceSession* session_;
  BatchSchedulerOptions options_;
  ClockFn clock_;

  std::mutex mu_;
  std::condition_variable batch_done_;
  std::deque<Queued> queue_;
  int64_t queued_budget_ = 0;
  /// Requests ever submitted / completed. Requests complete in submission
  /// order, so the k-th has completed once completed_ >= k.
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  bool running_ = false;
  /// Lock-free mirror of queue_.size() for pending() and the readiness
  /// probe below. Shared with the probe closure so a probe snapshot that
  /// races scheduler destruction reads a live object.
  std::shared_ptr<std::atomic<int64_t>> pending_count_ =
      std::make_shared<std::atomic<int64_t>>(0);
  /// "rt.scheduler" in /healthz: ready while this scheduler is alive and
  /// accepting submissions.
  obs::server::ScopedReadinessProbe readiness_;
};

}  // namespace rt
}  // namespace turl

#endif  // TURL_RT_BATCH_SCHEDULER_H_
