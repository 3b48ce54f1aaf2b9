#include "rt/batch_scheduler.h"

#include <chrono>
#include <utility>

#include "core/table_encoding.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace rt {

namespace {

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Get().GetGauge("rt.scheduler.queue_depth");
  return g;
}

obs::Counter* FlushCounter(const char* reason) {
  // Distinct counters per flush reason; names are stable for BENCH_obs.json.
  return obs::MetricsRegistry::Get().GetCounter(
      std::string("rt.scheduler.flush_") + reason);
}

obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Get().GetHistogram("rt.scheduler.queue_wait_ms");
  return h;
}

obs::Counter* DeadlineMissedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("rt.scheduler.deadline_missed");
  return c;
}

}  // namespace

double BatchScheduler::NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BatchScheduler::BatchScheduler(const InferenceSession* session,
                               BatchSchedulerOptions options, ClockFn clock)
    : session_(session),
      options_(options),
      clock_(clock ? std::move(clock) : ClockFn(&BatchScheduler::NowMs)),
      readiness_("rt.scheduler", [pending = pending_count_](std::string* detail) {
        *detail = "accepting, pending=" +
                  std::to_string(pending->load(std::memory_order_relaxed));
        return true;
      }) {
  TURL_CHECK(session != nullptr);
  TURL_CHECK_GT(options_.max_batch_tables, 0);
  TURL_CHECK_GT(options_.max_batch_budget, 0);
}

BatchScheduler::~BatchScheduler() { Flush(); }

void BatchScheduler::Submit(Request request) {
  TURL_CHECK(request.table != nullptr);
  const int64_t cost = request.table->total();
  std::unique_lock<std::mutex> lock(mu_);
  // Flush first if admitting this request would blow the budget; the request
  // then starts a fresh batch (and an oversized single request simply gets a
  // batch of its own).
  if (!queue_.empty() && queued_budget_ + cost > options_.max_batch_budget) {
    FlushCounter("budget")->Inc();
    FlushLocked(lock);
  }
  Queued q{std::move(request), clock_()};
  q.trace = q.request.trace;
  if (!q.request.caller_owns_trace && obs::Tracer::Enabled()) {
    // The scheduler is the pipeline entry point for this request, so it owns
    // the root span: opened at enqueue, closed after the completion callback
    // so the trace covers queue-wait + assembly + encode + delivery.
    q.root = obs::Tracer::Get().BeginTrace("rt.request");
    if (q.root.traced()) {
      q.root.Annotate("total", cost);
      q.root.Annotate("task", TaskKindName(q.request.task));
      q.trace = q.root.context();
    }
  }
  q.enqueue_tp = std::chrono::steady_clock::now();
  queue_.push_back(std::move(q));
  ++submitted_;
  queued_budget_ += cost;
  QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
  pending_count_->store(static_cast<int64_t>(queue_.size()),
                        std::memory_order_relaxed);
  if (static_cast<int>(queue_.size()) >= options_.max_batch_tables) {
    FlushCounter("size")->Inc();
    FlushLocked(lock);
  }
}

void BatchScheduler::FlushLocked(std::unique_lock<std::mutex>& lock) {
  const uint64_t target = submitted_;
  while (completed_ < target) {
    batch_done_.wait(lock, [this] { return !running_; });
    if (completed_ < target) RunBatch(lock);
  }
}

void BatchScheduler::RunBatch(std::unique_lock<std::mutex>& lock) {
  // The first request, then as many more as both caps allow (requests
  // submitted during a run can queue past them).
  size_t n = 1;
  int64_t taken = queue_.front().request.table->total();
  while (n < queue_.size() &&
         static_cast<int>(n) < options_.max_batch_tables &&
         taken + queue_[n].request.table->total() <=
             options_.max_batch_budget) {
    taken += queue_[n++].request.table->total();
  }
  const auto end = queue_.begin() + static_cast<ptrdiff_t>(n);
  std::vector<Queued> batch(std::make_move_iterator(queue_.begin()),
                            std::make_move_iterator(end));
  queue_.erase(queue_.begin(), end);
  queued_budget_ -= taken;
  QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
  pending_count_->store(static_cast<int64_t>(queue_.size()),
                        std::memory_order_relaxed);
  running_ = true;
  lock.unlock();
  // Hands the scheduler back even if the batch throws.
  struct Finish {
    BatchScheduler* self;
    std::unique_lock<std::mutex>* lock;
    size_t n;
    ~Finish() {
      lock->lock();
      self->completed_ += n;
      self->running_ = false;
      self->batch_done_.notify_all();
    }
  } finish{this, &lock, batch.size()};
  TURL_TRACE_SCOPE("rt.scheduler.flush");

  const double drain_ms = clock_();
  const auto drain_tp = std::chrono::steady_clock::now();

  // Deadline enforcement at dequeue: expired requests complete with
  // kDeadlineExceeded below and never reach the session, so the batch the
  // model actually runs contains live requests only.
  std::vector<bool> expired(batch.size(), false);
  std::vector<double> waits(batch.size(), 0.0);
  std::vector<const core::EncodedTable*> tables;
  tables.reserve(batch.size());
  int64_t budget = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Queued& q = batch[i];
    waits[i] = std::chrono::duration<double, std::milli>(drain_tp -
                                                         q.enqueue_tp)
                   .count();
    // Real-clock wait from enqueue to drain — the scrape-visible companion
    // of the queue_depth gauge and the per-request rt.queue_wait span.
    QueueWaitHistogram()->Observe(waits[i]);
    if (q.request.deadline_ms > 0.0 && drain_ms >= q.request.deadline_ms) {
      expired[i] = true;
      DeadlineMissedCounter()->Inc();
      continue;
    }
    tables.push_back(q.request.table);
    budget += q.request.table->total();
  }

  // Assembly ends here whether or not tracing is on: the wide-event stage
  // breakdown needs the same endpoints the trace spans use.
  const auto assembled_tp = std::chrono::steady_clock::now();
  std::vector<obs::TraceContext> traces;
  if (obs::Tracer::Enabled()) {
    // Queue-wait (enqueue -> drain) and batch-assembly are reconstructed
    // here with explicit endpoints: both stages ended before EncodeBatch
    // starts, so every traced request in the batch gets its own copy.
    obs::Tracer& tracer = obs::Tracer::Get();
    traces.reserve(tables.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Queued& q = batch[i];
      if (!expired[i]) traces.push_back(q.trace);
      if (!q.trace.traced()) continue;
      tracer.RecordManual("rt.queue_wait", q.trace, q.enqueue_tp, drain_tp);
      if (expired[i]) continue;
      tracer.RecordManual(
          "rt.batch_assembly", q.trace, drain_tp, assembled_tp,
          {{"batch", int64_t(tables.size())}, {"budget", budget}});
    }
  }
  const double assembly_ms =
      std::chrono::duration<double, std::milli>(assembled_tp - drain_tp)
          .count();

  std::vector<nn::Tensor> hidden;
  double encode_ms = 0.0;
  if (!tables.empty()) {
    const auto encode_start_tp = std::chrono::steady_clock::now();
    hidden = session_->EncodeBatch(
        std::span<const core::EncodedTable* const>(tables),
        std::span<const obs::TraceContext>(traces));
    encode_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - encode_start_tp)
                    .count();
  }
  size_t next_hidden = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Queued& q = batch[i];
    Response response;
    response.request_id = q.request.request_id;
    response.task = q.request.task;
    response.queue_wait_ms = waits[i];
    if (expired[i]) {
      response.status = ResponseStatus::kDeadlineExceeded;
    } else {
      response.status = ResponseStatus::kOk;
      response.hidden = std::move(hidden[next_hidden++]);
      response.assembly_ms = assembly_ms;
      response.encode_ms = encode_ms;
      response.batch_size = static_cast<int32_t>(tables.size());
    }
    const ResponseStatus status = response.status;
    const bool emit = !q.request.caller_owns_event &&
                      (obs::EventLog::Enabled() || obs::SliEngine::Enabled());
    const auto deliver_tp = std::chrono::steady_clock::now();
    if (q.request.done) q.request.done(std::move(response));
    // Close scheduler-owned roots (no-op for caller-owned or untraced).
    if (q.root.traced()) obs::Tracer::Get().End(&q.root);
    if (emit) {
      // The scheduler is this request's terminal layer (no front-end took
      // ownership via caller_owns_event), so it reports the wide event and
      // the SLI sample.
      const auto now_tp = std::chrono::steady_clock::now();
      obs::WideEvent event;
      event.origin = "rt";
      event.task = TaskKindName(q.request.task);
      event.status = ResponseStatusName(status);
      event.request_id = q.request.request_id;
      event.trace_id = q.trace.trace_id;
      event.end_ms = clock_();
      event.queue_wait_us = waits[i] * 1000.0;
      if (!expired[i]) {
        event.assembly_us = assembly_ms * 1000.0;
        event.encode_us = encode_ms * 1000.0;
        event.batch_size = static_cast<int32_t>(tables.size());
      }
      event.reply_us =
          std::chrono::duration<double, std::micro>(now_tp - deliver_tp)
              .count();
      event.total_us =
          std::chrono::duration<double, std::micro>(now_tp - q.enqueue_tp)
              .count();
      if (q.request.deadline_ms > 0.0) {
        event.deadline_budget_ms = q.request.deadline_ms - q.enqueue_ms;
      }
      if (obs::EventLog::Enabled()) obs::EventLog::Get().Append(event);
      obs::SliEngine::Get().Record(event.task,
                                   obs::OutcomeFromStatusName(event.status),
                                   event.total_us / 1000.0, event.trace_id);
    }
  }
}

}  // namespace rt
}  // namespace turl
