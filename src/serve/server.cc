#include "serve/server.h"

#include <poll.h>

#include <cerrno>
#include <limits>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/server/http.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace serve {

namespace {

obs::Counter* AcceptedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.accepted");
  return c;
}

obs::Counter* RequestCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.requests");
  return c;
}

obs::Counter* ShedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Get().GetCounter("serve.shed");
  return c;
}

obs::Counter* DeadlineMissedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.deadline_missed");
  return c;
}

obs::Counter* BadFrameCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.bad_frames");
  return c;
}

obs::Gauge* InflightGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Get().GetGauge("serve.inflight");
  return g;
}

/// Per-task end-to-end latency (frame read to reply written), one family
/// per task so a slow ranking head cannot hide inside the encode p99. The
/// registry lookup is mutexed but trivial next to an inference.
obs::Histogram* LatencyHistogram(rt::TaskKind task) {
  return obs::MetricsRegistry::Get().GetHistogram(
      std::string("serve.latency_ms.") + rt::TaskKindName(task));
}

obs::server::ConnectionServer::Options CoreOptions(const ServeOptions& o) {
  obs::server::ConnectionServer::Options core;
  core.port = o.port;
  core.bind_address = o.bind_address;
  core.num_workers = o.num_io_workers;
  core.max_queued = o.max_queued_connections;
  core.read_timeout_ms = o.read_timeout_ms;
  core.drain_deadline_ms = o.drain_deadline_ms;
  return core;
}

/// The core's shed writer: an OVERLOADED frame for a connection refused
/// because the queue is full — the serve-protocol analogue of the obs
/// server's 503.
void WriteShed(int fd) {
  AcceptedCounter()->Inc();
  ShedCounter()->Inc();
  WireResponse response;
  response.status = rt::ResponseStatus::kOverloaded;
  response.message = "overloaded: connection queue full";
  const std::string wire = EncodeResponseFrame(response);
  obs::server::WriteAll(fd, wire.data(), wire.size());
}

/// Ticks the global SLO watchdog at most once per SLI-clock second.
void TickSloWatchdog() {
  static std::atomic<int64_t> last_tick_s{std::numeric_limits<int64_t>::min()};
  const int64_t now_s = obs::SliEngine::Get().NowS();
  int64_t last = last_tick_s.load();
  if (now_s != last && last_tick_s.compare_exchange_strong(last, now_s)) {
    obs::SloWatchdog::Get().Tick();
  }
}

}  // namespace

ServeOptions ServeServer::OptionsFromEnv() {
  ServeOptions options;
  options.port = EnvInt("TURL_SERVE_PORT", options.port, 0, 65535);
  options.num_replicas =
      EnvInt("TURL_SERVE_REPLICAS", options.num_replicas, 1,
             std::numeric_limits<int>::max());
  return options;
}

ServeServer::ServeServer(const core::TurlModel& model, ServeOptions options)
    : model_(model),
      options_(std::move(options)),
      core_(CoreOptions(options_), [this](int fd) { ServeConnection(fd); },
            WriteShed) {
  TURL_CHECK_GT(options_.num_replicas, 0);
  TURL_CHECK_GE(options_.max_inflight_requests, 0);
}

ServeServer::~ServeServer() { Stop(); }

Status ServeServer::Start() {
  if (running()) return Status::FailedPrecondition("server already running");

  // Warm the replicas before the listener goes live: session construction
  // builds each replica's thread pool and scratch arenas, so the first
  // request pays inference cost only.
  replicas_.clear();
  for (int i = 0; i < options_.num_replicas; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->session =
        std::make_unique<rt::InferenceSession>(model_, options_.session);
    replica->scheduler = std::make_unique<rt::BatchScheduler>(
        replica->session.get(), options_.batch);
    replicas_.push_back(std::move(replica));
  }
  inflight_.store(0, std::memory_order_relaxed);
  InflightGauge()->Set(0.0);

  if (const Status s = core_.Start(); !s.ok()) {
    replicas_.clear();
    return s;
  }

  // Readiness flips on only now: listener bound, replicas warm, threads up.
  readiness_.emplace(
      "serve.listener", [this](std::string* detail) {
        *detail = "port=" + std::to_string(port()) +
                  " replicas=" + std::to_string(replicas_.size()) +
                  " inflight=" + std::to_string(inflight());
        return running();
      });

  // SLO targets live in the global watchdog for this Start/Stop cycle; each
  // is a `slo.<name>` probe on /healthz that burns when its window degrades.
  std::vector<obs::SloTarget> targets = options_.slo_targets;
  if (targets.empty()) {
    obs::SloTarget availability;
    availability.name = "serve.availability";
    availability.horizon_s = 60;
    availability.min_requests = 20;
    availability.min_availability = 0.99;
    targets.push_back(availability);
    obs::SloTarget deadline;
    deadline.name = "serve.deadline";
    deadline.horizon_s = 60;
    deadline.min_requests = 20;
    deadline.max_deadline_miss_rate = 0.05;
    targets.push_back(deadline);
  }
  for (obs::SloTarget& target : targets) {
    slo_target_ids_.push_back(
        obs::SloWatchdog::Get().AddTarget(std::move(target)));
  }
  return Status::OK();
}

void ServeServer::Stop() {
  if (!running()) return;

  // /healthz goes not-ready before the listener dies, so an orchestrator
  // probing readiness stops routing before connections start failing.
  readiness_.reset();
  for (int id : slo_target_ids_) obs::SloWatchdog::Get().RemoveTarget(id);
  slo_target_ids_.clear();

  // Stop accepting, drain (workers notice stopping() at their next idle
  // poll and answer the frame in flight), then the hard deadline.
  core_.Stop();
  replicas_.clear();
  inflight_.store(0, std::memory_order_relaxed);
  InflightGauge()->Set(0.0);
}

void ServeServer::ServeConnection(int fd) {
  AcceptedCounter()->Inc();
  // One frame at a time until EOF, error, malformed frame, or shutdown. The
  // idle poll between frames is what bounds how long a quiet connection can
  // delay Stop(); past the drain deadline the core's shutdown() makes the
  // poll report EOF.
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, options_.idle_poll_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) {
      // Idle tick. A connection with no frame in flight owes nothing at
      // shutdown — drop it so the drain finishes fast.
      if (core_.stopping()) return;
      continue;
    }
    if (pfd.revents & (POLLERR | POLLNVAL)) return;
    if (!ServeOneFrame(fd)) return;
  }
}

size_t ServeServer::PickReplica(int64_t /*cost*/) {
  // Least-loaded by queued token cost; ties go round-robin so equal-load
  // replicas share work instead of replica 0 absorbing every burst.
  const size_t n = replicas_.size();
  const size_t start =
      rr_counter_.fetch_add(1, std::memory_order_relaxed) % n;
  size_t best = start;
  int64_t best_cost =
      replicas_[start]->inflight_cost.load(std::memory_order_relaxed);
  for (size_t off = 1; off < n; ++off) {
    const size_t i = (start + off) % n;
    const int64_t c =
        replicas_[i]->inflight_cost.load(std::memory_order_relaxed);
    if (c < best_cost) {
      best = i;
      best_cost = c;
    }
  }
  return best;
}

bool ServeServer::WriteResponse(int fd, const WireResponse& response,
                                int64_t* wire_bytes) {
  const std::string wire = EncodeResponseFrame(response);
  if (wire_bytes != nullptr) *wire_bytes = static_cast<int64_t>(wire.size());
  return obs::server::WriteAll(fd, wire.data(), wire.size());
}

bool ServeServer::ServeOneFrame(int fd) {
  uint8_t header[kRequestHeaderBytes];
  if (!ReadFull(fd, header, sizeof(header))) {
    return false;  // EOF between frames, or timeout/garbage mid-header.
  }
  const double start_ms = rt::BatchScheduler::NowMs();

  // The request's wide event, filled in as the frame progresses; every
  // terminal path below stamps a status and emits exactly one event (the
  // scheduler stays quiet — caller_owns_event).
  obs::WideEvent event;
  event.origin = "serve";
  event.task = "unknown";  // Until the header names a valid task.
  event.bytes_in = static_cast<int64_t>(sizeof(header));
  const auto finish_event = [&](rt::ResponseStatus status) {
    if (!obs::EventLog::Enabled() && !obs::SliEngine::Enabled()) return;
    event.status = rt::ResponseStatusName(status);
    event.end_ms = rt::BatchScheduler::NowMs();
    event.total_us = (event.end_ms - start_ms) * 1000.0;
    if (obs::EventLog::Enabled()) obs::EventLog::Get().Append(event);
    obs::SliEngine::Get().Record(event.task,
                                 obs::OutcomeFromStatusName(event.status),
                                 event.total_us / 1000.0, event.trace_id);
    TickSloWatchdog();
  };

  RequestHeader request_header;
  const Status parsed =
      ParseRequestHeader(header, options_.max_payload_bytes, &request_header);
  if (!parsed.ok()) {
    // Bad magic/version/task or an oversized length prefix: answer what we
    // can and fail the connection — nothing was allocated for the claimed
    // payload, and resynchronizing a framed stream after garbage is
    // guesswork.
    BadFrameCounter()->Inc();
    WireResponse response;
    response.status = rt::ResponseStatus::kBadRequest;
    response.message = parsed.ToString();
    WriteResponse(fd, response, &event.bytes_out);
    finish_event(rt::ResponseStatus::kBadRequest);
    return false;
  }
  event.task = rt::TaskKindName(request_header.task);
  event.request_id = request_header.request_id;

  std::vector<uint8_t> payload(request_header.payload_len);
  if (request_header.payload_len > 0 &&
      !ReadFull(fd, payload.data(), payload.size())) {
    BadFrameCounter()->Inc();
    finish_event(rt::ResponseStatus::kBadRequest);
    return false;  // Truncated payload: peer hung up or stalled past timeout.
  }
  event.bytes_in += static_cast<int64_t>(payload.size());

  WireResponse response;
  response.request_id = request_header.request_id;

  core::EncodedTable table;
  const Status decoded =
      DecodeRequestPayload(payload.data(), payload.size(), &table);
  const Status valid = decoded.ok() ? model_.ValidateInput(table) : decoded;
  if (!valid.ok()) {
    BadFrameCounter()->Inc();
    response.status = rt::ResponseStatus::kBadRequest;
    response.message = valid.ToString();
    const bool written = WriteResponse(fd, response, &event.bytes_out);
    finish_event(rt::ResponseStatus::kBadRequest);
    // A payload that does not decode fails the connection. One that decodes
    // but does not fit the model (an id past its embedding table, more
    // elements than the n x n bound) would abort the process in Encode:
    // only the request is refused, and the connection stays open.
    return decoded.ok() && written;
  }
  RequestCounter()->Inc();

  if (core_.stopping()) {
    // Admitted connections finish their in-flight frame during drain, but a
    // *new* frame after Stop() began is refused — that is what makes the
    // drain converge.
    response.status = rt::ResponseStatus::kShuttingDown;
    response.message = "server draining";
    WriteResponse(fd, response, &event.bytes_out);
    finish_event(rt::ResponseStatus::kShuttingDown);
    return false;
  }

  // Admission control: a bounded number of decoded requests may be queued
  // across the replicas; beyond that we shed *this request* (the connection
  // survives — the client may back off and retry).
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_requests) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    ShedCounter()->Inc();
    response.status = rt::ResponseStatus::kOverloaded;
    response.message = "overloaded: inflight request cap";
    const bool written = WriteResponse(fd, response, &event.bytes_out);
    finish_event(rt::ResponseStatus::kOverloaded);
    return written;
  }
  InflightGauge()->Set(
      static_cast<double>(inflight_.load(std::memory_order_relaxed)));

  // Wire deadline (relative to receipt) -> absolute scheduler-clock
  // deadline. 0 means "already expired": enforced right here, the cheapest
  // of the three enforcement points.
  double deadline_ms = 0.0;
  if (request_header.deadline_ms != kNoDeadline) {
    event.deadline_budget_ms = request_header.deadline_ms;
    deadline_ms = rt::BatchScheduler::NowMs() + request_header.deadline_ms;
    if (request_header.deadline_ms == 0) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      DeadlineMissedCounter()->Inc();
      response.status = rt::ResponseStatus::kDeadlineExceeded;
      response.message = "deadline expired on arrival";
      const bool written = WriteResponse(fd, response, &event.bytes_out);
      finish_event(rt::ResponseStatus::kDeadlineExceeded);
      return written;
    }
  }

  // Root span for the serve pipeline; the scheduler's stage spans (queue
  // wait, batch assembly, encode) nest under it via the request context.
  obs::ActiveSpan root;
  rt::Request request;
  request.caller_owns_trace = true;
  // The serve layer reports this request's wide event + SLI sample with the
  // wire context only it knows (byte sizes, replica, reply stage); the
  // scheduler must not double-count it.
  request.caller_owns_event = true;
  if (obs::Tracer::Enabled()) {
    root = obs::Tracer::Get().BeginTrace("serve.request");
    if (root.traced()) {
      root.Annotate("task", rt::TaskKindName(request_header.task));
      root.Annotate("total", table.total());
      request.trace = root.context();
      event.trace_id = root.context().trace_id;
    }
  }

  const int64_t cost = table.total();
  const size_t replica_index = PickReplica(cost);
  Replica& replica = *replicas_[replica_index];
  event.replica = static_cast<int32_t>(replica_index);
  replica.inflight_cost.fetch_add(cost, std::memory_order_relaxed);

  rt::Response result;
  request.table = &table;
  request.task = request_header.task;
  request.request_id = request_header.request_id;
  request.deadline_ms = deadline_ms;
  request.done = [&result](rt::Response r) { result = std::move(r); };
  // Flush returns after `done` ran, in this worker's batch or another's.
  replica.scheduler->Submit(std::move(request));
  replica.scheduler->Flush();

  replica.inflight_cost.fetch_sub(cost, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  InflightGauge()->Set(
      static_cast<double>(inflight_.load(std::memory_order_relaxed)));

  // Deadline at reply: a result the scheduler produced in time can still be
  // late by the time this worker is ready to write it.
  if (result.status == rt::ResponseStatus::kOk && deadline_ms > 0.0 &&
      rt::BatchScheduler::NowMs() >= deadline_ms) {
    result.status = rt::ResponseStatus::kDeadlineExceeded;
  }

  if (result.status == rt::ResponseStatus::kOk) {
    response.status = rt::ResponseStatus::kOk;
    response.rows = result.hidden.dim(0);
    response.cols = result.hidden.dim(1);
    response.hidden = result.hidden.ToVector();
  } else {
    if (result.status == rt::ResponseStatus::kDeadlineExceeded) {
      DeadlineMissedCounter()->Inc();
    }
    response.status = result.status;
    response.message = ResponseStatusName(result.status);
  }
  event.queue_wait_us = result.queue_wait_ms * 1000.0;
  event.assembly_us = result.assembly_ms * 1000.0;
  event.encode_us = result.encode_ms * 1000.0;
  event.batch_size = result.batch_size;

  LatencyHistogram(request_header.task)
      ->Observe(rt::BatchScheduler::NowMs() - start_ms);
  const double reply_start_ms = rt::BatchScheduler::NowMs();
  const bool written = WriteResponse(fd, response, &event.bytes_out);
  event.reply_us = (rt::BatchScheduler::NowMs() - reply_start_ms) * 1000.0;
  finish_event(response.status);
  if (root.traced()) obs::Tracer::Get().End(&root);
  return written;
}

}  // namespace serve
}  // namespace turl
