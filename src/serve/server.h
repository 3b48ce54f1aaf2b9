#ifndef TURL_SERVE_SERVER_H_
#define TURL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/model.h"
#include "obs/server/connection_server.h"
#include "obs/server/handlers.h"
#include "obs/slo.h"
#include "rt/batch_scheduler.h"
#include "rt/inference_session.h"
#include "rt/request.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace turl {
namespace serve {

/// Knobs for a ServeServer.
struct ServeOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Model inference serves user payloads, but the reproduction still binds
  /// loopback by default; widen deliberately.
  std::string bind_address = "127.0.0.1";
  /// Model replicas: each owns an InferenceSession + BatchScheduler (the
  /// cuBERT BertM shape); requests go to the least loaded.
  int num_replicas = 2;
  /// IO workers; each owns one connection at a time, so this is also the
  /// concurrent-connection cap. Connections beyond workers + queue are shed.
  int num_io_workers = 8;
  /// Accepted-but-unserved connections held at once; beyond this the accept
  /// thread sheds the connection with an OVERLOADED frame.
  int max_queued_connections = 16;
  /// Admission control: decoded requests in flight (submitted, reply not
  /// yet written) across all replicas; beyond this a request is shed with
  /// OVERLOADED instead of queued — bounded queue, explicit shed, exactly
  /// the serve-protocol analogue of the obs server's 503 path.
  int max_inflight_requests = 64;
  /// SO_RCVTIMEO while reading a frame; a client that stalls mid-frame
  /// cannot pin a worker past this.
  int read_timeout_ms = 5000;
  /// Poll tick between frames on an idle connection; bounds how long a
  /// worker takes to notice Stop().
  int idle_poll_ms = 50;
  /// Stop(): grace period for in-flight requests before their sockets are
  /// forcibly shut down.
  int drain_deadline_ms = 2000;
  /// Request frames with a larger payload are rejected before allocation.
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Per-replica session knobs (threads per replica).
  rt::SessionOptions session;
  /// Per-replica micro-batching policy.
  rt::BatchSchedulerOptions batch;
  /// SLO targets registered with the global SloWatchdog for the server's
  /// lifetime (each becomes a `slo.<name>` probe on /healthz). Empty
  /// installs the defaults: serve.availability (availability >= 0.99) and
  /// serve.deadline (deadline-miss rate <= 0.05), both over the 1m window
  /// once it holds >= 20 requests.
  std::vector<obs::SloTarget> slo_targets;
};

/// The serving front-end of the inference runtime: an
/// obs::server::ConnectionServer speaking the length-prefixed binary
/// protocol of serve/protocol.h, feeding rt::Request batches through N
/// model replicas.
///
/// Replica dispatch: a decoded request goes to the InferenceSession +
/// BatchScheduler replica with the least in-flight token cost (ties broken
/// round-robin); its IO worker submits and flushes, so an idle replica runs
/// it at once and requests arriving during a batch coalesce into the next.
/// After recording a request's SLI sample, a worker ticks the global
/// SloWatchdog at most once per SLI-clock second, so burns latch while
/// traffic flows even when nothing scrapes /healthz.
///
/// Admission control and backpressure: connections beyond the accept queue
/// are shed with an OVERLOADED frame at accept; decoded requests beyond
/// max_inflight_requests are shed with OVERLOADED before touching a
/// replica. The server never queues unboundedly and never blocks a reply
/// on shed work.
///
/// Deadlines: a frame's relative deadline becomes an absolute
/// rt::Request::deadline_ms. It is enforced three times — at admission
/// (already expired: kDeadlineExceeded without submitting), at dequeue
/// (BatchScheduler completes expired requests unencoded), and at reply (a
/// result that arrives too late is replaced by kDeadlineExceeded).
///
/// Shutdown takes readiness down, then runs the core's three steps — stop
/// accepting; graceful drain, in which workers finish the frame in flight
/// and every admitted request is answered, bounded by drain_deadline_ms;
/// hard deadline — and only then drops the replicas. In-flight requests
/// admitted before Stop() are completed, not dropped.
class ServeServer {
 public:
  /// The model must outlive the server. Replicas share the const model (an
  /// inference forward never mutates it); each gets its own session pool.
  ServeServer(const core::TurlModel& model, ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Warms the replicas, then binds, listens and spawns the core's accept
  /// and IO threads. Fails without leaking if the port is outside [0, 65535]
  /// or the address cannot be bound.
  Status Start();

  /// Three-step graceful shutdown (see class comment). Idempotent; Start()
  /// works again afterwards.
  void Stop();

  bool running() const { return core_.running(); }
  /// The bound port (resolves port 0 to the kernel-assigned one).
  int port() const { return core_.port(); }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }

  /// Requests currently admitted and not yet answered.
  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Options off the environment: TURL_SERVE_PORT (default 0 = ephemeral)
  /// and TURL_SERVE_REPLICAS (default 2). A value that is not a whole
  /// integer in range logs a warning and keeps the default.
  static ServeOptions OptionsFromEnv();

 private:
  /// One model replica; inflight_cost is the dispatcher's load signal.
  struct Replica {
    std::unique_ptr<rt::InferenceSession> session;
    std::unique_ptr<rt::BatchScheduler> scheduler;
    std::atomic<int64_t> inflight_cost{0};
  };

  void ServeConnection(int fd);
  /// Reads, decodes, runs and answers one frame. False when the connection
  /// must close (EOF, malformed frame, write failure).
  bool ServeOneFrame(int fd);
  /// Index of the least-loaded replica — an index (not a reference) so the
  /// wide event can name the replica that served the request.
  size_t PickReplica(int64_t cost);
  /// `wire_bytes`, when non-null, receives the encoded frame size (the wide
  /// event's bytes_out) whether or not the write succeeded.
  bool WriteResponse(int fd, const WireResponse& response,
                     int64_t* wire_bytes = nullptr);

  const core::TurlModel& model_;
  ServeOptions options_;

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<uint64_t> rr_counter_{0};
  std::atomic<int64_t> inflight_{0};

  /// Accept thread, connection queue and IO workers; declared after
  /// everything ServeConnection reads.
  obs::server::ConnectionServer core_;

  /// "serve.listener" in /healthz while replicas are warm and the listener
  /// accepts — a scrape can tell "process up" from "serving traffic".
  std::optional<obs::server::ScopedReadinessProbe> readiness_;
  /// SLO targets installed in the global watchdog for this Start/Stop cycle
  /// (ids for RemoveTarget).
  std::vector<int> slo_target_ids_;
};

}  // namespace serve
}  // namespace turl

#endif  // TURL_SERVE_SERVER_H_
