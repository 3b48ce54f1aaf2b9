#ifndef TURL_OBS_SERVER_CONNECTION_SERVER_H_
#define TURL_OBS_SERVER_CONNECTION_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace turl {
namespace obs {
namespace server {

/// The socket lifecycle both TCP servers share (ObsServer's HTTP plane and
/// serve::ServeServer's binary protocol); the owner supplies what happens on
/// a connection and nothing else.
///
/// Threading model: one accept thread (a 100ms poll() loop, so Stop() is
/// prompt) feeds a bounded queue of accepted connections drained by a fixed
/// pool of worker threads, each owning one connection at a time. When the
/// queue is full the accept thread sheds the connection instead of queueing
/// unboundedly: it calls the shed writer, half-closes, drains what the peer
/// is mid-send on (bounded in bytes and time) and closes.
///
/// Stop() runs in three steps: (1) stop accepting and close the listener;
/// (2) graceful drain — workers finish every queued and in-flight connection,
/// bounded by drain_deadline_ms; (3) hard deadline — every fd still in
/// flight is shutdown(SHUT_RDWR) so blocked reads/writes fail at once, and
/// connections still queued are closed unserved. Stop() is idempotent, also
/// runs from the destructor, and Start() works again afterwards.
class ConnectionServer {
 public:
  struct Options {
    /// TCP port in [0, 65535]; 0 binds an ephemeral port (read it back via
    /// port()).
    int port = 0;
    /// Bind address. Loopback by default; widen deliberately.
    std::string bind_address = "127.0.0.1";
    /// Worker threads serving accepted connections.
    int num_workers = 2;
    /// Accepted-but-unserved connections held at once; beyond this the
    /// accept thread sheds.
    int max_queued = 16;
    /// SO_RCVTIMEO on every served connection: a client that connects and
    /// goes silent cannot pin a worker past this.
    int read_timeout_ms = 2000;
    /// Stop(): grace period for queued and in-flight connections before
    /// their sockets are forcibly shut down.
    int drain_deadline_ms = 2000;
  };

  /// Serves one accepted connection on a worker thread. The core closes
  /// `fd` after it returns.
  using ConnectionHandler = std::function<void(int fd)>;
  /// Writes the refusal onto a connection shed at accept (queue full); runs
  /// on the accept thread, so it must not block for long.
  using ShedWriter = std::function<void(int fd)>;

  ConnectionServer(Options options, ConnectionHandler serve, ShedWriter shed);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds, listens and spawns the accept + worker threads. InvalidArgument
  /// for a port outside [0, 65535] or a malformed bind address; fails
  /// without leaking if the address cannot be bound or the server runs.
  Status Start();

  /// The three-step shutdown (see class comment).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True from the moment Stop() stops accepting until the next Start():
  /// handlers use it to wind down connections that carry several requests.
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  /// The bound port (resolves port 0 to the kernel-assigned one). 0 before
  /// the first successful Start().
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void Shed(int fd);
  void WorkerLoop(size_t slot);

  const Options options_;
  const ConnectionHandler serve_;
  const ShedWriter shed_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable work_cv_;     ///< Queue non-empty or stopping.
  std::condition_variable drained_cv_;  ///< A worker exited its loop.
  std::deque<int> pending_;             ///< Accepted fds awaiting a worker.
  int exited_workers_ = 0;

  /// fd each worker currently serves (-1 idle) and whether the drain
  /// deadline lapsed; one lock, so a worker either sees the hard stop or has
  /// its fd in the sweep, and the sweep's shutdown() never races a close().
  std::mutex conn_mu_;
  std::vector<int> in_flight_;
  bool hard_stop_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_SERVER_CONNECTION_SERVER_H_
