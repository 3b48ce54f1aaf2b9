#include "obs/server/connection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/server/http.h"
#include "util/logging.h"

namespace turl {
namespace obs {
namespace server {

ConnectionServer::ConnectionServer(Options options, ConnectionHandler serve,
                                   ShedWriter shed)
    : options_(std::move(options)),
      serve_(std::move(serve)),
      shed_(std::move(shed)) {
  TURL_CHECK_GT(options_.num_workers, 0);
  TURL_CHECK_GT(options_.max_queued, 0);
}

ConnectionServer::~ConnectionServer() { Stop(); }

Status ConnectionServer::Start() {
  if (running()) return Status::FailedPrecondition("server already running");
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port out of range [0, 65535]: " +
                                   std::to_string(options_.port));
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket: " + std::string(strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::IoError("bind " + options_.bind_address + ":" +
                                     std::to_string(options_.port) + ": " +
                                     strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    const Status s = Status::IoError("listen: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  // Resolve port 0 to the kernel-assigned ephemeral port.
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status s =
        Status::IoError("getsockname: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);

  stopping_.store(false, std::memory_order_release);
  hard_stop_ = false;
  exited_workers_ = 0;
  pending_.clear();
  in_flight_.assign(static_cast<size_t>(options_.num_workers), -1);
  running_.store(true, std::memory_order_release);

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

void ConnectionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop accepting. The accept thread polls stopping_ every 100ms; the
  // store happens under mu_ so no worker can miss the wake-up between its
  // predicate check and its wait.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Graceful drain: workers finish the queue, then exit their loops.
  work_cv_.notify_all();
  bool drained;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained = drained_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.drain_deadline_ms), [this] {
          return exited_workers_ == static_cast<int>(workers_.size());
        });
  }

  // 3. Hard deadline: shut down in-flight sockets so blocked reads/writes
  // fail immediately; workers close what is still queued unserved.
  if (!drained) {
    std::lock_guard<std::mutex> lock(conn_mu_);
    hard_stop_ = true;
    for (int fd : in_flight_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // Anything still queued was never handed to a worker.
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void ConnectionServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;  // Timeout or EINTR — re-check stopping_.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(pending_.size()) >= options_.max_queued) {
        shed = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      Shed(fd);
    } else {
      work_cv_.notify_one();
    }
  }
}

void ConnectionServer::Shed(int fd) {
  // Backpressure: refuse right here rather than queue unboundedly — a slow
  // consumer must not grow server memory.
  shed_(fd);
  // Half-close, then drain the request the client is mid-send on: closing
  // with unread bytes in the socket RSTs the connection, which can destroy
  // the refusal before the client reads it. The drain is bounded (bytes and
  // time) so a hostile peer cannot pin the accept thread.
  ::shutdown(fd, SHUT_WR);
  SetRecvTimeout(fd, /*timeout_ms=*/500);
  char drain[1024];
  for (int i = 0; i < 64 && ::recv(fd, drain, sizeof(drain), 0) > 0; ++i) {
  }
  ::close(fd);
}

void ConnectionServer::WorkerLoop(size_t slot) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) break;  // Stopping and fully drained.
      fd = pending_.front();
      pending_.pop_front();
    }
    bool serve = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      serve = !hard_stop_;  // Deadline lapsed: close unserved.
      if (serve) in_flight_[slot] = fd;
    }
    if (serve) {
      SetRecvTimeout(fd, options_.read_timeout_ms);
      serve_(fd);
      // Clear the slot before close() so the hard-deadline shutdown() can
      // never hit a recycled fd.
      std::lock_guard<std::mutex> lock(conn_mu_);
      in_flight_[slot] = -1;
    }
    ::close(fd);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++exited_workers_;
  }
  drained_cv_.notify_all();
}

}  // namespace server
}  // namespace obs
}  // namespace turl
