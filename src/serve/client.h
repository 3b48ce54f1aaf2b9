#ifndef TURL_SERVE_CLIENT_H_
#define TURL_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "core/table_encoding.h"
#include "rt/request.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace turl {
namespace serve {

/// Blocking client for the serve protocol: one connection, any number of
/// Call()s in order. This is the reference wire speaker — the fuzz tests
/// and perfbench's serve_sparse load generator both drive a server through
/// it — and deliberately small: no pipelining, no reconnect policy.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects to host:port (dotted-quad hosts, e.g. "127.0.0.1"). The
  /// timeout covers connect and every later frame read (SO_RCVTIMEO).
  Status Connect(const std::string& host, int port, int timeout_ms = 5000);

  /// Sends one request frame and blocks for its response. A non-kOk wire
  /// status (OVERLOADED, DEADLINE_EXCEEDED, ...) is a *successful* call —
  /// it lands in out->status; the returned Status is non-OK only for
  /// transport or framing failures, after which the connection is dead.
  /// `deadline_ms` is relative to server receipt (0 = already expired,
  /// kNoDeadline = none).
  Status Call(const core::EncodedTable& table, rt::TaskKind task,
              uint64_t request_id, WireResponse* out,
              uint32_t deadline_ms = kNoDeadline);

  /// Sends raw bytes as-is — the malformed-frame path for protocol tests.
  Status SendRaw(const std::string& bytes);

  /// Reads one response frame (header + payload) into `out`.
  Status ReadResponse(WireResponse* out);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace serve
}  // namespace turl

#endif  // TURL_SERVE_CLIENT_H_
