#ifndef TURL_OBS_SERVER_SERVER_H_
#define TURL_OBS_SERVER_SERVER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/server/connection_server.h"
#include "obs/server/http.h"
#include "util/status.h"

namespace turl {
namespace obs {
namespace server {

/// The live observability plane: a dependency-free HTTP/1.0 server over
/// POSIX sockets that exposes the in-process metrics/trace/profile state of
/// a running job (see handlers.h for the standard endpoint set).
///
/// The socket lifecycle — accept thread, bounded connection queue, worker
/// pool, three-step Stop() — is ConnectionServer's (see its class comment).
/// This class adds one request per connection, Connection: close, and sheds
/// a full queue with an immediate 503 (counted as `obs.server.shed`).
///
/// Handlers run on worker threads, so anything they touch must be
/// thread-safe (the metrics registry, tracer and profiler all are).
class ObsServer {
 public:
  using Options = ConnectionServer::Options;
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit ObsServer(Options options = Options());

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Registers `handler` for exact-match GET/HEAD requests on `path`.
  /// Must be called before Start().
  void Handle(const std::string& path, Handler handler);

  /// Binds, listens and spawns the accept + worker threads. Fails (without
  /// leaking) if the port is outside [0, 65535], the address cannot be
  /// bound, or the server already runs.
  Status Start() { return core_.Start(); }

  /// Graceful drain then hard-deadline shutdown (see ConnectionServer).
  /// Safe to call twice; Start() works again afterwards.
  void Stop() { core_.Stop(); }

  bool running() const { return core_.running(); }
  /// The bound port (resolves port 0 to the kernel-assigned one). 0 before
  /// the first successful Start().
  int port() const { return core_.port(); }
  /// "http://127.0.0.1:<port>" convenience for logs and tests.
  std::string base_url() const;

  /// Registered endpoint paths, sorted — what the index page lists.
  std::vector<std::string> paths() const;

 private:
  void ServeConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request) const;

  std::map<std::string, Handler> handlers_;
  /// Declared last: its destructor stops the workers that read handlers_.
  ConnectionServer core_;
};

}  // namespace server
}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_SERVER_SERVER_H_
