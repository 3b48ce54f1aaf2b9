#include "obs/server/server.h"

#include <sys/socket.h>

#include <chrono>

#include "obs/metrics.h"
#include "util/logging.h"

namespace turl {
namespace obs {
namespace server {

namespace {

Counter* RequestCounter() {
  static Counter* c = MetricsRegistry::Get().GetCounter("obs.server.requests");
  return c;
}

Counter* ShedCounter() {
  static Counter* c = MetricsRegistry::Get().GetCounter("obs.server.shed");
  return c;
}

Counter* BadRequestCounter() {
  static Counter* c =
      MetricsRegistry::Get().GetCounter("obs.server.bad_requests");
  return c;
}

Histogram* HandleHistogram() {
  static Histogram* h =
      MetricsRegistry::Get().GetHistogram("obs.server.handle_ms");
  return h;
}

/// The core's shed writer: an immediate 503 for a connection refused
/// because the queue is full.
void WriteShed(int fd) {
  ShedCounter()->Inc();
  HttpResponse resp;
  resp.status = 503;
  resp.body = "overloaded: connection queue full\n";
  const std::string wire = SerializeResponse(resp);
  WriteAll(fd, wire.data(), wire.size());
}

}  // namespace

ObsServer::ObsServer(Options options)
    : core_(std::move(options), [this](int fd) { ServeConnection(fd); },
            WriteShed) {}

void ObsServer::Handle(const std::string& path, Handler handler) {
  TURL_CHECK(!running()) << "Handle() after Start()";
  handlers_[path] = std::move(handler);
}

std::string ObsServer::base_url() const {
  return "http://127.0.0.1:" + std::to_string(port());
}

std::vector<std::string> ObsServer::paths() const {
  std::vector<std::string> out;
  out.reserve(handlers_.size());
  for (const auto& [path, handler] : handlers_) out.push_back(path);
  return out;
}

void ObsServer::ServeConnection(int fd) {
  std::string head;
  if (!ReadRequestHead(fd, &head)) {
    BadRequestCounter()->Inc();
    return;  // EOF/timeout/garbage before a full head — nothing to answer.
  }
  HttpRequest request;
  HttpResponse response;
  bool head_only = false;
  if (!ParseRequestHead(head, &request)) {
    BadRequestCounter()->Inc();
    response.status = 400;
    response.body = "malformed request\n";
  } else {
    head_only = request.method == "HEAD";
    const auto start = std::chrono::steady_clock::now();
    response = Dispatch(request);
    HandleHistogram()->Observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  RequestCounter()->Inc();
  std::string wire = SerializeResponse(response);
  if (head_only) wire.resize(wire.find("\r\n\r\n") + 4);
  WriteAll(fd, wire.data(), wire.size());
  ::shutdown(fd, SHUT_WR);  // Flush then signal EOF; the core closes.
}

HttpResponse ObsServer::Dispatch(const HttpRequest& request) const {
  HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response.status = 405;
    response.body = "method not allowed (endpoints are GET-only)\n";
    return response;
  }
  const auto it = handlers_.find(request.path);
  if (it == handlers_.end()) {
    response.status = 404;
    std::string body = "not found; endpoints:\n";
    for (const auto& [path, handler] : handlers_) body += "  " + path + "\n";
    response.body = std::move(body);
    return response;
  }
  try {
    return it->second(request);
  } catch (const std::exception& e) {
    response.status = 500;
    response.body = std::string("handler error: ") + e.what() + "\n";
    return response;
  }
}

}  // namespace server
}  // namespace obs
}  // namespace turl
