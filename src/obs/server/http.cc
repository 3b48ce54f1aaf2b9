#include "obs/server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>

namespace turl {
namespace obs {
namespace server {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

void ParseQuery(const std::string& q, std::map<std::string, std::string>* out) {
  size_t pos = 0;
  while (pos < q.size()) {
    size_t amp = q.find('&', pos);
    if (amp == std::string::npos) amp = q.size();
    const std::string pair = q.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (!pair.empty()) (*out)[pair] = "";
    } else {
      (*out)[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
}

timeval Millis(int ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return tv;
}

}  // namespace

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool ParseRequestHead(const std::string& head, HttpRequest* request) {
  std::istringstream in(head);
  std::string line;
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();

  // Start line: METHOD SP target SP HTTP/x.y — exactly three tokens.
  std::istringstream start(line);
  std::string target, extra;
  if (!(start >> request->method >> target >> request->version)) return false;
  if (start >> extra) return false;
  if (request->method.empty() || target.empty() || target[0] != '/') {
    return false;
  }
  if (request->version.rfind("HTTP/", 0) != 0) return false;

  const size_t qmark = target.find('?');
  request->path = target.substr(0, qmark);
  if (qmark != std::string::npos) {
    ParseQuery(target.substr(qmark + 1), &request->query);
  }

  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    request->headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                                  Trim(line.substr(colon + 1)));
  }
  return true;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::ostringstream out;
  out << "HTTP/1.0 " << response.status << ' ' << StatusReason(response.status)
      << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << response.body;
  return out.str();
}

bool ReadRequestHead(int fd, std::string* head, size_t max_bytes) {
  head->clear();
  char buf[1024];
  while (head->size() < max_bytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // Error or SO_RCVTIMEO timeout (EAGAIN).
    }
    if (n == 0) return false;  // EOF before the terminator.
    head->append(buf, static_cast<size_t>(n));
    const size_t end = head->find("\r\n\r\n");
    if (end != std::string::npos) {
      head->resize(end);
      return true;
    }
  }
  return false;
}

bool WriteAll(int fd, const char* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n =
        ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

void SetRecvTimeout(int fd, int timeout_ms) {
  const timeval tv = Millis(timeout_ms);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

Status Dial(const std::string& host, int port, int timeout_ms, int* fd) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  const int s = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
  const timeval tv = Millis(timeout_ms);
  ::setsockopt(s, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(s, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IoError("connect " + host + ":" +
                                          std::to_string(port) + ": " +
                                          strerror(errno));
    ::close(s);
    return status;
  }
  *fd = s;
  return Status::OK();
}

Status HttpGet(const std::string& host, int port, const std::string& target,
               HttpClientResponse* out, int timeout_ms) {
  int fd = -1;
  if (Status s = Dial(host, port, timeout_ms, &fd); !s.ok()) return s;

  const std::string request = "GET " + target +
                              " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!WriteAll(fd, request.data(), request.size())) {
    ::close(fd);
    return Status::IoError("send failed");
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("recv: " + std::string(strerror(errno)));
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IoError("truncated response (no header terminator)");
  }
  const std::string head = raw.substr(0, head_end);
  out->body = raw.substr(head_end + 4);

  // Status line: HTTP/x.y CODE REASON.
  std::istringstream in(head);
  std::string line;
  std::getline(in, line);
  std::istringstream start(line);
  std::string version, code;
  if (!(start >> version >> code) || version.rfind("HTTP/", 0) != 0) {
    return Status::IoError("malformed status line: " + line);
  }
  out->status = std::atoi(code.c_str());
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (ToLower(Trim(line.substr(0, colon))) == "content-type") {
      out->content_type = Trim(line.substr(colon + 1));
    }
  }
  return Status::OK();
}

}  // namespace server
}  // namespace obs
}  // namespace turl
