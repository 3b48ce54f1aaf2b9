#ifndef TURL_OBS_SERVER_HTTP_H_
#define TURL_OBS_SERVER_HTTP_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace turl {
namespace obs {
namespace server {

/// Minimal HTTP/1.0 wire handling for the observability plane: request-head
/// parsing, response serialization, and EINTR-safe socket IO that copes with
/// partial reads and partial writes. Deliberately tiny — one request per
/// connection, no keep-alive, no chunked encoding, no TLS — because the
/// server only ever answers small GET scrapes on localhost.

/// One parsed request head (start line + headers; scrape endpoints carry no
/// body, so anything after the blank line is ignored).
struct HttpRequest {
  std::string method;   ///< Uppercase as received ("GET", "HEAD", ...).
  std::string path;     ///< Target with the query string stripped.
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1".
  /// Decoded query parameters (`?slow=5&format=json`); a key without '='
  /// maps to the empty string. No %-decoding — scrape params are plain.
  std::map<std::string, std::string> query;
  /// Headers in arrival order; names are lower-cased, values trimmed.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// One response. SerializeResponse adds Content-Length and Connection: close
/// so clients can read to EOF.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Canonical reason phrase ("OK", "Not Found", ...; "Unknown" otherwise).
const char* StatusReason(int status);

/// Parses everything up to (not including) the blank line. False on any
/// malformed start line or header.
bool ParseRequestHead(const std::string& head, HttpRequest* request);

/// Full response bytes: status line, headers, blank line, body.
std::string SerializeResponse(const HttpResponse& response);

/// Reads from `fd` until the request head terminator ("\r\n\r\n") arrives,
/// retrying short reads and EINTR. `*head` receives the bytes before the
/// terminator. False on EOF before the terminator, a read error or timeout
/// (SO_RCVTIMEO), or `max_bytes` exceeded (oversized/garbage request).
bool ReadRequestHead(int fd, std::string* head, size_t max_bytes = 8192);

/// Writes all `len` bytes, retrying short writes and EINTR; SIGPIPE is
/// suppressed (a peer that hung up surfaces as `false`, not a signal).
bool WriteAll(int fd, const char* data, size_t len);

/// Sets SO_RCVTIMEO: a blocking read on `fd` fails after `timeout_ms`.
void SetRecvTimeout(int fd, int timeout_ms);

/// Opens a blocking TCP connection to host:port (dotted-quad host, e.g.
/// "127.0.0.1") and stores the connected socket in `*fd`. The timeout is
/// set as SO_RCVTIMEO and SO_SNDTIMEO, so it bounds the connect and every
/// later read and write. `*fd` is untouched on failure.
Status Dial(const std::string& host, int port, int timeout_ms, int* fd);

/// Client-side response, for tests and the scrape bench.
struct HttpClientResponse {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Blocking one-shot GET against 127.0.0.1-style hosts: connects, sends the
/// request, reads to EOF (the server closes per HTTP/1.0) and parses the
/// status line, Content-Type and body.
Status HttpGet(const std::string& host, int port, const std::string& target,
               HttpClientResponse* out, int timeout_ms = 5000);

}  // namespace server
}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_SERVER_HTTP_H_
