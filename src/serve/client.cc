#include "serve/client.h"

#include <unistd.h>

#include <vector>

#include "obs/server/http.h"

namespace turl {
namespace serve {

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ServeClient::Connect(const std::string& host, int port,
                            int timeout_ms) {
  Close();
  return obs::server::Dial(host, port, timeout_ms, &fd_);
}

Status ServeClient::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (!obs::server::WriteAll(fd_, bytes.data(), bytes.size())) {
    Close();
    return Status::IoError("write failed");
  }
  return Status::OK();
}

Status ServeClient::ReadResponse(WireResponse* out) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  uint8_t header[kResponseHeaderBytes];
  if (!ReadFull(fd_, header, sizeof(header))) {
    Close();
    return Status::IoError("connection closed before response header");
  }
  ResponseHeader parsed;
  const Status s =
      ParseResponseHeader(header, kDefaultMaxPayloadBytes, &parsed);
  if (!s.ok()) {
    Close();
    return s;
  }
  std::vector<uint8_t> payload(parsed.payload_len);
  if (parsed.payload_len > 0 &&
      !ReadFull(fd_, payload.data(), payload.size())) {
    Close();
    return Status::IoError("connection closed mid response payload");
  }
  out->status = parsed.status;
  out->request_id = parsed.request_id;
  out->rows = 0;
  out->cols = 0;
  out->hidden.clear();
  out->message.clear();
  const Status d =
      DecodeResponsePayload(payload.data(), payload.size(), out);
  if (!d.ok()) Close();
  return d;
}

Status ServeClient::Call(const core::EncodedTable& table, rt::TaskKind task,
                         uint64_t request_id, WireResponse* out,
                         uint32_t deadline_ms) {
  const Status w =
      SendRaw(EncodeRequestFrame(table, task, request_id, deadline_ms));
  if (!w.ok()) return w;
  return ReadResponse(out);
}

}  // namespace serve
}  // namespace turl
