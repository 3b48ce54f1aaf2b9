#ifndef TURL_CKPT_FORMAT_H_
#define TURL_CKPT_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace turl {
namespace ckpt {

/// Checkpoint format v2 — the on-disk layer of `turl::ckpt`
/// =========================================================
/// A checkpoint file is a header, a list of named sections, and a footer,
/// all little-endian:
///
///   header:       u32 magic 'TURL'   u32 version = 2   u64 section_count
///   per section:  u64 name_len, name bytes,
///                 u64 payload_len, u32 payload_crc32, payload bytes
///   footer:       u32 footer_magic 'TLRT'
///                 u32 crc32 of every byte before the footer
///
/// The per-section CRC localizes corruption for diagnostics; the footer CRC
/// rejects any bit flip or truncation anywhere in the file (a truncated tail
/// also loses the footer magic). Writers produce the file atomically:
/// everything goes to `<path>.tmp`, is fsync'd, and only then renamed over
/// `path` — a crash at any point leaves either the complete previous file or
/// a stray `.tmp`, never a half-written checkpoint under the real name.
/// Readers validate the whole file (footer CRC, then every section bound and
/// CRC) before returning a single section, so callers can stage loads and
/// commit only on success.

/// One named section: an opaque payload the layer above interprets.
struct Section {
  std::string name;
  std::string payload;
};

/// Serializes the sections to `path` via write-to-tmp + fsync + atomic
/// rename (the containing directory is fsync'd as well so the rename itself
/// is durable). On failure the destination file is untouched; a partial
/// `<path>.tmp` may remain and is overwritten by the next attempt.
Status WriteCheckpointFile(const std::string& path,
                           const std::vector<Section>& sections);

/// Reads and fully validates a v2 checkpoint. Every claimed length is
/// bounded by the actual file size before any allocation, and both the
/// footer CRC and every section CRC must verify; on any failure `*sections`
/// is left empty and a non-OK status describes the first problem found.
Status ReadCheckpointFile(const std::string& path,
                          std::vector<Section>* sections);

/// Format version of the file at `path` (1 = legacy stream read by
/// nn::LoadCheckpoint, 2 = sectioned format above) or 0 when the file is
/// missing, unreadable, or does not start with the TURL magic.
uint32_t PeekCheckpointVersion(const std::string& path);

/// Writes a small pointer file (e.g. `LATEST`) with the same tmp + fsync +
/// rename protocol, so the pointer can never be observed half-written.
Status WritePointerFile(const std::string& path, const std::string& contents);

/// Reads a pointer file previously written by WritePointerFile.
Status ReadPointerFile(const std::string& path, std::string* contents);

/// In-memory payload builder for Section::payload. Same little-endian
/// encoding as util/serialize's BinaryWriter, but into a string, so the
/// section CRC can be computed before anything touches the disk.
class PayloadWriter {
 public:
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteFloat(float v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  /// Raw float block with no length prefix (caller wrote the count).
  void WriteFloatSpan(const float* data, size_t n);
  void WriteFloatVector(const std::vector<float>& v);
  void WriteU64Vector(const std::vector<uint64_t>& v);
  void WriteI64Vector(const std::vector<int64_t>& v);
  void WriteDoubleVector(const std::vector<double>& v);

  size_t size() const { return buf_.size(); }
  std::string Take() { return std::move(buf_); }

 private:
  void Append(const void* data, size_t n);

  std::string buf_;
};

/// Bounded reader over a Section::payload. Mirrors PayloadWriter; any read
/// past the payload end (including a corrupt length prefix larger than the
/// remaining bytes) flips status() to an error *before* allocating and
/// returns a zero value. The payload must outlive the reader.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : data_(payload) {}

  PayloadReader(const PayloadReader&) = delete;
  PayloadReader& operator=(const PayloadReader&) = delete;

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadFloat();
  double ReadDouble();
  std::string ReadString();
  /// Raw float block with no length prefix.
  bool ReadFloatSpan(float* out, size_t n);
  std::vector<float> ReadFloatVector();
  std::vector<uint64_t> ReadU64Vector();
  std::vector<int64_t> ReadI64Vector();
  std::vector<double> ReadDoubleVector();

  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }
  /// True when every byte was consumed without error — loaders require this
  /// so trailing garbage in a section is detected.
  bool Exhausted() const { return status_.ok() && pos_ == data_.size(); }

  /// Marks the reader failed with an IoError (first error wins).
  void Fail(const std::string& message);
  /// Raw bounded copy of `n` bytes; false (and failed status) when short.
  bool TakeRaw(void* out, size_t n);

 private:
  bool Take(void* out, size_t n);

  const std::string& data_;
  size_t pos_ = 0;
  Status status_;
};

namespace testing {
/// Fault injection: the next WriteCheckpointFile call fails (as if the
/// process was killed) once `n` bytes have reached the OS — the `.tmp` file
/// is left partial and no rename or fsync happens. One-shot: the hook
/// disarms after triggering. Pass -1 to disarm explicitly.
void SetWriteFailureAfterBytes(int64_t n);
}  // namespace testing

}  // namespace ckpt
}  // namespace turl

#endif  // TURL_CKPT_FORMAT_H_
