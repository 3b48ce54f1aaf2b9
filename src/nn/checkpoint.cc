#include "nn/checkpoint.h"

#include <cstring>
#include <unordered_map>

#include "util/serialize.h"

namespace turl {
namespace nn {

namespace {
constexpr uint32_t kMagic = 0x5455524Cu;  // "TURL"
constexpr uint32_t kVersion = 1;
}  // namespace

Status LoadCheckpoint(ParamStore* store, const std::string& path) {
  BinaryReader r(path);
  if (!r.status().ok()) return r.status();
  if (r.ReadU32() != kMagic) return Status::IoError("bad checkpoint magic");
  if (r.ReadU32() != kVersion) return Status::IoError("bad checkpoint version");
  const uint64_t count = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (count != store->params().size()) {
    return Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) + " params, store has " +
        std::to_string(store->params().size()));
  }
  std::unordered_map<std::string, Tensor> by_name;
  for (const auto& [name, t] : store->params()) by_name.emplace(name, t);
  // Stage every parameter first: a file that fails at param k must not have
  // already overwritten params 0..k-1 (the old in-place loop corrupted the
  // store on truncated or mismatched files).
  std::vector<Tensor> targets;
  std::vector<std::vector<float>> staged;
  targets.reserve(count);
  staged.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const std::string name = r.ReadString();
    const uint64_t rank = r.ReadU64();
    if (!r.status().ok()) return r.status();
    if (rank > r.remaining() / sizeof(int64_t)) {
      return Status::IoError("corrupt rank for param '" + name + "'");
    }
    Shape shape(rank);
    for (uint64_t d = 0; d < rank; ++d) shape[d] = r.ReadI64();
    std::vector<float> data = r.ReadFloatVector();
    if (!r.status().ok()) return r.status();
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::FailedPrecondition("unknown parameter in checkpoint: " +
                                        name);
    }
    Tensor t = it->second;
    if (t.shape() != shape) {
      return Status::FailedPrecondition("shape mismatch for " + name + ": " +
                                        ShapeToString(t.shape()) + " vs " +
                                        ShapeToString(shape));
    }
    if (data.size() != size_t(t.numel())) {
      return Status::IoError("element count mismatch for " + name + ": " +
                             std::to_string(data.size()) + " vs " +
                             std::to_string(t.numel()));
    }
    targets.push_back(t);
    staged.push_back(std::move(data));
  }
  if (r.remaining() != 0) {
    return Status::IoError("trailing bytes after checkpoint payload: " +
                           std::to_string(r.remaining()));
  }
  // Fully validated — commit. Nothing below can fail.
  for (size_t i = 0; i < targets.size(); ++i) {
    std::memcpy(targets[i].data(), staged[i].data(),
                staged[i].size() * sizeof(float));
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace turl
