#ifndef TURL_TESTS_V1_CHECKPOINT_WRITER_H_
#define TURL_TESTS_V1_CHECKPOINT_WRITER_H_

#include <string>

#include "nn/module.h"
#include "util/serialize.h"
#include "util/status.h"

namespace turl {
namespace testing_util {

/// Writes `store` in the legacy v1 checkpoint stream that nn::LoadCheckpoint
/// (and ckpt::LoadModel's read-compat path) still accepts: u32 magic 'TURL',
/// u32 version 1, u64 param count, then per param its name, rank, dims and
/// float data. Only tests produce v1 files; the library writes v2.
inline Status SaveV1Checkpoint(const nn::ParamStore& store,
                               const std::string& path) {
  BinaryWriter w(path);
  w.WriteU32(0x5455524Cu);  // "TURL"
  w.WriteU32(1);
  w.WriteU64(store.params().size());
  for (const auto& [name, t] : store.params()) {
    w.WriteString(name);
    w.WriteU64(t.shape().size());
    for (int64_t d : t.shape()) w.WriteI64(d);
    w.WriteFloatVector(t.ToVector());
  }
  return w.Close();
}

}  // namespace testing_util
}  // namespace turl

#endif  // TURL_TESTS_V1_CHECKPOINT_WRITER_H_
