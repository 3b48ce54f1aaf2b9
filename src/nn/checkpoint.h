#ifndef TURL_NN_CHECKPOINT_H_
#define TURL_NN_CHECKPOINT_H_

#include <string>

#include "nn/module.h"
#include "util/status.h"

namespace turl {
namespace nn {

/// Loads a checkpoint into an already-constructed ParamStore. Every
/// parameter in the file must exist in `store` with a matching shape and
/// vice versa (architectural mismatch is an error, not a partial load).
/// All parameters are staged and validated before any are committed, so a
/// truncated or mismatched file leaves the store completely untouched.
/// This is the legacy v1 format (u32 magic 'TURL', u32 version 1, u64
/// param count, then per param its name, rank, dims and float data), kept
/// read-only; checkpoints are written as v2 by ckpt::SaveModel.
Status LoadCheckpoint(ParamStore* store, const std::string& path);

}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_CHECKPOINT_H_
