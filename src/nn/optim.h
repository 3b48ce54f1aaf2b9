#ifndef TURL_NN_OPTIM_H_
#define TURL_NN_OPTIM_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/module.h"
#include "util/status.h"

namespace turl {
namespace nn {

/// Adam configuration. Defaults follow the paper's pre-training setup
/// (Adam, initial LR 1e-4 with linear decay).
struct AdamConfig {
  float lr = 1e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

class GradShard;

/// Adam optimizer over a ParamStore. Holds first/second moment buffers per
/// parameter; Step() consumes the accumulated gradients and ZeroGrad()s
/// nothing (callers own the zeroing so they can accumulate across batches).
///
/// The constructor cuts every parameter into chunks of kChunkElems elements
/// (the last one ragged); the bounds depend only on the shapes. Step() makes
/// two sweeps over those chunks, on nn::TrainPool() when there is one and
/// on the caller otherwise: the first reduces the shards into the gradient
/// and takes each chunk's sum of squares, the second clips and applies
/// Adam. The result is bit-identical at any thread count (DESIGN.md §13).
class Adam {
 public:
  static constexpr int64_t kChunkElems = 16384;

  Adam(ParamStore* store, AdamConfig config);

  /// One update using `lr_scale` * config.lr as the effective learning rate
  /// (used by the linear-decay schedule). Returns the gradient's global L2
  /// norm before clipping.
  ///
  /// With `shards` (data-parallel gradient sinks over this optimizer's
  /// store, see nn/train_parallel.h), every gradient is first overwritten
  /// with +0 plus each shard's buffer in ascending shard order; a parameter
  /// no shard touched gets zeros. Without shards the accumulated gradients
  /// are used as they are, and parameters without gradients are skipped.
  /// When the norm exceeds `max_norm`, every gradient is scaled by
  /// max_norm / norm in place before the update.
  float Step(float lr_scale = 1.0f,
             float max_norm = std::numeric_limits<float>::infinity(),
             const std::vector<GradShard*>& shards = {});

  int64_t step_count() const { return step_; }
  const AdamConfig& config() const { return config_; }

  /// Checkpoint access to the per-parameter moment buffers, parallel to
  /// store->params().
  const std::vector<std::vector<float>>& first_moments() const { return m_; }
  const std::vector<std::vector<float>>& second_moments() const { return v_; }

  /// Restores moments and step counter (the bias-correction clock) from a
  /// checkpoint. Every buffer must match the construction-time layout —
  /// anything else is a FailedPrecondition and the optimizer is untouched.
  Status SetState(std::vector<std::vector<float>> m,
                  std::vector<std::vector<float>> v, int64_t step);

 private:
  /// Elements [begin, end) of parameter `param`.
  struct Chunk {
    size_t param;
    int64_t begin;
    int64_t end;
  };

  ParamStore* store_;
  AdamConfig config_;
  int64_t step_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::vector<Chunk> chunks_;
};

/// Linearly decaying learning-rate multiplier: 1 at step 0 down to
/// `final_fraction` at `total_steps` (clamped beyond). Matches the paper's
/// "linearly decreasing learning rate".
class LinearDecaySchedule {
 public:
  LinearDecaySchedule(int64_t total_steps, float final_fraction = 0.0f);

  /// Multiplier for the given 0-based step.
  float Scale(int64_t step) const;

 private:
  int64_t total_steps_;
  float final_fraction_;
};

}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_OPTIM_H_
