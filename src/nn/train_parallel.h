#ifndef TURL_NN_TRAIN_PARALLEL_H_
#define TURL_NN_TRAIN_PARALLEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"

namespace turl {
namespace rt {
class ThreadPool;
}  // namespace rt

namespace nn {

/// Thread count for the training-side parallelism: the tape task-graph
/// executor in Tensor::Backward, the shard fan-out in core::Pretrainer and
/// the optimizer sweeps in Adam::Step.
/// Resolution: SetTrainThreads() override wins; otherwise $TURL_TRAIN_THREADS
/// (when set and positive); otherwise 1. Unlike the kernel and session pools
/// this defaults to *sequential* — parallel training is opt-in — but any
/// value is bit-identical to 1 by construction (see DESIGN.md §13).
int TrainThreads();

/// Overrides the thread count (n <= 0 re-reads the environment) and drops
/// any previously built pool. Test hook, mirrors kernels::SetKernelThreads.
void SetTrainThreads(int n);

/// Shared pool the training executors schedule on. Built lazily on first
/// use; returns nullptr while TrainThreads() <= 1 (sequential training never
/// spawns a thread).
rt::ThreadPool* TrainPool();

/// Private gradient sink for one data-parallel shard. Constructed over the
/// parameter stores whose gradients the shard may touch, it pre-sizes one
/// zero buffer per parameter; while installed via ScopedGradShard, the op
/// layer redirects leaf-parameter gradient accumulation into those buffers
/// (interior tape nodes are untouched — they are private to the shard's own
/// tape). The index is built once up front so concurrent Redirect calls from
/// other shards' threads never mutate shared state.
class GradShard {
 public:
  explicit GradShard(const std::vector<const ParamStore*>& stores);
  GradShard(const GradShard&) = delete;
  GradShard& operator=(const GradShard&) = delete;

  /// Redirect target for `impl`: the shard-private buffer when `impl` is a
  /// covered parameter, nullptr otherwise. Marks the slot dirty.
  float* Redirect(const TensorImpl* impl);

  /// Zeroes every buffer touched since construction / the last Reset.
  void Reset();

  /// The shard-private buffer for `impl` when it was written since
  /// construction / the last Reset; nullptr when untouched or not covered.
  /// Adam::Step reads the shards through this, summing them into the real
  /// gradients in ascending shard order.
  const float* Touched(const TensorImpl* impl) const;

 private:
  struct Slot {
    TensorImpl* impl;
    std::vector<float> buf;
    bool dirty = false;
  };
  std::vector<Slot> slots_;
  std::unordered_map<const TensorImpl*, size_t> index_;
};

/// Installs `shard` as the current thread's gradient redirect target for the
/// scope's lifetime. While installed, Tensor::Backward on this thread always
/// runs its tape sequentially (the shards themselves are the parallel axis).
class ScopedGradShard {
 public:
  explicit ScopedGradShard(GradShard* shard);
  ~ScopedGradShard();
  ScopedGradShard(const ScopedGradShard&) = delete;
  ScopedGradShard& operator=(const ScopedGradShard&) = delete;

 private:
  GradShard* previous_;
};

/// The current thread's installed shard, or nullptr.
GradShard* CurrentGradShard();

/// Decorrelated per-(seed, step, shard) RNG stream id for sharded data
/// parallelism: depends only on logical position, never on thread count or
/// schedule, so shard RNG is reproducible under any parallelism.
uint64_t ShardStreamSeed(uint64_t seed, int64_t step, int64_t shard);

}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_TRAIN_PARALLEL_H_
