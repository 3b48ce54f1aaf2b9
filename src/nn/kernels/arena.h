#ifndef TURL_NN_KERNELS_ARENA_H_
#define TURL_NN_KERNELS_ARENA_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace turl {
namespace nn {
namespace kernels {

/// Per-thread buffer pool for autograd intermediates. Tensor shapes recur
/// exactly step after step (same model, same batch layout), so recycling
/// buffers by exact element count turns the per-op heap allocation of the
/// naive ops into a freelist pop: in steady state a forward+backward encode
/// step performs O(1) new heap allocations for tensor storage.
///
/// Lifetime rules:
///  - While an ArenaScope is active on a thread, ops allocate their output
///    (and later their gradient) buffers via the pool, and the resulting
///    TensorImpl is marked pooled.
///  - A pooled impl returns its buffers to the pool of whichever thread
///    destroys it — typically when Tensor::Backward(release_graph=true)
///    severs the tape and the intermediates die, or when the caller drops
///    the last tensor holding the graph. Inside an nn::NoGradScope no tape
///    holds an intermediate: it dies, mid-forward, as soon as the next op
///    has consumed it.
///  - Pools are thread-local: no locks on the hot path. A buffer leased on
///    one thread and recycled on another simply migrates; per-class and
///    total-byte caps keep any pool bounded.
///
/// Observability: pool hits increment the `nn.arena_reuse` counter, fresh
/// heap allocations increment `nn.heap_alloc` (turl::obs metrics), so the
/// recycling behaviour is assertable in tests and visible in BENCH dumps.

/// RAII marker making the current thread's op allocations pool-backed.
/// Scopes nest; re-entering costs one thread-local increment.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
};

/// True while at least one ArenaScope is alive on this thread.
bool ArenaActive();

/// Buffer of n floats from the pool (always pool-backed, regardless of
/// ArenaActive). Reused buffers hold stale values unless `zero`; fresh
/// allocations are always zeroed (vector semantics).
std::vector<float> LeasePooled(std::size_t n, bool zero);

/// Buffer of n floats for an op output: pool-backed iff an ArenaScope is
/// active, plain heap otherwise.
std::vector<float> AllocBuffer(std::size_t n, bool zero);

/// Returns a buffer (any origin) to this thread's pool; no-op for empty
/// buffers and during thread teardown.
void RecycleBuffer(std::vector<float>&& buf);

/// Drops every cached buffer of the calling thread's pool (tests).
void ClearThreadBufferPool();

/// RAII scratch buffer leased from the pool — for op-internal state that
/// outlives the forward call via the backward closure (attention
/// probabilities, layernorm row statistics) but is not a TensorImpl.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(std::size_t n, bool zero) : buf_(LeasePooled(n, zero)) {}
  ~PooledBuffer() {
    if (!buf_.empty()) RecycleBuffer(std::move(buf_));
  }
  PooledBuffer(PooledBuffer&& o) noexcept : buf_(std::move(o.buf_)) {
    o.buf_.clear();
  }
  PooledBuffer& operator=(PooledBuffer&& o) noexcept {
    if (this != &o) {
      if (!buf_.empty()) RecycleBuffer(std::move(buf_));
      buf_ = std::move(o.buf_);
      o.buf_.clear();
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<float> buf_;
};

}  // namespace kernels
}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_KERNELS_ARENA_H_
