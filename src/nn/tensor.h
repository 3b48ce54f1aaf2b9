#ifndef TURL_NN_TENSOR_H_
#define TURL_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace turl {

class Rng;

namespace nn {

/// Tensor shape: dimension sizes, row-major layout.
using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape (product of dims; 1 for rank 0).
int64_t ShapeNumel(const Shape& shape);

/// "[2, 3]"-style rendering for error messages.
std::string ShapeToString(const Shape& shape);

class Tensor;

/// Internal storage + autograd node for a Tensor. Not used directly by
/// library users; exposed in this header because ops (friend-like free
/// functions in ops.h) build graphs out of these nodes.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  /// Gradient buffer; empty until the first accumulation (lazily allocated
  /// by Tensor::AccumulateGrad or ZeroGrad).
  std::vector<float> grad;
  /// Leaf tensors with requires_grad (parameters) always receive gradients;
  /// interior nodes receive them while a tape is alive.
  bool requires_grad = false;
  /// Parents in the autograd DAG (inputs of the op that produced this node).
  std::vector<std::shared_ptr<TensorImpl>> parents;
  /// Accumulates this node's grad into its parents' grads. Null for leaves.
  std::function<void()> backward_fn;
  /// True when data/grad were leased from the kernels buffer arena (the
  /// node was built inside a kernels::ArenaScope); the destructor then
  /// returns both buffers to the pool for reuse by the next step.
  bool pooled = false;
  /// True when the node was built inside a NoGradScope: it has no parents
  /// and no backward_fn, and Backward() from it is a checked failure.
  bool tape_free = false;

  ~TensorImpl();
};

/// RAII scope inside which ops record no autograd tape: their results
/// carry no parents and no backward closure, so every intermediate frees,
/// back into this thread's arena, as soon as the next op has consumed it.
/// The forward math is unchanged. Thread-local (a pool worker does not
/// inherit its caller's scope); scopes nest, and ops record again once the
/// outermost one closes. Inference opens it: TurlModel::Encode with
/// training=false and the score stage of rt::BulkRun.
class NoGradScope {
 public:
  NoGradScope() { ++depth_; }
  ~NoGradScope() { --depth_; }
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True while at least one NoGradScope is alive on this thread.
  static bool Active() { return depth_ > 0; }

 private:
  static inline thread_local int depth_ = 0;
};

/// A reference-counted, row-major float32 tensor with reverse-mode autograd.
///
/// Copying a Tensor is cheap (shared impl). Outside a NoGradScope, ops (see
/// ops.h) return new tensors wired into an autograd DAG; calling Backward()
/// on a scalar result runs reverse-mode differentiation and accumulates
/// gradients into every reachable tensor with requires_grad set (directly
/// or transitively). Inside a NoGradScope they return tape-free results,
/// which later ops treat as constants (as after Detach()).
///
/// The tape is the DAG itself: it is freed when the result tensors holding
/// it are destroyed. Backward() optionally severs graph edges afterwards to
/// release intermediates eagerly (the default).
class Tensor {
 public:
  /// Null tensor; defined() is false.
  Tensor() = default;

  /// Creation helpers --------------------------------------------------
  static Tensor Zeros(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// Wraps `values` (copied) with the given shape; sizes must agree.
  static Tensor FromVector(Shape shape, std::vector<float> values);
  /// Rank-1 tensor of size 1 holding `value`.
  static Tensor Scalar(float value);
  /// Tensor with every element drawn uniformly from [lo, hi).
  static Tensor Random(Shape shape, Rng& rng, float lo = -1.f, float hi = 1.f);

  bool defined() const { return impl_ != nullptr; }

  /// Shape access -------------------------------------------------------
  const Shape& shape() const;
  int64_t ndim() const;
  int64_t dim(int i) const;
  int64_t numel() const;

  /// Raw storage --------------------------------------------------------
  float* data();
  const float* data() const;
  float at(int64_t i) const;          ///< Flat indexing.
  float at2(int64_t r, int64_t c) const;  ///< Rank-2 indexing.

  /// Value of a single-element tensor.
  float item() const;

  /// Copies the underlying buffer out.
  std::vector<float> ToVector() const;

  /// Autograd ------------------------------------------------------------
  bool requires_grad() const;
  /// Marks this tensor as a differentiation leaf (parameter).
  Tensor& set_requires_grad(bool v);

  /// Gradient buffer (allocated zero-filled on first access).
  float* grad();
  const std::vector<float>& grad_vector() const;
  bool has_grad() const;

  /// Zeroes (and allocates if needed) the gradient buffer.
  void ZeroGrad();

  /// Adds `delta` (same numel) into the gradient buffer.
  void AccumulateGrad(const float* delta, int64_t n);

  /// Runs reverse-mode autodiff from this scalar tensor (numel()==1).
  /// Seeds d(this)/d(this)=1, topologically sorts the reachable DAG and
  /// invokes each node's backward function exactly once. When
  /// `release_graph` is true (default), parent edges and closures of
  /// interior nodes are cleared afterwards so intermediate buffers free as
  /// soon as the caller drops its tensors. A result built inside a
  /// NoGradScope has no tape to run: calling this on it is a checked fatal
  /// error.
  void Backward(bool release_graph = true);

  /// Detaches from the autograd graph: returns a tensor sharing storage but
  /// with no parents (constant w.r.t. differentiation).
  Tensor Detach() const;

  /// Deep copy of data (no graph, no grad).
  Tensor Clone() const;

  /// Internal: direct impl access for ops.
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  static Tensor FromImpl(std::shared_ptr<TensorImpl> impl);

 private:
  std::shared_ptr<TensorImpl> impl_;
};

}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_TENSOR_H_
