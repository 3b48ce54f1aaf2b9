#include "nn/tensor.h"

#include <algorithm>
#include <unordered_set>

#include <unordered_map>

#include "nn/kernels/arena.h"
#include "nn/train_parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/task_graph.h"
#include "rt/thread_pool.h"
#include "util/logging.h"
#include "util/rng.h"

namespace turl {
namespace nn {

namespace {

/// Lowers the tape (in reverse topological order) to a rt::TaskGraph whose
/// edges make any thread count bit-identical to the sequential loop:
///
///  - Task ids are assigned in sequential execution order, and TaskGraph
///    drains its ready set smallest-id-first, so with no contention the
///    schedule *is* the sequential schedule.
///  - For every gradient buffer, all of its writers are chained in that same
///    order: node X's consumers c1..ck (which accumulate into X->grad)
///    get edges c_i -> c_{i+1}, and X's own task additionally depends on its
///    last writer. Chains make every write/write and write/read conflict a
///    graph edge — float accumulation into a shared parent happens in the
///    pinned sequential order, without a single lock in the hot path — while
///    leaving genuinely independent branches (MLM vs. MER head, attention
///    vs. FFN grads) free to overlap.
void RunTapeTaskGraph(const std::vector<TensorImpl*>& topo,
                      rt::ThreadPool* pool) {
  rt::TaskGraph graph;
  // Latest task id that accumulates into each node's grad (leaf parameters
  // included — they never get a task of their own but their writers still
  // form a chain).
  std::unordered_map<TensorImpl*, int> last_writer;
  last_writer.reserve(topo.size());
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* node = *it;
    if (!node->backward_fn) continue;
    const int id = graph.AddTask([node] {
      // Same skip as the sequential loop: by the time this task is ready,
      // every accumulation into node->grad has happened, so "still empty"
      // means "received no upstream gradient this pass".
      if (!node->grad.empty()) node->backward_fn();
    });
    const auto writer = last_writer.find(node);
    if (writer != last_writer.end()) graph.AddEdge(writer->second, id);
    for (const std::shared_ptr<TensorImpl>& parent : node->parents) {
      const auto [slot, inserted] = last_writer.try_emplace(parent.get(), id);
      if (!inserted && slot->second != id) {  // != id: e.g. Mul(a, a).
        graph.AddEdge(slot->second, id);
        slot->second = id;
      }
    }
  }
  graph.Run(pool);
}

}  // namespace

TensorImpl::~TensorImpl() {
  if (!pooled) return;
  kernels::RecycleBuffer(std::move(data));
  kernels::RecycleBuffer(std::move(grad));
}

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  s += "]";
  return s;
}

Tensor Tensor::Zeros(Shape shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.assign(static_cast<size_t>(ShapeNumel(impl->shape)), 0.f);
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Zeros(std::move(shape));
  std::fill(t.impl_->data.begin(), t.impl_->data.end(), value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values) {
  TURL_CHECK_EQ(ShapeNumel(shape), static_cast<int64_t>(values.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

Tensor Tensor::Scalar(float value) { return FromVector({1}, {value}); }

Tensor Tensor::Random(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = Zeros(std::move(shape));
  float* d = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) d[i] = rng.UniformFloat(lo, hi);
  return t;
}

const Shape& Tensor::shape() const {
  TURL_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::ndim() const { return static_cast<int64_t>(shape().size()); }

int64_t Tensor::dim(int i) const {
  TURL_CHECK(defined());
  TURL_CHECK_GE(i, 0);
  TURL_CHECK_LT(i, static_cast<int>(impl_->shape.size()));
  return impl_->shape[static_cast<size_t>(i)];
}

int64_t Tensor::numel() const {
  TURL_CHECK(defined());
  return static_cast<int64_t>(impl_->data.size());
}

float* Tensor::data() {
  TURL_CHECK(defined());
  return impl_->data.data();
}

const float* Tensor::data() const {
  TURL_CHECK(defined());
  return impl_->data.data();
}

float Tensor::at(int64_t i) const {
  TURL_CHECK(defined());
  TURL_CHECK_GE(i, 0);
  TURL_CHECK_LT(i, numel());
  return impl_->data[static_cast<size_t>(i)];
}

float Tensor::at2(int64_t r, int64_t c) const {
  TURL_CHECK_EQ(ndim(), 2);
  TURL_CHECK_GE(r, 0);
  TURL_CHECK_LT(r, dim(0));
  TURL_CHECK_GE(c, 0);
  TURL_CHECK_LT(c, dim(1));
  return impl_->data[static_cast<size_t>(r * dim(1) + c)];
}

float Tensor::item() const {
  TURL_CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

std::vector<float> Tensor::ToVector() const {
  TURL_CHECK(defined());
  return impl_->data;
}

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool v) {
  TURL_CHECK(defined());
  impl_->requires_grad = v;
  return *this;
}

float* Tensor::grad() {
  TURL_CHECK(defined());
  if (impl_->grad.empty()) impl_->grad.assign(impl_->data.size(), 0.f);
  return impl_->grad.data();
}

const std::vector<float>& Tensor::grad_vector() const {
  TURL_CHECK(defined());
  return impl_->grad;
}

bool Tensor::has_grad() const { return defined() && !impl_->grad.empty(); }

void Tensor::ZeroGrad() {
  TURL_CHECK(defined());
  impl_->grad.assign(impl_->data.size(), 0.f);
}

void Tensor::AccumulateGrad(const float* delta, int64_t n) {
  TURL_CHECK(defined());
  TURL_CHECK_EQ(n, numel());
  if (impl_->grad.empty()) impl_->grad.assign(impl_->data.size(), 0.f);
  for (int64_t i = 0; i < n; ++i) impl_->grad[static_cast<size_t>(i)] += delta[i];
}

void Tensor::Backward(bool release_graph) {
  TURL_CHECK(defined());
  TURL_CHECK_EQ(numel(), 1);
  TURL_TRACE_SCOPE("autograd.backward");
  static obs::Counter* backward_calls =
      obs::MetricsRegistry::Get().GetCounter("autograd.backward_calls");
  backward_calls->Inc();

  // Iterative post-order DFS to produce a topological order.
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(impl_.get()).second) stack.push_back({impl_.get(), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      TensorImpl* p = f.node->parents[f.next_parent++].get();
      if (visited.insert(p).second) stack.push_back({p, 0});
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }

  // Seed and run in reverse topological order.
  impl_->grad.assign(impl_->data.size(), 0.f);
  impl_->grad[0] = 1.f;
  // Parallel tape execution is opt-in via TURL_TRAIN_THREADS (pool is null
  // otherwise) and bit-identical to the sequential loop below (see
  // RunTapeTaskGraph). Per-shard tapes (CurrentGradShard) stay sequential:
  // the shards themselves are the parallel axis, and nesting the executor
  // under the shard fan-out would only add scheduling overhead. A call from
  // inside the train pool runs inline for the same reason.
  rt::ThreadPool* pool = TrainPool();
  if (pool != nullptr && !pool->InWorker() && CurrentGradShard() == nullptr &&
      topo.size() > 1) {
    static obs::Counter* parallel_calls = obs::MetricsRegistry::Get().GetCounter(
        "autograd.backward_parallel_calls");
    parallel_calls->Inc();
    RunTapeTaskGraph(topo, pool);
  } else {
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      TensorImpl* node = *it;
      // Empty grad == no consumer fed this node a gradient this pass (a
      // masked-out head, a detached branch): its backward would only add
      // zeros, so it is skipped. Every op closure in ops.cc accumulates into
      // *all* of its parents via GradOf (which allocates on first touch), so
      // a node with a backward_fn and an empty grad can only mean "no
      // contribution", never "forgot to allocate" — pinned by
      // BackwardParallelTest.EveryReachedNodeHasGradAfterBackward.
      if (node->backward_fn && !node->grad.empty()) node->backward_fn();
    }
  }

  if (release_graph) {
    for (TensorImpl* node : topo) {
      node->backward_fn = nullptr;
      node->parents.clear();
    }
  }
}

Tensor Tensor::Detach() const {
  TURL_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // Copy: detached view must not alias the graph
                             // node's buffer if the caller later mutates it.
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

Tensor Tensor::Clone() const { return Detach(); }

Tensor Tensor::FromImpl(std::shared_ptr<TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

}  // namespace nn
}  // namespace turl
