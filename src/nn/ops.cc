#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels/kernels.h"
#include "nn/train_parallel.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace nn {

namespace {

/// Ensures the node's grad buffer exists, returning a raw pointer to it.
/// Pooled nodes lease their gradient from the kernels arena so both buffers
/// recycle together when the node dies.
///
/// Thread-safety contract for every backward closure below (audited with
/// the task-graph executor in Tensor::Backward): a closure may run on any
/// thread, but all the state it touches is either private to its tape
/// (output grad/data, captured scratch) or a parent grad obtained through
/// this function — and the executor chains every closure that touches the
/// same parent, so those writes are ordered and race-free by construction.
/// Closures must not touch other global mutable state; none do.
///
/// With a GradShard installed (data-parallel sharding, see
/// nn/train_parallel.h), leaf-parameter accumulation is redirected into the
/// shard's private buffer; interior tape nodes miss the shard index and keep
/// their own grads.
float* GradOf(TensorImpl* t) {
  if (GradShard* shard = CurrentGradShard()) {
    if (float* redirected = shard->Redirect(t)) return redirected;
  }
  if (t->grad.empty()) {
    if (t->pooled) {
      t->grad = kernels::LeasePooled(t->data.size(), /*zero=*/true);
    } else {
      t->grad.assign(t->data.size(), 0.f);
    }
  }
  return t->grad.data();
}

/// Builds an op result node: fresh impl with `shape`/`data`, parent edges to
/// the inputs, and `fn(out_impl)` installed as the backward closure. The
/// closure receives the raw output impl pointer (owned by the node itself, so
/// no reference cycle) and must accumulate into the parents' grads. Nodes
/// built inside a kernels::ArenaScope are marked pooled: their buffers return
/// to the per-thread arena when the node is destroyed.
Tensor MakeNode(Shape shape, std::vector<float> data,
                std::vector<std::shared_ptr<TensorImpl>> parents,
                std::function<void(TensorImpl*)> fn) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->parents = std::move(parents);
  impl->pooled = kernels::ArenaActive();
  TensorImpl* raw = impl.get();
  impl->backward_fn = [raw, f = std::move(fn)]() { f(raw); };
  return Tensor::FromImpl(std::move(impl));
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  TURL_CHECK(a.defined() && b.defined()) << op;
  TURL_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  const float* ad = a.data();
  const float* bd = b.data();
  const size_t sz = a.impl()->data.size();
  std::vector<float> out = kernels::AllocBuffer(sz, /*zero=*/false);
  for (size_t i = 0; i < sz; ++i) out[i] = ad[i] + bd[i];
  auto pa = a.impl(), pb = b.impl();
  return MakeNode(a.shape(), std::move(out), {pa, pb}, [pa, pb](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.add.backward");
    const float* g = o->grad.data();
    float* ga = GradOf(pa.get());
    float* gb = GradOf(pb.get());
    for (size_t i = 0; i < o->data.size(); ++i) {
      ga[i] += g[i];
      gb[i] += g[i];
    }
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  const float* ad = a.data();
  const float* bd = b.data();
  const size_t sz = a.impl()->data.size();
  std::vector<float> out = kernels::AllocBuffer(sz, /*zero=*/false);
  for (size_t i = 0; i < sz; ++i) out[i] = ad[i] - bd[i];
  auto pa = a.impl(), pb = b.impl();
  return MakeNode(a.shape(), std::move(out), {pa, pb}, [pa, pb](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.sub.backward");
    const float* g = o->grad.data();
    float* ga = GradOf(pa.get());
    float* gb = GradOf(pb.get());
    for (size_t i = 0; i < o->data.size(); ++i) {
      ga[i] += g[i];
      gb[i] -= g[i];
    }
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  const float* ad = a.data();
  const float* bd = b.data();
  const size_t sz = a.impl()->data.size();
  std::vector<float> out = kernels::AllocBuffer(sz, /*zero=*/false);
  for (size_t i = 0; i < sz; ++i) out[i] = ad[i] * bd[i];
  auto pa = a.impl(), pb = b.impl();
  return MakeNode(a.shape(), std::move(out), {pa, pb}, [pa, pb](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.mul.backward");
    const float* g = o->grad.data();
    float* ga = GradOf(pa.get());
    float* gb = GradOf(pb.get());
    const float* ad2 = pa->data.data();
    const float* bd2 = pb->data.data();
    for (size_t i = 0; i < o->data.size(); ++i) {
      ga[i] += g[i] * bd2[i];
      gb[i] += g[i] * ad2[i];
    }
  });
}

Tensor Scale(const Tensor& a, float s) {
  TURL_CHECK(a.defined());
  const float* ad = a.data();
  const size_t sz = a.impl()->data.size();
  std::vector<float> out = kernels::AllocBuffer(sz, /*zero=*/false);
  for (size_t i = 0; i < sz; ++i) out[i] = ad[i] * s;
  auto pa = a.impl();
  return MakeNode(a.shape(), std::move(out), {pa}, [pa, s](TensorImpl* o) {
    const float* g = o->grad.data();
    float* ga = GradOf(pa.get());
    for (size_t i = 0; i < o->data.size(); ++i) ga[i] += s * g[i];
  });
}

Tensor AddBias(const Tensor& x, const Tensor& b) {
  TURL_CHECK(x.defined() && b.defined());
  TURL_CHECK_EQ(x.ndim(), 2);
  TURL_CHECK_EQ(b.numel(), x.dim(1));
  const int64_t m = x.dim(0), n = x.dim(1);
  const float* xd = x.data();
  const float* bd = b.data();
  std::vector<float> out = kernels::AllocBuffer(size_t(m * n), /*zero=*/false);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j)
      out[size_t(i * n + j)] = xd[i * n + j] + bd[j];
  auto px = x.impl(), pb = b.impl();
  return MakeNode(x.shape(), std::move(out), {px, pb},
                  [px, pb, m, n](TensorImpl* o) {
                    TURL_TRACE_SCOPE("op.add_bias.backward");
                    const float* g = o->grad.data();
                    float* gx = GradOf(px.get());
                    float* gb = GradOf(pb.get());
                    for (int64_t i = 0; i < m; ++i) {
                      for (int64_t j = 0; j < n; ++j) {
                        gx[i * n + j] += g[i * n + j];
                        gb[j] += g[i * n + j];
                      }
                    }
                  });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TURL_TRACE_SCOPE("op.matmul");
  TURL_CHECK(a.defined() && b.defined());
  TURL_CHECK_EQ(a.ndim(), 2);
  TURL_CHECK_EQ(b.ndim(), 2);
  TURL_CHECK_EQ(a.dim(1), b.dim(0))
      << "MatMul: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> out = kernels::AllocBuffer(size_t(m * n), /*zero=*/false);
  kernels::GemmNN(m, n, k, a.data(), k, b.data(), n, out.data(), n,
                  /*accumulate=*/false);
  auto pa = a.impl(), pb = b.impl();
  return MakeNode({m, n}, std::move(out), {pa, pb},
                  [pa, pb, m, k, n](TensorImpl* o) {
                    TURL_TRACE_SCOPE("op.matmul.backward");
                    const float* g = o->grad.data();
                    // dA += dOut * B^T ; dB += A^T * dOut
                    kernels::GemmNT(m, k, n, g, n, pb->data.data(), n,
                                    GradOf(pa.get()), k, /*accumulate=*/true);
                    kernels::GemmTN(k, n, m, pa->data.data(), k, g, n,
                                    GradOf(pb.get()), n, /*accumulate=*/true);
                  });
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  TURL_TRACE_SCOPE("op.matmul_nt");
  TURL_CHECK(a.defined() && b.defined());
  TURL_CHECK_EQ(a.ndim(), 2);
  TURL_CHECK_EQ(b.ndim(), 2);
  TURL_CHECK_EQ(a.dim(1), b.dim(1))
      << "MatMulNT: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape()) << "^T";
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  std::vector<float> out = kernels::AllocBuffer(size_t(m * n), /*zero=*/false);
  kernels::GemmNT(m, n, k, a.data(), k, b.data(), k, out.data(), n,
                  /*accumulate=*/false);
  auto pa = a.impl(), pb = b.impl();
  return MakeNode({m, n}, std::move(out), {pa, pb},
                  [pa, pb, m, k, n](TensorImpl* o) {
                    TURL_TRACE_SCOPE("op.matmul_nt.backward");
                    const float* g = o->grad.data();
                    // out = A * B^T  =>  dA += g * B ; dB += g^T * A
                    kernels::GemmNN(m, k, n, g, n, pb->data.data(), k,
                                    GradOf(pa.get()), k, /*accumulate=*/true);
                    kernels::GemmTN(n, k, m, g, n, pa->data.data(), k,
                                    GradOf(pb.get()), k, /*accumulate=*/true);
                  });
}

namespace {

/// Shared implementation for the elementwise activation ops: fused forward
/// kernel, fused backward kernel.
Tensor ActivationOp(const Tensor& x, kernels::Act act) {
  TURL_CHECK(x.defined());
  const size_t sz = x.impl()->data.size();
  std::vector<float> out = kernels::AllocBuffer(sz, /*zero=*/false);
  kernels::ActivationForward(act, x.data(), out.data(),
                             static_cast<int64_t>(sz));
  auto px = x.impl();
  return MakeNode(x.shape(), std::move(out), {px}, [px, act](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.activation.backward");
    kernels::ActivationBackward(act, px->data.data(), o->data.data(),
                                o->grad.data(), GradOf(px.get()),
                                static_cast<int64_t>(o->data.size()));
  });
}

}  // namespace

Tensor Gelu(const Tensor& x) {
  TURL_TRACE_SCOPE("op.gelu");
  return ActivationOp(x, kernels::Act::kGelu);
}

Tensor Relu(const Tensor& x) { return ActivationOp(x, kernels::Act::kRelu); }

Tensor TanhOp(const Tensor& x) { return ActivationOp(x, kernels::Act::kTanh); }

Tensor SigmoidOp(const Tensor& x) {
  return ActivationOp(x, kernels::Act::kSigmoid);
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  TURL_TRACE_SCOPE("op.layernorm");
  TURL_CHECK(x.defined() && gamma.defined() && beta.defined());
  TURL_CHECK_EQ(x.ndim(), 2);
  const int64_t m = x.dim(0), n = x.dim(1);
  TURL_CHECK_EQ(gamma.numel(), n);
  TURL_CHECK_EQ(beta.numel(), n);

  std::vector<float> out = kernels::AllocBuffer(size_t(m * n), /*zero=*/false);
  // xhat and inv_std are needed by the backward pass; shared via the closure
  // and leased from the arena so they recycle with the tape.
  auto xhat =
      std::make_shared<kernels::PooledBuffer>(size_t(m * n), /*zero=*/false);
  auto inv_std =
      std::make_shared<kernels::PooledBuffer>(size_t(m), /*zero=*/false);
  kernels::LayerNormForward(x.data(), gamma.data(), beta.data(), eps,
                            out.data(), xhat->data(), inv_std->data(), m, n);
  auto px = x.impl(), pg = gamma.impl(), pb = beta.impl();
  return MakeNode(x.shape(), std::move(out), {px, pg, pb},
                  [px, pg, pb, xhat, inv_std, m, n](TensorImpl* o) {
                    TURL_TRACE_SCOPE("op.layernorm.backward");
                    kernels::LayerNormBackward(
                        o->grad.data(), pg->data.data(), xhat->data(),
                        inv_std->data(), GradOf(px.get()), GradOf(pg.get()),
                        GradOf(pb.get()), m, n);
                  });
}

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids) {
  TURL_TRACE_SCOPE("op.embedding");
  TURL_CHECK(weight.defined());
  TURL_CHECK_EQ(weight.ndim(), 2);
  const int64_t v = weight.dim(0), d = weight.dim(1);
  const int64_t m = static_cast<int64_t>(ids.size());
  std::vector<float> out = kernels::AllocBuffer(size_t(m * d), /*zero=*/false);
  const float* wd = weight.data();
  for (int64_t i = 0; i < m; ++i) {
    TURL_CHECK_GE(ids[size_t(i)], 0);
    TURL_CHECK_LT(ids[size_t(i)], v);
    std::memcpy(out.data() + i * d, wd + int64_t(ids[size_t(i)]) * d,
                sizeof(float) * size_t(d));
  }
  auto pw = weight.impl();
  return MakeNode({m, d}, std::move(out), {pw}, [pw, ids, d](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.embedding.backward");
    const float* g = o->grad.data();
    float* gw = GradOf(pw.get());
    for (size_t i = 0; i < ids.size(); ++i) {
      float* dst = gw + int64_t(ids[i]) * d;
      const float* src = g + int64_t(i) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  TURL_CHECK(a.defined() && b.defined());
  TURL_CHECK_EQ(a.ndim(), 2);
  TURL_CHECK_EQ(b.ndim(), 2);
  TURL_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t m = a.dim(0), p = a.dim(1), q = b.dim(1);
  std::vector<float> out =
      kernels::AllocBuffer(size_t(m * (p + q)), /*zero=*/false);
  const float* ad = a.data();
  const float* bd = b.data();
  for (int64_t i = 0; i < m; ++i) {
    std::memcpy(out.data() + i * (p + q), ad + i * p, sizeof(float) * size_t(p));
    std::memcpy(out.data() + i * (p + q) + p, bd + i * q,
                sizeof(float) * size_t(q));
  }
  auto pa = a.impl(), pb = b.impl();
  return MakeNode({m, p + q}, std::move(out), {pa, pb},
                  [pa, pb, m, p, q](TensorImpl* o) {
                    TURL_TRACE_SCOPE("op.concat_cols.backward");
                    const float* g = o->grad.data();
                    float* ga = GradOf(pa.get());
                    float* gb = GradOf(pb.get());
                    for (int64_t i = 0; i < m; ++i) {
                      for (int64_t j = 0; j < p; ++j)
                        ga[i * p + j] += g[i * (p + q) + j];
                      for (int64_t j = 0; j < q; ++j)
                        gb[i * q + j] += g[i * (p + q) + p + j];
                    }
                  });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  TURL_CHECK(!parts.empty());
  const int64_t n = parts[0].dim(1);
  int64_t m = 0;
  for (const auto& t : parts) {
    TURL_CHECK_EQ(t.ndim(), 2);
    TURL_CHECK_EQ(t.dim(1), n);
    m += t.dim(0);
  }
  std::vector<float> out = kernels::AllocBuffer(size_t(m * n), /*zero=*/false);
  std::vector<std::shared_ptr<TensorImpl>> parents;
  parents.reserve(parts.size());
  int64_t row = 0;
  for (const auto& t : parts) {
    std::memcpy(out.data() + row * n, t.data(),
                sizeof(float) * size_t(t.numel()));
    row += t.dim(0);
    parents.push_back(t.impl());
  }
  auto parents_copy = parents;
  return MakeNode({m, n}, std::move(out), std::move(parents),
                  [parents_copy, n](TensorImpl* o) {
                    TURL_TRACE_SCOPE("op.concat_rows.backward");
                    const float* g = o->grad.data();
                    int64_t r = 0;
                    for (const auto& p : parents_copy) {
                      float* gp = GradOf(p.get());
                      const int64_t rows = p->shape[0];
                      for (int64_t i = 0; i < rows * n; ++i)
                        gp[i] += g[r * n + i];
                      r += rows;
                    }
                  });
}

Tensor SelectRows(const Tensor& x, const std::vector<int>& rows) {
  TURL_CHECK(x.defined());
  TURL_CHECK_EQ(x.ndim(), 2);
  const int64_t m = x.dim(0), d = x.dim(1);
  const int64_t r = static_cast<int64_t>(rows.size());
  std::vector<float> out = kernels::AllocBuffer(size_t(r * d), /*zero=*/false);
  const float* xd = x.data();
  for (int64_t i = 0; i < r; ++i) {
    TURL_CHECK_GE(rows[size_t(i)], 0);
    TURL_CHECK_LT(rows[size_t(i)], m);
    std::memcpy(out.data() + i * d, xd + int64_t(rows[size_t(i)]) * d,
                sizeof(float) * size_t(d));
  }
  auto px = x.impl();
  return MakeNode({r, d}, std::move(out), {px}, [px, rows, d](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.select_rows.backward");
    const float* g = o->grad.data();
    float* gx = GradOf(px.get());
    for (size_t i = 0; i < rows.size(); ++i) {
      float* dst = gx + int64_t(rows[i]) * d;
      const float* src = g + int64_t(i) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
}

Tensor RowsMean(const Tensor& x, const std::vector<int>& rows) {
  TURL_CHECK(x.defined());
  TURL_CHECK_EQ(x.ndim(), 2);
  TURL_CHECK(!rows.empty());
  const int64_t m = x.dim(0), d = x.dim(1);
  std::vector<float> out = kernels::AllocBuffer(size_t(d), /*zero=*/true);
  const float* xd = x.data();
  for (int row : rows) {
    TURL_CHECK_GE(row, 0);
    TURL_CHECK_LT(row, m);
    const float* src = xd + int64_t(row) * d;
    for (int64_t j = 0; j < d; ++j) out[size_t(j)] += src[j];
  }
  const float inv = 1.f / float(rows.size());
  for (float& v : out) v *= inv;
  auto px = x.impl();
  return MakeNode({1, d}, std::move(out), {px},
                  [px, rows, d, inv](TensorImpl* o) {
                    const float* g = o->grad.data();
                    float* gx = GradOf(px.get());
                    for (int row : rows) {
                      float* dst = gx + int64_t(row) * d;
                      for (int64_t j = 0; j < d; ++j) dst[j] += inv * g[j];
                    }
                  });
}

Tensor BagMean(const Tensor& weight,
               const std::vector<std::vector<int>>& bags) {
  TURL_TRACE_SCOPE("op.bag_mean");
  TURL_CHECK(weight.defined());
  TURL_CHECK_EQ(weight.ndim(), 2);
  const int64_t v = weight.dim(0), d = weight.dim(1);
  const int64_t m = static_cast<int64_t>(bags.size());
  std::vector<float> out = kernels::AllocBuffer(size_t(m * d), /*zero=*/true);
  const float* wd = weight.data();
  for (int64_t i = 0; i < m; ++i) {
    const auto& bag = bags[size_t(i)];
    if (bag.empty()) continue;
    float* dst = out.data() + i * d;
    for (int id : bag) {
      TURL_CHECK_GE(id, 0);
      TURL_CHECK_LT(id, v);
      const float* src = wd + int64_t(id) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
    const float inv = 1.f / float(bag.size());
    for (int64_t j = 0; j < d; ++j) dst[j] *= inv;
  }
  auto pw = weight.impl();
  return MakeNode({m, d}, std::move(out), {pw}, [pw, bags, d](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.bag_mean.backward");
    const float* g = o->grad.data();
    float* gw = GradOf(pw.get());
    for (size_t i = 0; i < bags.size(); ++i) {
      const auto& bag = bags[i];
      if (bag.empty()) continue;
      const float inv = 1.f / float(bag.size());
      const float* src = g + int64_t(i) * d;
      for (int id : bag) {
        float* dst = gw + int64_t(id) * d;
        for (int64_t j = 0; j < d; ++j) dst[j] += inv * src[j];
      }
    }
  });
}

Tensor SoftmaxRows(const Tensor& x) {
  TURL_TRACE_SCOPE("op.softmax");
  TURL_CHECK(x.defined());
  TURL_CHECK_EQ(x.ndim(), 2);
  const int64_t m = x.dim(0), n = x.dim(1);
  std::vector<float> out = kernels::AllocBuffer(size_t(m * n), /*zero=*/false);
  kernels::SoftmaxRowsForward(x.data(), out.data(), m, n);
  auto px = x.impl();
  return MakeNode(x.shape(), std::move(out), {px}, [px, m, n](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.softmax.backward");
    kernels::SoftmaxRowsBackward(o->data.data(), o->grad.data(),
                                 GradOf(px.get()), m, n);
  });
}

Tensor MultiHeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const std::vector<float>& additive_mask,
                          int num_heads) {
  TURL_TRACE_SCOPE("op.attention");
  TURL_CHECK(q.defined() && k.defined() && v.defined());
  TURL_CHECK_EQ(q.ndim(), 2);
  TURL_CHECK(q.shape() == k.shape() && q.shape() == v.shape());
  const int64_t n = q.dim(0), d = q.dim(1);
  TURL_CHECK_GT(num_heads, 0);
  TURL_CHECK_EQ(d % num_heads, 0);
  TURL_CHECK_EQ(static_cast<int64_t>(additive_mask.size()), n * n);
  const int64_t dh = d / num_heads;
  const float scale = 1.f / std::sqrt(float(dh));

  // probs holds the n x n post-softmax attention matrix of every head
  // (head h at offset h*n*n), retained for the backward pass. Per head:
  // scores = Q_h K_h^T via a strided GemmNT that addresses the head's
  // column slice directly, fused mask+scale+softmax epilogue, then
  // out_h = P V_h via a strided GemmNN writing the head's output slice.
  auto probs = std::make_shared<kernels::PooledBuffer>(
      size_t(num_heads) * size_t(n * n), /*zero=*/false);
  std::vector<float> out = kernels::AllocBuffer(size_t(n * d), /*zero=*/false);
  const float* qd = q.data();
  const float* kd = k.data();
  const float* vd = v.data();

  for (int h = 0; h < num_heads; ++h) {
    float* p = probs->data() + int64_t(h) * n * n;
    const int64_t off = int64_t(h) * dh;
    kernels::GemmNT(n, n, dh, qd + off, d, kd + off, d, p, n,
                    /*accumulate=*/false);
    kernels::MaskedScaledSoftmaxRows(p, additive_mask.data(), scale, n, n);
    kernels::GemmNN(n, dh, n, p, n, vd + off, d, out.data() + off, d,
                    /*accumulate=*/false);
  }

  auto pq = q.impl(), pk = k.impl(), pv = v.impl();
  return MakeNode(
      {n, d}, std::move(out), {pq, pk, pv},
      [pq, pk, pv, probs, n, d, dh, num_heads, scale](TensorImpl* o) {
        TURL_TRACE_SCOPE("op.attention.backward");
        const float* g = o->grad.data();
        float* gq = GradOf(pq.get());
        float* gk = GradOf(pk.get());
        float* gv = GradOf(pv.get());
        const float* qd2 = pq->data.data();
        const float* kd2 = pk->data.data();
        const float* vd2 = pv->data.data();
        // dP/dS scratch for one head, recycled via the arena.
        kernels::PooledBuffer dp(size_t(n * n), /*zero=*/false);
        for (int h = 0; h < num_heads; ++h) {
          const float* p = probs->data() + int64_t(h) * n * n;
          const int64_t off = int64_t(h) * dh;
          // dV_h += P^T dO_h ; dP = dO_h V_h^T.
          kernels::GemmTN(n, dh, n, p, n, g + off, d, gv + off, d,
                          /*accumulate=*/true);
          kernels::GemmNT(n, n, dh, g + off, d, vd2 + off, d, dp.data(), n,
                          /*accumulate=*/false);
          // dS = scale * P * (dP - rowdot(P, dP)), in place over dp.
          kernels::SoftmaxGradInPlace(p, dp.data(), scale, n, n);
          // dQ_h += dS K_h ; dK_h += dS^T Q_h.
          kernels::GemmNN(n, dh, n, dp.data(), n, kd2 + off, d, gq + off, d,
                          /*accumulate=*/true);
          kernels::GemmTN(n, dh, n, dp.data(), n, qd2 + off, d, gk + off, d,
                          /*accumulate=*/true);
        }
      });
}

Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng) {
  TURL_TRACE_SCOPE("op.dropout");
  TURL_CHECK(x.defined());
  if (!training || p <= 0.f) return x;
  TURL_CHECK_LT(p, 1.f);
  TURL_CHECK(rng != nullptr);
  const float keep_scale = 1.f / (1.f - p);
  const float* xd = x.data();
  const size_t sz = x.impl()->data.size();
  auto mask = std::make_shared<kernels::PooledBuffer>(sz, /*zero=*/false);
  std::vector<float> out = kernels::AllocBuffer(sz, /*zero=*/false);
  float* md = mask->data();
  for (size_t i = 0; i < sz; ++i) {
    const float m = rng->Bernoulli(p) ? 0.f : keep_scale;
    md[i] = m;
    out[i] = xd[i] * m;
  }
  auto px = x.impl();
  return MakeNode(x.shape(), std::move(out), {px}, [px, mask](TensorImpl* o) {
    TURL_TRACE_SCOPE("op.dropout.backward");
    const float* g = o->grad.data();
    float* gx = GradOf(px.get());
    const float* md2 = mask->data();
    for (size_t i = 0; i < o->data.size(); ++i) gx[i] += g[i] * md2[i];
  });
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& targets, int ignore_index) {
  TURL_TRACE_SCOPE("op.softmax_xent");
  TURL_CHECK(logits.defined());
  TURL_CHECK_EQ(logits.ndim(), 2);
  const int64_t m = logits.dim(0), c = logits.dim(1);
  TURL_CHECK_EQ(static_cast<int64_t>(targets.size()), m);

  // softmax probabilities retained for the backward pass.
  auto probs =
      std::make_shared<kernels::PooledBuffer>(size_t(m * c), /*zero=*/false);
  kernels::SoftmaxRowsForward(logits.data(), probs->data(), m, c);
  const float* pd = probs->data();
  double loss = 0.0;
  int64_t valid = 0;
  for (int64_t i = 0; i < m; ++i) {
    const int t = targets[size_t(i)];
    if (t == ignore_index) continue;
    TURL_CHECK_GE(t, 0);
    TURL_CHECK_LT(t, c);
    loss -= std::log(std::max(pd[i * c + t], 1e-12f));
    ++valid;
  }
  const float inv = valid > 0 ? 1.f / float(valid) : 0.f;
  auto pl = logits.impl();
  return MakeNode(
      {1}, {float(loss) * inv}, {pl},
      [pl, probs, targets, ignore_index, m, c, inv](TensorImpl* o) {
        TURL_TRACE_SCOPE("op.softmax_xent.backward");
        const float go = o->grad[0];
        float* gl = GradOf(pl.get());
        const float* pd2 = probs->data();
        for (int64_t i = 0; i < m; ++i) {
          const int t = targets[size_t(i)];
          if (t == ignore_index) continue;
          for (int64_t j = 0; j < c; ++j) {
            float d = pd2[i * c + j];
            if (j == t) d -= 1.f;
            gl[i * c + j] += go * inv * d;
          }
        }
      });
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets) {
  TURL_TRACE_SCOPE("op.bce");
  TURL_CHECK(logits.defined());
  TURL_CHECK_EQ(logits.numel(), static_cast<int64_t>(targets.size()));
  const int64_t n = logits.numel();
  TURL_CHECK_GT(n, 0);
  const float* z = logits.data();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float zi = z[size_t(i)];
    const float ti = targets[size_t(i)];
    // Stable: max(z,0) - z*t + log(1 + exp(-|z|)).
    loss += std::max(zi, 0.f) - zi * ti + std::log1p(std::exp(-std::abs(zi)));
  }
  const float inv = 1.f / float(n);
  auto pl = logits.impl();
  return MakeNode({1}, {float(loss) * inv}, {pl},
                  [pl, targets, n, inv](TensorImpl* o) {
                    const float go = o->grad[0];
                    float* gl = GradOf(pl.get());
                    const float* z2 = pl->data.data();
                    for (int64_t i = 0; i < n; ++i) {
                      const float s = 1.f / (1.f + std::exp(-z2[size_t(i)]));
                      gl[i] += go * inv * (s - targets[size_t(i)]);
                    }
                  });
}

Tensor SumAll(const Tensor& x) {
  TURL_CHECK(x.defined());
  double s = 0.0;
  for (float v : x.impl()->data) s += v;
  auto px = x.impl();
  return MakeNode({1}, {float(s)}, {px}, [px](TensorImpl* o) {
    const float go = o->grad[0];
    float* gx = GradOf(px.get());
    for (size_t i = 0; i < px->data.size(); ++i) gx[i] += go;
  });
}

Tensor MeanAll(const Tensor& x) {
  TURL_CHECK(x.defined());
  TURL_CHECK_GT(x.numel(), 0);
  return Scale(SumAll(x), 1.f / float(x.numel()));
}

}  // namespace nn
}  // namespace turl
