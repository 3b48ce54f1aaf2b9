#include "nn/optim.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/train_parallel.h"
#include "obs/trace.h"
#include "rt/thread_pool.h"
#include "util/logging.h"

namespace turl {
namespace nn {

namespace {

/// The per-step constants of the update. Passed by value, so the element
/// loop need not reload them after each store.
struct UpdateConsts {
  float lr;
  float beta1;
  float beta2;
  float bc1;
  float bc2;
  float eps;
  float weight_decay;
  float clip_scale;
};

/// Runs body(c) for every chunk index, on the training pool when there is
/// one. Each index writes only its own chunk, so the schedule cannot change
/// a result.
void ForEachChunk(size_t num_chunks, const std::function<void(int64_t)>& body) {
  if (rt::ThreadPool* pool = TrainPool()) {
    pool->ParallelFor(0, int64_t(num_chunks), /*grain=*/1, body);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) body(int64_t(c));
  }
}

/// Overwrites g[0, n) with +0 plus each non-null shard buffer (read from
/// `offset`) in ascending shard order: the sum a zeroed gradient accumulates
/// from the same shards. `0.f + x` is kept, not folded to `x`: it turns a -0
/// into +0 exactly as the zeroed gradient did.
void ReduceShards(float* __restrict g, const float* const* bufs,
                  size_t num_shards, int64_t offset, int64_t n) {
  bool written = false;
  for (size_t s = 0; s < num_shards; ++s) {
    if (bufs[s] == nullptr) continue;
    const float* __restrict in = bufs[s] + offset;
    if (written) {
      for (int64_t i = 0; i < n; ++i) g[i] += in[i];
    } else {
      for (int64_t i = 0; i < n; ++i) g[i] = 0.f + in[i];
      written = true;
    }
  }
  if (!written) std::fill(g, g + n, 0.f);
}

/// Sum of squares of g[0, n) in double: element i goes to lane i % 8, and
/// the lanes combine pairwise. The association depends only on n.
double SumOfSquares(const float* __restrict g, int64_t n) {
  double lane[8] = {};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      lane[l] += double(g[i + l]) * double(g[i + l]);
    }
  }
  for (int l = 0; i < n; ++i, ++l) lane[l] += double(g[i]) * double(g[i]);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/// Clips (when kClip, writing the scaled gradient back) and applies Adam to
/// n elements. Every element goes through the same float operations in the
/// same order as a plain scalar loop, so the vectorized loop is exact: SSE
/// rounds like the scalar instructions, and this file is built without FMA
/// (which would contract the multiply-adds) and without errno for sqrt
/// (whose branch blocks vectorization).
template <bool kClip, bool kDecay>
void UpdateChunk(float* __restrict w, float* __restrict g,
                 float* __restrict m, float* __restrict v, int64_t n,
                 UpdateConsts k) {
  for (int64_t i = 0; i < n; ++i) {
    float gi = g[i];
    if constexpr (kClip) {
      gi *= k.clip_scale;
      g[i] = gi;
    }
    if constexpr (kDecay) gi += k.weight_decay * w[i];
    m[i] = k.beta1 * m[i] + (1.f - k.beta1) * gi;
    v[i] = k.beta2 * v[i] + (1.f - k.beta2) * gi * gi;
    const float mhat = m[i] / k.bc1;
    const float vhat = v[i] / k.bc2;
    w[i] -= k.lr * mhat / (std::sqrt(vhat) + k.eps);
  }
}

}  // namespace

Adam::Adam(ParamStore* store, AdamConfig config)
    : store_(store), config_(config) {
  TURL_CHECK(store != nullptr);
  m_.reserve(store->params().size());
  v_.reserve(store->params().size());
  for (const auto& [name, t] : store->params()) {
    const int64_t n = t.numel();
    for (int64_t begin = 0; begin < n; begin += kChunkElems) {
      chunks_.push_back({m_.size(), begin, std::min(n, begin + kChunkElems)});
    }
    m_.emplace_back(static_cast<size_t>(n), 0.f);
    v_.emplace_back(static_cast<size_t>(n), 0.f);
  }
}

float Adam::Step(float lr_scale, float max_norm,
                 const std::vector<GradShard*>& shards) {
  const auto& params = store_->params();
  TURL_CHECK_EQ(m_.size(), params.size())
      << "parameters added after optimizer construction";
  ++step_;

  // Weight and gradient of every parameter, and each shard's buffer for it,
  // looked up once. With shards every gradient is written, so a parameter
  // without one gets a buffer here, before the sweeps run.
  const size_t num_shards = shards.size();
  std::vector<float*> weights(params.size());
  std::vector<float*> grads(params.size(), nullptr);
  std::vector<const float*> touched(params.size() * num_shards);
  for (size_t p = 0; p < params.size(); ++p) {
    TensorImpl* impl = params[p].second.impl().get();
    TURL_CHECK_EQ(impl->data.size(), m_[p].size())
        << params[p].first << " resized after optimizer construction";
    if (num_shards > 0 && impl->grad.empty()) {
      impl->grad.resize(impl->data.size());
    }
    weights[p] = impl->data.data();
    if (!impl->grad.empty()) grads[p] = impl->grad.data();
    for (size_t s = 0; s < num_shards; ++s) {
      touched[p * num_shards + s] = shards[s]->Touched(impl);
    }
  }

  // Sweep 1: reduce the shards into each chunk and take its sum of squares.
  std::vector<double> chunk_sq(chunks_.size(), 0.0);
  {
    TURL_TRACE_SCOPE("optim.reduce_norm");
    ForEachChunk(chunks_.size(), [&](int64_t c) {
      const Chunk& chunk = chunks_[size_t(c)];
      float* g = grads[chunk.param];
      if (g == nullptr) return;
      const int64_t n = chunk.end - chunk.begin;
      if (num_shards > 0) {
        ReduceShards(g + chunk.begin, &touched[chunk.param * num_shards],
                     num_shards, chunk.begin, n);
      }
      chunk_sq[size_t(c)] = SumOfSquares(g + chunk.begin, n);
    });
  }
  // Chunk order, whichever thread took each chunk.
  double total = 0.0;
  for (double sq : chunk_sq) total += sq;
  const float norm = static_cast<float>(std::sqrt(total));
  const bool clip = norm > max_norm && norm > 0.f;

  // Bias corrections in double: float(step_) collapses past 2^24 steps and a
  // single-precision pow of a near-1 base drifts long before that; the
  // per-element math stays float.
  const UpdateConsts k{
      .lr = config_.lr * lr_scale,
      .beta1 = config_.beta1,
      .beta2 = config_.beta2,
      .bc1 = static_cast<float>(
          1.0 - std::pow(static_cast<double>(config_.beta1),
                         static_cast<double>(step_))),
      .bc2 = static_cast<float>(
          1.0 - std::pow(static_cast<double>(config_.beta2),
                         static_cast<double>(step_))),
      .eps = config_.eps,
      .weight_decay = config_.weight_decay,
      .clip_scale = clip ? max_norm / norm : 1.f,
  };
  const bool decay = config_.weight_decay > 0.f;
  const auto update = clip ? (decay ? &UpdateChunk<true, true>
                                    : &UpdateChunk<true, false>)
                           : (decay ? &UpdateChunk<false, true>
                                    : &UpdateChunk<false, false>);

  // Sweep 2: clip and update each chunk.
  {
    TURL_TRACE_SCOPE("optim.adam");
    ForEachChunk(chunks_.size(), [&](int64_t c) {
      const Chunk& chunk = chunks_[size_t(c)];
      float* g = grads[chunk.param];
      if (g == nullptr) return;  // No gradient this step: left as it is.
      const int64_t b = chunk.begin;
      update(weights[chunk.param] + b, g + b, m_[chunk.param].data() + b,
             v_[chunk.param].data() + b, chunk.end - b, k);
    });
  }
  return norm;
}

Status Adam::SetState(std::vector<std::vector<float>> m,
                      std::vector<std::vector<float>> v, int64_t step) {
  if (step < 0) {
    return Status::FailedPrecondition("negative Adam step count");
  }
  if (m.size() != m_.size() || v.size() != v_.size()) {
    return Status::FailedPrecondition(
        "Adam state has " + std::to_string(m.size()) + "/" +
        std::to_string(v.size()) + " moment buffers, optimizer has " +
        std::to_string(m_.size()));
  }
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i].size() != m_[i].size() || v[i].size() != v_[i].size()) {
      return Status::FailedPrecondition("Adam moment size mismatch at param " +
                                        std::to_string(i));
    }
  }
  m_ = std::move(m);
  v_ = std::move(v);
  step_ = step;
  return Status::OK();
}

LinearDecaySchedule::LinearDecaySchedule(int64_t total_steps,
                                         float final_fraction)
    : total_steps_(total_steps), final_fraction_(final_fraction) {
  TURL_CHECK_GT(total_steps, 0);
}

float LinearDecaySchedule::Scale(int64_t step) const {
  if (step >= total_steps_) return final_fraction_;
  const float frac = float(step) / float(total_steps_);
  return 1.f + frac * (final_fraction_ - 1.f);
}

}  // namespace nn
}  // namespace turl
