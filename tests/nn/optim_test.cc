#include "nn/optim.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "nn/ops.h"
#include "nn/train_parallel.h"
#include "util/rng.h"

namespace turl {
namespace nn {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize (w - 3)^2 elementwise.
  ParamStore store;
  Tensor w = store.CreateFull("w", {4}, 0.f);
  Adam adam(&store, AdamConfig{.lr = 0.1f});
  for (int step = 0; step < 300; ++step) {
    store.ZeroGrad();
    Tensor target = Tensor::Full({4}, 3.f);
    Tensor diff = Sub(w, target);
    Tensor loss = SumAll(Mul(diff, diff));
    loss.Backward();
    adam.Step();
  }
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(w.at(i), 3.f, 1e-2f);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  ParamStore store;
  Rng rng(1);
  Tensor used = store.CreateFull("used", {1}, 0.f);
  Tensor unused = store.CreateFull("unused", {1}, 7.f);
  Adam adam(&store, AdamConfig{.lr = 0.5f});
  store.ZeroGrad();
  // Only give `used` a gradient by clearing grads then re-accumulating.
  SumAll(Mul(used, used)).Backward();
  unused.impl()->grad.clear();  // Simulate a parameter untouched this step.
  adam.Step();
  EXPECT_FLOAT_EQ(unused.at(0), 7.f);
}

TEST(AdamTest, StepCountIncrements) {
  ParamStore store;
  Tensor w = store.CreateFull("w", {1}, 1.f);
  Adam adam(&store, AdamConfig{});
  EXPECT_EQ(adam.step_count(), 0);
  store.ZeroGrad();
  SumAll(w).Backward();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, LrScaleZeroFreezesWeights) {
  ParamStore store;
  Tensor w = store.CreateFull("w", {2}, 1.f);
  Adam adam(&store, AdamConfig{.lr = 0.1f});
  store.ZeroGrad();
  SumAll(Mul(w, w)).Backward();
  adam.Step(/*lr_scale=*/0.f);
  EXPECT_FLOAT_EQ(w.at(0), 1.f);
}

TEST(AdamTest, WeightDecayPullsTowardZero) {
  ParamStore store;
  Tensor w = store.CreateFull("w", {1}, 5.f);
  Adam adam(&store, AdamConfig{.lr = 0.05f, .weight_decay = 1.f});
  for (int step = 0; step < 200; ++step) {
    store.ZeroGrad();
    // Loss gradient is 0; only decay acts.
    w.ZeroGrad();
    adam.Step();
  }
  EXPECT_LT(std::abs(w.at(0)), 1.f);
}

TEST(LinearDecayScheduleTest, Endpoints) {
  LinearDecaySchedule sched(100, 0.f);
  EXPECT_FLOAT_EQ(sched.Scale(0), 1.f);
  EXPECT_NEAR(sched.Scale(50), 0.5f, 1e-5f);
  EXPECT_FLOAT_EQ(sched.Scale(100), 0.f);
  EXPECT_FLOAT_EQ(sched.Scale(1000), 0.f);
}

TEST(LinearDecayScheduleTest, FinalFraction) {
  LinearDecaySchedule sched(10, 0.2f);
  EXPECT_FLOAT_EQ(sched.Scale(0), 1.f);
  EXPECT_NEAR(sched.Scale(5), 0.6f, 1e-5f);
  EXPECT_FLOAT_EQ(sched.Scale(10), 0.2f);
}

TEST(AdamTest, TrainsTinyClassifier) {
  // Linearly separable 2-class problem must reach zero training error.
  ParamStore store;
  Rng rng(2);
  Tensor w = store.CreateNormal("w", {2, 2}, 0.1f, &rng);
  Tensor b = store.CreateZeros("b", {2});
  Adam adam(&store, AdamConfig{.lr = 0.05f});
  std::vector<float> xs = {1.f, 0.f, 0.9f, 0.1f, 0.f, 1.f, 0.1f, 0.9f};
  std::vector<int> ys = {0, 0, 1, 1};
  Tensor x = Tensor::FromVector({4, 2}, xs);
  for (int step = 0; step < 200; ++step) {
    store.ZeroGrad();
    Tensor logits = AddBias(MatMul(x, w), b);
    SoftmaxCrossEntropy(logits, ys).Backward();
    adam.Step();
  }
  Tensor logits = AddBias(MatMul(x, w), b);
  for (int i = 0; i < 4; ++i) {
    int pred = logits.at2(i, 0) > logits.at2(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, ys[size_t(i)]) << "example " << i;
  }
}

TEST(AdamTest, BiasCorrectionStaysExactAtLargeStepCounts) {
  // Regression: bias correction used to compute pow(beta, float(step)).
  // Past 2^24, float(step) collapses adjacent step counts onto the same
  // value, freezing the correction term. The fix computes in double; this
  // pins the exact float update at a step count where float(step) != step.
  constexpr int64_t kStep = (int64_t(1) << 24) + 2;  // Step() lands on 2^24+3.
  ASSERT_NE(double(float(kStep + 1)), double(kStep + 1));

  AdamConfig cfg;
  cfg.lr = 1e-3f;
  cfg.beta1 = 0.9f;
  cfg.beta2 = 0.99999994f;  // Close to 1: correction still far from 1 here.
  ParamStore store;
  Tensor w = store.CreateFull("w", {3}, 2.f);
  Adam adam(&store, cfg);

  const std::vector<float> m = {0.5f, -0.25f, 0.125f};
  const std::vector<float> v = {0.04f, 0.09f, 0.0001f};
  ASSERT_TRUE(adam.SetState({m}, {v}, kStep).ok());

  store.ZeroGrad();
  const std::vector<float> g = {1.f, -2.f, 0.5f};
  w.AccumulateGrad(g.data(), 3);
  adam.Step();

  // Expected update, bias correction in double exactly as the fix does it.
  const float bc1 =
      float(1.0 - std::pow(double(cfg.beta1), double(kStep + 1)));
  const float bc2 =
      float(1.0 - std::pow(double(cfg.beta2), double(kStep + 1)));
  // The exact expression the fix replaced — single-precision pow on a
  // collapsed float exponent — lands on a different float here, so this test
  // fails against the old implementation.
  const float bc2_old = 1.f - std::pow(cfg.beta2, float(kStep + 1));
  ASSERT_NE(bc2, bc2_old);

  for (size_t i = 0; i < 3; ++i) {
    const float mi = cfg.beta1 * m[i] + (1.f - cfg.beta1) * g[i];
    const float vi = cfg.beta2 * v[i] + (1.f - cfg.beta2) * g[i] * g[i];
    const float m_hat = mi / bc1;
    const float v_hat = vi / bc2;
    // Same association as Adam::Step: (lr * mhat) / (sqrt(vhat) + eps).
    const float expected = 2.f - cfg.lr * m_hat / (std::sqrt(v_hat) + cfg.eps);
    EXPECT_EQ(w.at(int64_t(i)), expected) << "element " << i;
  }
}

TEST(AdamClipTest, ScalesDownLargeGradients) {
  ParamStore store;
  Rng rng(12);
  Tensor w = store.CreateNormal("w", {4}, 0.1f, &rng);
  float d[] = {3.f, 0.f, 4.f, 0.f};  // Norm 5.
  w.AccumulateGrad(d, 4);
  float norm = Adam(&store, {}).Step(0.f, 1.f);
  EXPECT_NEAR(norm, 5.f, 1e-5f);
  EXPECT_NEAR(w.grad_vector()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad_vector()[2], 0.8f, 1e-5f);
}

TEST(AdamClipTest, LeavesSmallGradientsAlone) {
  ParamStore store;
  Rng rng(13);
  Tensor w = store.CreateNormal("w", {2}, 0.1f, &rng);
  float d[] = {0.3f, 0.4f};
  w.AccumulateGrad(d, 2);
  Adam(&store, {}).Step(0.f, 10.f);
  EXPECT_FLOAT_EQ(w.grad_vector()[0], 0.3f);
  EXPECT_FLOAT_EQ(w.grad_vector()[1], 0.4f);
}

/// Weights, gradients and moments of every parameter, in store order.
struct OptimState {
  std::vector<std::vector<float>> w, g, m, v;
};

/// The optimizer as three scalar passes: one sequential double sum for the
/// norm, a clip pass, then Adam element by element.
float ReferenceStep(const AdamConfig& cfg, int64_t step, float lr_scale,
                    float max_norm, OptimState* s) {
  double total = 0.0;
  for (const auto& g : s->g) {
    for (float x : g) total += double(x) * double(x);
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.f) {
    const float scale = max_norm / norm;
    for (auto& g : s->g) {
      for (float& x : g) x *= scale;
    }
  }
  const float lr = cfg.lr * lr_scale;
  const float bc1 = float(1.0 - std::pow(double(cfg.beta1), double(step)));
  const float bc2 = float(1.0 - std::pow(double(cfg.beta2), double(step)));
  for (size_t p = 0; p < s->w.size(); ++p) {
    for (size_t i = 0; i < s->w[p].size(); ++i) {
      float gi = s->g[p][i];
      if (cfg.weight_decay > 0.f) gi += cfg.weight_decay * s->w[p][i];
      float& m = s->m[p][i];
      float& v = s->v[p][i];
      m = cfg.beta1 * m + (1.f - cfg.beta1) * gi;
      v = cfg.beta2 * v + (1.f - cfg.beta2) * gi * gi;
      const float mhat = m / bc1;
      const float vhat = v / bc2;
      s->w[p][i] -= lr * mhat / (std::sqrt(vhat) + cfg.eps);
    }
  }
  return norm;
}

void ExpectBitIdentical(const std::vector<std::vector<float>>& a,
                        const std::vector<std::vector<float>>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size()) << what << " of param " << p;
    EXPECT_EQ(std::memcmp(a[p].data(), b[p].data(),
                          a[p].size() * sizeof(float)),
              0)
        << what << " of param " << p << " differ bitwise";
  }
}

TEST(AdamTest, StepMatchesScalarReferenceAtAnyThreadCount) {
  // 40001 elements make three chunks, the last ragged (and not a multiple of
  // the 8 norm lanes); 3x5 is one short chunk.
  ASSERT_EQ(Adam::kChunkElems, 16384);
  const float kInf = std::numeric_limits<float>::infinity();
  for (const float max_norm : {kInf, 1.f}) {
    for (const float weight_decay : {0.f, 0.01f}) {
      const AdamConfig cfg{.lr = 0.01f, .weight_decay = weight_decay};
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "max_norm " << max_norm << " wd "
                                        << weight_decay << " threads "
                                        << threads);
        SetTrainThreads(threads);
        ParamStore store;
        Rng init(5);
        store.CreateNormal("big", {40001}, 0.5f, &init);
        store.CreateNormal("small", {3, 5}, 0.5f, &init);
        Adam adam(&store, cfg);
        OptimState ref;
        for (const auto& [name, t] : store.params()) {
          ref.w.push_back(t.ToVector());
          ref.m.emplace_back(size_t(t.numel()), 0.f);
          ref.v.emplace_back(size_t(t.numel()), 0.f);
        }
        Rng grads(6);
        for (int64_t step = 1; step <= 3; ++step) {
          ref.g.clear();
          for (const auto& [name, t] : store.params()) {
            std::vector<float> g(size_t(t.numel()));
            for (float& x : g) x = grads.UniformFloat(-1.f, 1.f);
            t.impl()->grad = g;
            ref.g.push_back(std::move(g));
          }
          const float ref_norm =
              ReferenceStep(cfg, step, 0.75f, max_norm, &ref);
          const float norm = adam.Step(0.75f, max_norm);
          EXPECT_EQ(std::memcmp(&norm, &ref_norm, sizeof(float)), 0)
              << "step " << step << ": " << norm << " vs " << ref_norm;
          OptimState got;
          for (const auto& [name, t] : store.params()) {
            got.w.push_back(t.ToVector());
            got.g.push_back(t.grad_vector());
          }
          got.m = adam.first_moments();
          got.v = adam.second_moments();
          ExpectBitIdentical(ref.w, got.w, "weights");
          ExpectBitIdentical(ref.g, got.g, "gradients");
          ExpectBitIdentical(ref.m, got.m, "first moments");
          ExpectBitIdentical(ref.v, got.v, "second moments");
        }
      }
    }
  }
  SetTrainThreads(1);
}

TEST(AdamTest, ShardedStepZeroesUntouchedParamsAndMovesThemByMoments) {
  ParamStore store;
  Tensor used = store.CreateFull("used", {3}, 1.f);
  Tensor untouched = store.CreateFull("untouched", {2}, 1.f);
  Tensor fresh = store.CreateFull("fresh", {2}, 1.f);
  Adam adam(&store, AdamConfig{.lr = 0.1f});
  // A first plain step gives `untouched` moments; `fresh` never has a grad.
  used.ZeroGrad();
  untouched.ZeroGrad();
  Add(SumAll(Mul(used, used)), SumAll(Mul(untouched, untouched))).Backward();
  fresh.impl()->grad.clear();
  adam.Step();
  ASSERT_TRUE(fresh.impl()->grad.empty());
  const std::vector<float> used_before = used.ToVector();
  const std::vector<float> untouched_before = untouched.ToVector();

  GradShard shard({&store});
  {
    ScopedGradShard guard(&shard);
    SumAll(Mul(used, used)).Backward();
  }
  // Stale values: the sharded step overwrites every gradient.
  used.impl()->grad.assign(3, 7.f);
  untouched.impl()->grad.assign(2, 7.f);
  adam.Step(1.f, std::numeric_limits<float>::infinity(), {&shard});

  const float* buf = shard.Touched(used.impl().get());
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(shard.Touched(untouched.impl().get()), nullptr);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(used.grad_vector()[size_t(i)], 0.f + buf[i]);
    EXPECT_NE(used.at(i), used_before[size_t(i)]);
  }
  for (int64_t i = 0; i < 2; ++i) {
    const float g = untouched.grad_vector()[size_t(i)];
    EXPECT_EQ(g, 0.f);
    EXPECT_FALSE(std::signbit(g));
    // Zero gradient, but the first step's moments still move the weight.
    EXPECT_LT(untouched.at(i), untouched_before[size_t(i)]);
    ASSERT_EQ(fresh.grad_vector().size(), 2u);
    EXPECT_EQ(fresh.grad_vector()[size_t(i)], 0.f);
    EXPECT_EQ(fresh.at(i), 1.f);  // No moments yet: 0 / (0 + eps).
  }
}

}  // namespace
}  // namespace nn
}  // namespace turl
