// Property-style parameterized sweeps over the nn ops: algebraic identities
// and gradient checks across a grid of shapes and seeds.

#include <tuple>

#include "gtest/gtest.h"
#include "nn/ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace turl {
namespace nn {
namespace {

using testing::GradientChecker;

Tensor RandomTensor(Shape shape, Rng* rng, float lo = -1.f, float hi = 1.f) {
  return Tensor::Random(std::move(shape), *rng, lo, hi);
}

// ---------------------------------------------------------------------------
// Shape sweep: gradients of the binary/unary elementwise chain hold for any
// (rows, cols) pair.
class ElementwiseShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ElementwiseShapeSweep, ChainGradients) {
  auto [rows, cols, seed] = GetParam();
  Rng rng{uint64_t(seed)};
  Tensor a = RandomTensor({rows, cols}, &rng);
  Tensor b = RandomTensor({rows, cols}, &rng);
  GradientChecker(1e-2f, 4e-2f).CheckTape(
      [&] { return SumAll(Mul(TanhOp(Add(a, b)), Sub(a, b))); }, {a, b});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ElementwiseShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 2),
                      std::make_tuple(5, 1, 3), std::make_tuple(3, 4, 4),
                      std::make_tuple(8, 2, 5), std::make_tuple(2, 16, 6)));

// ---------------------------------------------------------------------------
// MatMul sweep over (m, k, n).
class MatMulShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeSweep, Gradients) {
  auto [m, k, n] = GetParam();
  Rng rng{uint64_t(m * 100 + k * 10 + n)};
  Tensor a = RandomTensor({m, k}, &rng);
  Tensor b = RandomTensor({k, n}, &rng);
  Tensor w = RandomTensor({m, n}, &rng);
  GradientChecker().CheckTape([&] { return SumAll(Mul(MatMul(a, b), w)); },
                              {a, b});
}

TEST_P(MatMulShapeSweep, IdentityRightIsNoop) {
  auto [m, k, n] = GetParam();
  (void)n;
  Rng rng{uint64_t(m + k)};
  Tensor a = RandomTensor({m, k}, &rng);
  Tensor eye = Tensor::Zeros({k, k});
  for (int i = 0; i < k; ++i) eye.data()[i * k + i] = 1.f;
  Tensor out = MatMul(a, eye);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(out.at(i), a.at(i), 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(4, 4, 4), std::make_tuple(1, 8, 2),
                      std::make_tuple(6, 2, 5)));

// ---------------------------------------------------------------------------
// Softmax rows sum to one for any width; attention with a zero mask equals
// attention with a uniform additive constant (shift invariance).
class SoftmaxWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxWidthSweep, RowsSumToOne) {
  const int width = GetParam();
  Rng rng{uint64_t(width)};
  Tensor x = RandomTensor({3, width}, &rng, -4.f, 4.f);
  Tensor y = SoftmaxRows(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0;
    for (int c = 0; c < width; ++c) sum += y.at2(r, c);
    EXPECT_NEAR(sum, 1.f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SoftmaxWidthSweep,
                         ::testing::Values(1, 2, 3, 8, 17, 64));

TEST(AttentionPropertyTest, MaskShiftInvariance) {
  Rng rng(11);
  const int64_t n = 5, d = 8;
  Tensor q = RandomTensor({n, d}, &rng), k = RandomTensor({n, d}, &rng),
         v = RandomTensor({n, d}, &rng);
  std::vector<float> zero_mask(size_t(n * n), 0.f);
  std::vector<float> shifted(size_t(n * n), 2.5f);  // Constant per row.
  Tensor a = MultiHeadAttention(q, k, v, zero_mask, 2);
  Tensor b = MultiHeadAttention(q, k, v, shifted, 2);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.at(i), b.at(i), 1e-4f);
  }
}

TEST(AttentionPropertyTest, FullyMaskedRowIsUniformAverage) {
  // When a row sees nothing (all -1e9), softmax degenerates to uniform over
  // all positions — exercise that this produces finite output, no NaNs.
  Rng rng(12);
  const int64_t n = 4, d = 4;
  Tensor q = RandomTensor({n, d}, &rng), k = RandomTensor({n, d}, &rng),
         v = RandomTensor({n, d}, &rng);
  std::vector<float> mask(size_t(n * n), 0.f);
  for (int64_t j = 0; j < n; ++j) mask[size_t(j)] = -1e9f;  // Row 0 blind.
  Tensor out = MultiHeadAttention(q, k, v, mask, 2);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.at(i)));
  }
}

// ---------------------------------------------------------------------------
// LayerNorm properties: invariance to a per-row additive shift, and
// equivariance to positive scaling when gamma=1, beta=0.
class LayerNormWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(LayerNormWidthSweep, ShiftInvariance) {
  const int width = GetParam();
  Rng rng(uint64_t(width) + 99);
  Tensor x = RandomTensor({2, width}, &rng);
  Tensor shifted = Tensor::Zeros({2, width});
  for (int64_t i = 0; i < x.numel(); ++i) {
    shifted.data()[i] = x.at(i) + 7.25f;
  }
  Tensor gamma = Tensor::Full({width}, 1.f);
  Tensor beta = Tensor::Zeros({width});
  Tensor a = LayerNormOp(x, gamma, beta);
  Tensor b = LayerNormOp(shifted, gamma, beta);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.at(i), b.at(i), 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LayerNormWidthSweep,
                         ::testing::Values(2, 4, 9, 32));

// ---------------------------------------------------------------------------
// Cross-entropy sanity across class counts: loss of a uniform distribution
// equals log(C) and perfect logits drive it toward zero.
class CrossEntropyClassSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrossEntropyClassSweep, UniformAndConfident) {
  const int classes = GetParam();
  Tensor uniform = Tensor::Zeros({2, classes});
  std::vector<int> targets = {0, classes - 1};
  EXPECT_NEAR(SoftmaxCrossEntropy(uniform, targets).item(),
              std::log(float(classes)), 1e-4f);

  Tensor confident = Tensor::Zeros({2, classes});
  confident.data()[0] = 30.f;
  confident.data()[int64_t(classes) + classes - 1] = 30.f;
  EXPECT_LT(SoftmaxCrossEntropy(confident, targets).item(), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Classes, CrossEntropyClassSweep,
                         ::testing::Values(2, 3, 5, 10, 100));

// ---------------------------------------------------------------------------
// Seed sweep: gradient checks of the full fused attention under different
// random draws (catches data-dependent backward bugs).
class AttentionSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(AttentionSeedSweep, Gradients) {
  Rng rng{uint64_t(GetParam())};
  const int64_t n = 4, d = 6;
  Tensor q = RandomTensor({n, d}, &rng), k = RandomTensor({n, d}, &rng),
         v = RandomTensor({n, d}, &rng);
  Tensor w = RandomTensor({n, d}, &rng);
  std::vector<float> mask(size_t(n * n), 0.f);
  // Random sparsity pattern, diagonal always visible.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i != j && rng.Bernoulli(0.4)) mask[size_t(i * n + j)] = -1e9f;
    }
  }
  GradientChecker(1e-2f, 4e-2f).CheckTape(
      [&] { return SumAll(Mul(MultiHeadAttention(q, k, v, mask, 3), w)); },
      {q, k, v});
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttentionSeedSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace nn
}  // namespace turl
