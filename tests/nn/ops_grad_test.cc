// Numeric gradient checks for every differentiable op in nn/ops.h.
// Each test builds a small random graph ending in a scalar and compares
// reverse-mode gradients against central finite differences.

#include <vector>

#include "gtest/gtest.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "test_util.h"
#include "util/rng.h"

namespace turl {
namespace nn {
namespace {

using testing::GradientChecker;

Tensor RandomTensor(Shape shape, Rng* rng, float lo = -1.f, float hi = 1.f) {
  return Tensor::Random(std::move(shape), *rng, lo, hi);
}

// Weighted sum makes the loss sensitive to each output element distinctly.
Tensor WeightedSum(const Tensor& x, const Tensor& w) {
  return SumAll(Mul(x, w));
}

TEST(OpsGradTest, Add) {
  Rng rng(1);
  Tensor a = RandomTensor({3, 4}, &rng), b = RandomTensor({3, 4}, &rng);
  Tensor w = RandomTensor({3, 4}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(Add(a, b), w); },
                              {a, b});
}

TEST(OpsGradTest, Sub) {
  Rng rng(2);
  Tensor a = RandomTensor({2, 5}, &rng), b = RandomTensor({2, 5}, &rng);
  Tensor w = RandomTensor({2, 5}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(Sub(a, b), w); },
                              {a, b});
}

TEST(OpsGradTest, Mul) {
  Rng rng(3);
  Tensor a = RandomTensor({3, 3}, &rng), b = RandomTensor({3, 3}, &rng);
  Tensor w = RandomTensor({3, 3}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(Mul(a, b), w); },
                              {a, b});
}

TEST(OpsGradTest, Scale) {
  Rng rng(4);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor w = RandomTensor({2, 3}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(Scale(a, -2.5f), w); },
                              {a});
}

TEST(OpsGradTest, AddBias) {
  Rng rng(5);
  Tensor x = RandomTensor({4, 3}, &rng), b = RandomTensor({3}, &rng);
  Tensor w = RandomTensor({4, 3}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(AddBias(x, b), w); },
                              {x, b});
}

TEST(OpsGradTest, MatMul) {
  Rng rng(6);
  Tensor a = RandomTensor({3, 4}, &rng), b = RandomTensor({4, 2}, &rng);
  Tensor w = RandomTensor({3, 2}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(MatMul(a, b), w); },
                              {a, b});
}

TEST(OpsGradTest, MatMulNT) {
  Rng rng(7);
  Tensor a = RandomTensor({3, 4}, &rng), b = RandomTensor({5, 4}, &rng);
  Tensor w = RandomTensor({3, 5}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(MatMulNT(a, b), w); },
                              {a, b});
}

TEST(OpsGradTest, MatMulNTMatchesMatMulForward) {
  // A * B^T computed via MatMulNT must equal MatMul(A, transpose(B)).
  Rng rng(8);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor b = RandomTensor({4, 3}, &rng);
  Tensor bt = Tensor::Zeros({3, 4});
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 3; ++j) bt.data()[j * 4 + i] = b.at2(i, j);
  Tensor y1 = MatMulNT(a, b);
  Tensor y2 = MatMul(a, bt);
  for (int64_t i = 0; i < y1.numel(); ++i)
    EXPECT_NEAR(y1.at(i), y2.at(i), 1e-5f);
}

TEST(OpsGradTest, Gelu) {
  Rng rng(9);
  Tensor x = RandomTensor({3, 4}, &rng, -2.f, 2.f);
  Tensor w = RandomTensor({3, 4}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(Gelu(x), w); }, {x});
}

TEST(OpsGradTest, Relu) {
  Rng rng(10);
  // Keep values away from the kink at 0 for finite differences.
  Tensor x = Tensor::FromVector({2, 3}, {-1.f, 2.f, -0.5f, 0.7f, 1.5f, -2.f});
  Tensor w = RandomTensor({2, 3}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(Relu(x), w); }, {x});
}

TEST(OpsGradTest, Tanh) {
  Rng rng(11);
  Tensor x = RandomTensor({2, 4}, &rng, -2.f, 2.f);
  Tensor w = RandomTensor({2, 4}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(TanhOp(x), w); }, {x});
}

TEST(OpsGradTest, Sigmoid) {
  Rng rng(12);
  Tensor x = RandomTensor({2, 4}, &rng, -3.f, 3.f);
  Tensor w = RandomTensor({2, 4}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(SigmoidOp(x), w); },
                              {x});
}

TEST(OpsGradTest, LayerNorm) {
  Rng rng(13);
  Tensor x = RandomTensor({3, 6}, &rng);
  Tensor gamma = RandomTensor({6}, &rng, 0.5f, 1.5f);
  Tensor beta = RandomTensor({6}, &rng);
  Tensor w = RandomTensor({3, 6}, &rng);
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return WeightedSum(LayerNormOp(x, gamma, beta), w); },
      {x, gamma, beta});
}

TEST(OpsGradTest, LayerNormForwardNormalizes) {
  Tensor x = Tensor::FromVector({1, 4}, {1.f, 2.f, 3.f, 4.f});
  Tensor gamma = Tensor::Full({4}, 1.f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNormOp(x, gamma, beta);
  float mean = 0.f, var = 0.f;
  for (int64_t i = 0; i < 4; ++i) mean += y.at(i);
  mean /= 4.f;
  for (int64_t i = 0; i < 4; ++i) var += (y.at(i) - mean) * (y.at(i) - mean);
  var /= 4.f;
  EXPECT_NEAR(mean, 0.f, 1e-5f);
  EXPECT_NEAR(var, 1.f, 1e-3f);
}

TEST(OpsGradTest, EmbeddingLookup) {
  Rng rng(14);
  Tensor weight = RandomTensor({5, 3}, &rng);
  std::vector<int> ids = {0, 2, 2, 4};  // Repeats exercise scatter-add.
  Tensor w = RandomTensor({4, 3}, &rng);
  GradientChecker().CheckTape(
      [&] { return WeightedSum(EmbeddingLookup(weight, ids), w); }, {weight});
}

TEST(OpsGradTest, EmbeddingLookupForwardGathers) {
  Tensor weight = Tensor::FromVector({3, 2}, {1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  Tensor out = EmbeddingLookup(weight, {2, 0});
  EXPECT_FLOAT_EQ(out.at2(0, 0), 5.f);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 6.f);
  EXPECT_FLOAT_EQ(out.at2(1, 0), 1.f);
}

TEST(OpsGradTest, ConcatCols) {
  Rng rng(15);
  Tensor a = RandomTensor({3, 2}, &rng), b = RandomTensor({3, 4}, &rng);
  Tensor w = RandomTensor({3, 6}, &rng);
  GradientChecker().CheckTape(
      [&] { return WeightedSum(ConcatCols(a, b), w); }, {a, b});
}

TEST(OpsGradTest, ConcatRows) {
  Rng rng(16);
  Tensor a = RandomTensor({2, 3}, &rng), b = RandomTensor({1, 3}, &rng),
         c = RandomTensor({3, 3}, &rng);
  Tensor w = RandomTensor({6, 3}, &rng);
  GradientChecker().CheckTape(
      [&] { return WeightedSum(ConcatRows({a, b, c}), w); }, {a, b, c});
}

TEST(OpsGradTest, SelectRows) {
  Rng rng(17);
  Tensor x = RandomTensor({5, 3}, &rng);
  std::vector<int> rows = {4, 1, 1};
  Tensor w = RandomTensor({3, 3}, &rng);
  GradientChecker().CheckTape(
      [&] { return WeightedSum(SelectRows(x, rows), w); }, {x});
}

TEST(OpsGradTest, RowsMean) {
  Rng rng(18);
  Tensor x = RandomTensor({4, 3}, &rng);
  std::vector<int> rows = {0, 2, 3};
  Tensor w = RandomTensor({1, 3}, &rng);
  GradientChecker().CheckTape([&] { return WeightedSum(RowsMean(x, rows), w); },
                              {x});
}

TEST(OpsGradTest, BagMean) {
  Rng rng(181);
  Tensor weight = RandomTensor({6, 3}, &rng);
  std::vector<std::vector<int>> bags = {{0, 1, 1}, {}, {5}, {2, 3, 4, 5}};
  Tensor w = RandomTensor({4, 3}, &rng);
  GradientChecker().CheckTape(
      [&] { return WeightedSum(BagMean(weight, bags), w); }, {weight});
}

TEST(OpsGradTest, BagMeanForwardValues) {
  Tensor weight = Tensor::FromVector({3, 2}, {1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  Tensor out = BagMean(weight, {{0, 2}, {}});
  EXPECT_FLOAT_EQ(out.at2(0, 0), 3.f);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 4.f);
  EXPECT_FLOAT_EQ(out.at2(1, 0), 0.f);  // Empty bag is all-zero.
  EXPECT_FLOAT_EQ(out.at2(1, 1), 0.f);
}

TEST(OpsGradTest, SoftmaxRows) {
  Rng rng(19);
  Tensor x = RandomTensor({3, 4}, &rng);
  Tensor w = RandomTensor({3, 4}, &rng);
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return WeightedSum(SoftmaxRows(x), w); }, {x});
}

TEST(OpsGradTest, SoftmaxRowsSumToOne) {
  Rng rng(20);
  Tensor x = RandomTensor({4, 6}, &rng, -5.f, 5.f);
  Tensor y = SoftmaxRows(x);
  for (int64_t i = 0; i < 4; ++i) {
    float sum = 0.f;
    for (int64_t j = 0; j < 6; ++j) sum += y.at2(i, j);
    EXPECT_NEAR(sum, 1.f, 1e-5f);
  }
}

std::vector<float> NoMask(int64_t n) {
  return std::vector<float>(size_t(n * n), 0.f);
}

TEST(OpsGradTest, MultiHeadAttentionUnmasked) {
  Rng rng(21);
  const int64_t n = 4, d = 6;
  Tensor q = RandomTensor({n, d}, &rng), k = RandomTensor({n, d}, &rng),
         v = RandomTensor({n, d}, &rng);
  Tensor w = RandomTensor({n, d}, &rng);
  auto mask = NoMask(n);
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return WeightedSum(MultiHeadAttention(q, k, v, mask, 2), w); },
      {q, k, v});
}

TEST(OpsGradTest, MultiHeadAttentionMasked) {
  Rng rng(22);
  const int64_t n = 5, d = 4;
  Tensor q = RandomTensor({n, d}, &rng), k = RandomTensor({n, d}, &rng),
         v = RandomTensor({n, d}, &rng);
  Tensor w = RandomTensor({n, d}, &rng);
  // Block-diagonal visibility: {0,1,2} and {3,4} cannot see each other.
  std::vector<float> mask(size_t(n * n), 0.f);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      bool same_block = (i < 3) == (j < 3);
      if (!same_block) mask[size_t(i * n + j)] = -1e9f;
    }
  }
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return WeightedSum(MultiHeadAttention(q, k, v, mask, 2), w); },
      {q, k, v});
}

TEST(OpsGradTest, MaskedAttentionIgnoresInvisibleElements) {
  // With a block mask, perturbing v in the other block must not change out.
  Rng rng(23);
  const int64_t n = 4, d = 4;
  Tensor q = RandomTensor({n, d}, &rng), k = RandomTensor({n, d}, &rng),
         v = RandomTensor({n, d}, &rng);
  std::vector<float> mask(size_t(n * n), 0.f);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j)
      if ((i < 2) != (j < 2)) mask[size_t(i * n + j)] = -1e9f;
  Tensor out1 = MultiHeadAttention(q, k, v, mask, 2);
  v.data()[3 * d + 1] += 10.f;  // Row 3 is invisible to rows 0 and 1.
  Tensor out2 = MultiHeadAttention(q, k, v, mask, 2);
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < d; ++j)
      EXPECT_FLOAT_EQ(out1.at2(i, j), out2.at2(i, j));
}

TEST(OpsGradTest, SoftmaxCrossEntropy) {
  Rng rng(24);
  Tensor logits = RandomTensor({4, 5}, &rng);
  std::vector<int> targets = {1, 0, 4, 2};
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return SoftmaxCrossEntropy(logits, targets); }, {logits});
}

TEST(OpsGradTest, SoftmaxCrossEntropyIgnoreIndex) {
  Rng rng(25);
  Tensor logits = RandomTensor({4, 3}, &rng);
  std::vector<int> targets = {1, -1, 2, -1};
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return SoftmaxCrossEntropy(logits, targets, -1); }, {logits});
}

TEST(OpsGradTest, SoftmaxCrossEntropyAllIgnoredIsZero) {
  Rng rng(26);
  Tensor logits = RandomTensor({2, 3}, &rng);
  Tensor loss = SoftmaxCrossEntropy(logits, {-1, -1}, -1);
  EXPECT_FLOAT_EQ(loss.item(), 0.f);
  loss.Backward();  // Must not crash.
}

TEST(OpsGradTest, SoftmaxCrossEntropyValueMatchesManual) {
  // Uniform logits over C classes -> loss = log(C).
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.f), 1e-5f);
}

TEST(OpsGradTest, BceWithLogits) {
  Rng rng(27);
  Tensor logits = RandomTensor({3, 2}, &rng, -2.f, 2.f);
  std::vector<float> targets = {1.f, 0.f, 0.f, 1.f, 1.f, 0.f};
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] { return BceWithLogits(logits, targets); }, {logits});
}

TEST(OpsGradTest, BceWithLogitsValueAtZero) {
  // logit 0 => p=0.5 => loss = log 2 regardless of target.
  Tensor logits = Tensor::Zeros({4});
  Tensor loss = BceWithLogits(logits, {0.f, 1.f, 0.f, 1.f});
  EXPECT_NEAR(loss.item(), std::log(2.f), 1e-5f);
}

TEST(OpsGradTest, SumAllAndMeanAll) {
  Rng rng(28);
  Tensor x = RandomTensor({2, 3}, &rng);
  GradientChecker().CheckTape([&] { return SumAll(x); }, {x});
  GradientChecker().CheckTape([&] { return MeanAll(x); }, {x});
  EXPECT_NEAR(MeanAll(x).item(), SumAll(x).item() / 6.f, 1e-5f);
}

TEST(OpsGradTest, DropoutEvalIsIdentity) {
  Rng rng(29);
  Tensor x = RandomTensor({2, 3}, &rng);
  Tensor y = Dropout(x, 0.5f, /*training=*/false, &rng);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y.at(i), x.at(i));
}

TEST(OpsGradTest, DropoutTrainScalesSurvivors) {
  Rng rng(30);
  Tensor x = Tensor::Full({1, 1000}, 1.f);
  Tensor y = Dropout(x, 0.25f, /*training=*/true, &rng);
  int zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.at(i), 1.f / 0.75f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.25, 0.05);
}

TEST(OpsGradTest, DropoutBackwardUsesSameMask) {
  Rng rng(31);
  Tensor x = Tensor::Full({1, 100}, 2.f);
  x.ZeroGrad();
  Tensor y = Dropout(x, 0.5f, true, &rng);
  SumAll(y).Backward();
  for (int64_t i = 0; i < 100; ++i) {
    if (y.at(i) == 0.f) {
      EXPECT_FLOAT_EQ(x.grad_vector()[size_t(i)], 0.f);
    } else {
      EXPECT_FLOAT_EQ(x.grad_vector()[size_t(i)], 2.f);
    }
  }
}

// Composite graph: a two-layer MLP with every activation in the chain,
// checked end to end.
TEST(OpsGradTest, CompositeMlpGraph) {
  Rng rng(32);
  Tensor x = RandomTensor({2, 4}, &rng);
  Tensor w1 = RandomTensor({4, 5}, &rng), b1 = RandomTensor({5}, &rng);
  Tensor w2 = RandomTensor({5, 3}, &rng), b2 = RandomTensor({3}, &rng);
  std::vector<int> targets = {2, 0};
  GradientChecker(1e-2f, 3e-2f).CheckTape(
      [&] {
        Tensor h = Gelu(AddBias(MatMul(x, w1), b1));
        Tensor logits = AddBias(MatMul(h, w2), b2);
        return SoftmaxCrossEntropy(logits, targets);
      },
      {x, w1, b1, w2, b2});
}

}  // namespace
}  // namespace nn
}  // namespace turl
