#include "nn/tensor.h"

#include <thread>

#include "gtest/gtest.h"
#include "nn/ops.h"

namespace turl {
namespace nn {
namespace {

TEST(TensorTest, ZerosShapeAndContents) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.at(i), 0.f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
  EXPECT_FLOAT_EQ(Tensor::Scalar(-1.f).item(), -1.f);
}

TEST(TensorTest, FromVectorAndAt2) {
  Tensor t = Tensor::FromVector({2, 2}, {1.f, 2.f, 3.f, 4.f});
  EXPECT_FLOAT_EQ(t.at2(0, 0), 1.f);
  EXPECT_FLOAT_EQ(t.at2(0, 1), 2.f);
  EXPECT_FLOAT_EQ(t.at2(1, 0), 3.f);
  EXPECT_FLOAT_EQ(t.at2(1, 1), 4.f);
}

TEST(TensorTest, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, CopySharesStorage) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = a;
  b.data()[0] = 9.f;
  EXPECT_FLOAT_EQ(a.at(0), 9.f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Full({2}, 1.f);
  Tensor b = a.Clone();
  b.data()[0] = 5.f;
  EXPECT_FLOAT_EQ(a.at(0), 1.f);
}

TEST(TensorTest, ToVectorCopies) {
  Tensor a = Tensor::FromVector({3}, {1.f, 2.f, 3.f});
  auto v = a.ToVector();
  v[0] = 100.f;
  EXPECT_FLOAT_EQ(a.at(0), 1.f);
}

TEST(TensorTest, GradLazyAllocation) {
  Tensor a = Tensor::Zeros({4});
  EXPECT_FALSE(a.has_grad());
  a.grad();
  EXPECT_TRUE(a.has_grad());
  EXPECT_EQ(a.grad_vector().size(), 4u);
}

TEST(TensorTest, AccumulateGradAdds) {
  Tensor a = Tensor::Zeros({2});
  float d1[] = {1.f, 2.f};
  float d2[] = {0.5f, -1.f};
  a.AccumulateGrad(d1, 2);
  a.AccumulateGrad(d2, 2);
  EXPECT_FLOAT_EQ(a.grad_vector()[0], 1.5f);
  EXPECT_FLOAT_EQ(a.grad_vector()[1], 1.f);
}

TEST(TensorTest, ZeroGradResets) {
  Tensor a = Tensor::Zeros({2});
  float d[] = {1.f, 1.f};
  a.AccumulateGrad(d, 2);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad_vector()[0], 0.f);
}

TEST(TensorTest, BackwardThroughSimpleGraph) {
  // loss = sum(a + a) => dloss/da = 2 everywhere.
  Tensor a = Tensor::FromVector({3}, {1.f, 2.f, 3.f});
  a.set_requires_grad(true);
  Tensor loss = SumAll(Add(a, a));
  EXPECT_FLOAT_EQ(loss.item(), 12.f);
  loss.Backward();
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a.grad_vector()[size_t(i)], 2.f);
}

TEST(TensorTest, BackwardAccumulatesAcrossCalls) {
  Tensor a = Tensor::FromVector({2}, {1.f, 1.f});
  a.set_requires_grad(true);
  SumAll(a).Backward();
  SumAll(a).Backward();
  EXPECT_FLOAT_EQ(a.grad_vector()[0], 2.f);
}

TEST(TensorTest, BackwardReleaseGraphClearsEdges) {
  Tensor a = Tensor::FromVector({2}, {1.f, 2.f});
  Tensor mid = Add(a, a);
  Tensor loss = SumAll(mid);
  loss.Backward(/*release_graph=*/true);
  EXPECT_TRUE(mid.impl()->parents.empty());
  EXPECT_EQ(mid.impl()->backward_fn, nullptr);
}

TEST(TensorTest, DiamondGraphGradientsSum) {
  // loss = sum(a*a + a*a): two paths through the same parent.
  Tensor a = Tensor::FromVector({1}, {3.f});
  Tensor b = Mul(a, a);
  Tensor c = Mul(a, a);
  Tensor loss = SumAll(Add(b, c));
  loss.Backward();
  // d/da (2 a^2) = 4a = 12.
  EXPECT_FLOAT_EQ(a.grad_vector()[0], 12.f);
}

TEST(TensorTest, DetachBlocksGradient) {
  Tensor a = Tensor::FromVector({2}, {1.f, 2.f});
  Tensor d = Add(a, a).Detach();
  Tensor loss = SumAll(d);
  loss.Backward();
  EXPECT_FALSE(a.has_grad());
}

TEST(NoGradScopeTest, ResultsRecordNoParentsAndNoClosure) {
  Tensor a = Tensor::FromVector({2}, {1.f, 2.f});
  a.set_requires_grad(true);
  NoGradScope no_grad;
  Tensor mid = Add(a, a);
  Tensor out = Mul(mid, a);
  for (const Tensor& t : {mid, out}) {
    EXPECT_TRUE(t.impl()->parents.empty());
    EXPECT_EQ(t.impl()->backward_fn, nullptr);
    EXPECT_TRUE(t.impl()->tape_free);
    EXPECT_FALSE(t.requires_grad());
  }
  // Only the bookkeeping goes; the values are the taped ones.
  EXPECT_FLOAT_EQ(out.at(0), 2.f);
  EXPECT_FLOAT_EQ(out.at(1), 8.f);
}

TEST(NoGradScopeTest, ScopesNestAndRecordingResumesAfterOutermost) {
  Tensor a = Tensor::FromVector({2}, {1.f, 2.f});
  EXPECT_FALSE(NoGradScope::Active());
  {
    NoGradScope outer;
    {
      NoGradScope inner;
      EXPECT_TRUE(Add(a, a).impl()->tape_free);
    }
    EXPECT_TRUE(NoGradScope::Active());
    EXPECT_TRUE(Add(a, a).impl()->parents.empty());
  }
  EXPECT_FALSE(NoGradScope::Active());
  Tensor taped = Add(a, a);
  EXPECT_EQ(taped.impl()->parents.size(), 2u);
  EXPECT_NE(taped.impl()->backward_fn, nullptr);
  EXPECT_FALSE(taped.impl()->tape_free);
}

TEST(NoGradScopeTest, ScopeIsPerThread) {
  NoGradScope no_grad;
  bool active_elsewhere = true;
  std::thread([&] { active_elsewhere = NoGradScope::Active(); }).join();
  EXPECT_FALSE(active_elsewhere);
  EXPECT_TRUE(NoGradScope::Active());
}

TEST(NoGradScopeDeathTest, BackwardOnTapeFreeResultDies) {
  Tensor a = Tensor::FromVector({2}, {1.f, 2.f});
  a.set_requires_grad(true);
  Tensor loss;
  {
    NoGradScope no_grad;
    loss = SumAll(Mul(a, a));
  }
  EXPECT_DEATH(loss.Backward(), "NoGradScope");
}

TEST(NoGradScopeTest, TapedOpOnTapeFreeInputBackpropsIntoParameterOnly) {
  Tensor a = Tensor::FromVector({1, 2}, {1.f, 2.f});
  Tensor b = Tensor::FromVector({2, 2}, {1.f, -1.f, 0.5f, 2.f});
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor x;
  {
    NoGradScope no_grad;
    x = MatMul(a, b);  // [[2, 3]]
  }
  Tensor w = Tensor::FromVector({2, 1}, {3.f, -1.f});
  w.set_requires_grad(true);
  SumAll(MatMul(x, w)).Backward();
  // x is a constant, as after Detach(): d/dw sum(x w) = x^T, and nothing
  // reaches the inputs x was computed from.
  ASSERT_TRUE(w.has_grad());
  EXPECT_FLOAT_EQ(w.grad_vector()[0], 2.f);
  EXPECT_FLOAT_EQ(w.grad_vector()[1], 3.f);
  EXPECT_FALSE(a.has_grad());
  EXPECT_FALSE(b.has_grad());
}

TEST(ShapeTest, NumelAndToString) {
  EXPECT_EQ(ShapeNumel({2, 3, 4}), 24);
  EXPECT_EQ(ShapeNumel({}), 1);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(ShapeToString({}), "[]");
}

}  // namespace
}  // namespace nn
}  // namespace turl
