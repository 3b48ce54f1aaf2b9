#include "nn/module.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/ops.h"
#include "test_util.h"

namespace turl {
namespace nn {
namespace {

TEST(ParamStoreTest, RegisterAndGet) {
  ParamStore store;
  Rng rng(1);
  Tensor w = store.CreateNormal("w", {2, 3}, 0.1f, &rng);
  EXPECT_TRUE(store.Contains("w"));
  EXPECT_FALSE(store.Contains("missing"));
  Tensor got = store.Get("w");
  EXPECT_EQ(got.impl().get(), w.impl().get());
  EXPECT_TRUE(got.requires_grad());
}

TEST(ParamStoreTest, TotalParameters) {
  ParamStore store;
  Rng rng(2);
  store.CreateNormal("a", {2, 3}, 0.1f, &rng);
  store.CreateZeros("b", {5});
  EXPECT_EQ(store.TotalParameters(), 11);
}

TEST(ParamStoreTest, CreateFullValue) {
  ParamStore store;
  Tensor g = store.CreateFull("gamma", {4}, 1.f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g.at(i), 1.f);
}

TEST(ParamStoreTest, ZeroGradClearsAll) {
  ParamStore store;
  Rng rng(3);
  Tensor w = store.CreateNormal("w", {3}, 0.1f, &rng);
  float d[] = {1.f, 1.f, 1.f};
  w.AccumulateGrad(d, 3);
  store.ZeroGrad();
  for (float g : w.grad_vector()) EXPECT_FLOAT_EQ(g, 0.f);
}

TEST(LinearTest, ForwardShapeAndValue) {
  ParamStore store;
  Rng rng(4);
  Linear lin(&store, "lin", 3, 2, &rng);
  EXPECT_TRUE(store.Contains("lin.weight"));
  EXPECT_TRUE(store.Contains("lin.bias"));
  Tensor x = Tensor::FromVector({1, 3}, {1.f, 0.f, 0.f});
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.dim(0), 1);
  EXPECT_EQ(y.dim(1), 2);
  // With x = e0, output equals first weight row plus bias (bias starts 0).
  EXPECT_FLOAT_EQ(y.at(0), lin.weight().at2(0, 0));
  EXPECT_FLOAT_EQ(y.at(1), lin.weight().at2(0, 1));
}

TEST(LinearTest, GradientFlowsToParams) {
  ParamStore store;
  Rng rng(5);
  Linear lin(&store, "lin", 3, 2, &rng);
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  store.ZeroGrad();
  SumAll(lin.Forward(x)).Backward();
  bool any_nonzero = false;
  for (float g : store.Get("lin.weight").grad_vector())
    any_nonzero |= (g != 0.f);
  EXPECT_TRUE(any_nonzero);
  // Bias grad: each output column receives the row count (2).
  for (float g : store.Get("lin.bias").grad_vector()) EXPECT_FLOAT_EQ(g, 2.f);
}

TEST(EmbeddingTest, LookupShape) {
  ParamStore store;
  Rng rng(6);
  Embedding emb(&store, "emb", 10, 4, &rng);
  EXPECT_EQ(emb.vocab_size(), 10);
  EXPECT_EQ(emb.dim(), 4);
  Tensor out = emb.Forward({1, 5, 5});
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_EQ(out.dim(1), 4);
  for (int64_t j = 0; j < 4; ++j)
    EXPECT_FLOAT_EQ(out.at2(1, j), out.at2(2, j));
}

TEST(LayerNormModuleTest, OutputRowStats) {
  ParamStore store;
  LayerNorm ln(&store, "ln", 8);
  Rng rng(7);
  Tensor x = Tensor::Random({3, 8}, rng, -3.f, 3.f);
  Tensor y = ln.Forward(x);
  for (int64_t i = 0; i < 3; ++i) {
    float mean = 0.f;
    for (int64_t j = 0; j < 8; ++j) mean += y.at2(i, j);
    EXPECT_NEAR(mean / 8.f, 0.f, 1e-5f);
  }
}

TEST(TransformerLayerTest, ForwardPreservesShape) {
  ParamStore store;
  Rng rng(8);
  TransformerLayer layer(&store, "l0", 8, 16, 2, &rng);
  Tensor x = Tensor::Random({5, 8}, rng);
  std::vector<float> mask(25, 0.f);
  Tensor y = layer.Forward(x, mask, 0.f, false, &rng);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(TransformerLayerTest, GradChecksEndToEnd) {
  ParamStore store;
  Rng rng(9);
  TransformerLayer layer(&store, "l0", 4, 8, 2, &rng);
  Tensor x = Tensor::Random({3, 4}, rng);
  std::vector<float> mask(9, 0.f);
  mask[1] = -1e9f;  // Element 1 invisible to element 0.
  mask[3] = -1e9f;
  Tensor w = Tensor::Random({3, 4}, rng);
  testing::GradientChecker(1e-2f, 4e-2f).CheckTape(
      [&] {
        return SumAll(Mul(layer.Forward(x, mask, 0.f, false, &rng), w));
      },
      {x});
}

TEST(TransformerEncoderTest, StacksLayers) {
  ParamStore store;
  Rng rng(10);
  TransformerEncoder enc(&store, "enc", 3, 8, 16, 2, &rng);
  EXPECT_EQ(enc.num_layers(), 3);
  EXPECT_TRUE(store.Contains("enc.layer0.attn.wq.weight"));
  EXPECT_TRUE(store.Contains("enc.layer2.ff.fc2.bias"));
  Tensor x = Tensor::Random({4, 8}, rng);
  std::vector<float> mask(16, 0.f);
  Tensor y = enc.Forward(x, mask, 0.f, false, &rng);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(TransformerEncoderTest, DropoutChangesTrainOutput) {
  ParamStore store;
  Rng rng(11);
  TransformerEncoder enc(&store, "enc", 1, 8, 16, 2, &rng);
  Tensor x = Tensor::Random({4, 8}, rng);
  std::vector<float> mask(16, 0.f);
  Tensor eval1 = enc.Forward(x, mask, 0.5f, false, &rng);
  Tensor eval2 = enc.Forward(x, mask, 0.5f, false, &rng);
  for (int64_t i = 0; i < eval1.numel(); ++i)
    EXPECT_FLOAT_EQ(eval1.at(i), eval2.at(i));  // Eval is deterministic.
  Tensor train = enc.Forward(x, mask, 0.5f, true, &rng);
  int diffs = 0;
  for (int64_t i = 0; i < eval1.numel(); ++i)
    diffs += std::abs(train.at(i) - eval1.at(i)) > 1e-7f;
  EXPECT_GT(diffs, 0);
}

}  // namespace
}  // namespace nn
}  // namespace turl
