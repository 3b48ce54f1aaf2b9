#include <cstring>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "nn/train_parallel.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace turl {
namespace nn {
namespace {

/// Restores sequential training on scope exit so no test leaks a thread
/// count into its neighbors.
struct ThreadGuard {
  ~ThreadGuard() { SetTrainThreads(1); }
};

/// Bitwise equality over all gradients of a store, in registration order.
std::vector<std::vector<float>> GradsOf(const ParamStore& store) {
  std::vector<std::vector<float>> out;
  for (const auto& [name, t] : store.params()) out.push_back(t.grad_vector());
  return out;
}

void ExpectGradsBitIdentical(const std::vector<std::vector<float>>& a,
                             const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size()) << "param " << p;
    if (a[p].empty()) continue;
    ASSERT_EQ(std::memcmp(a[p].data(), b[p].data(),
                          a[p].size() * sizeof(float)),
              0)
        << "param " << p << " gradients differ bitwise";
  }
}

/// Builds a model + loss with `builder`, runs backward at the given thread
/// count, returns (loss bits, all param grads).
std::pair<float, std::vector<std::vector<float>>> RunBackward(
    int threads,
    const std::function<Tensor(ParamStore*, Rng*)>& builder) {
  SetTrainThreads(threads);
  ParamStore store;
  Rng rng(1234);
  Tensor loss = builder(&store, &rng);
  store.ZeroGrad();
  loss.Backward();
  SetTrainThreads(1);
  return {loss.item(), GradsOf(store)};
}

void ExpectParallelMatchesSequential(
    const std::function<Tensor(ParamStore*, Rng*)>& builder, int repeats = 5) {
  ThreadGuard guard;
  const auto [seq_loss, seq_grads] = RunBackward(1, builder);
  for (int rep = 0; rep < repeats; ++rep) {
    const auto [par_loss, par_grads] = RunBackward(4, builder);
    ASSERT_EQ(std::memcmp(&seq_loss, &par_loss, sizeof(float)), 0);
    ExpectGradsBitIdentical(seq_grads, par_grads);
  }
}

TEST(BackwardParallelTest, TwoIndependentHeadsMatchSequential) {
  // Shared trunk, then an MLM-style cross-entropy head and a BCE head whose
  // branches are independent — exactly the fan-out the executor overlaps.
  ExpectParallelMatchesSequential([](ParamStore* store, Rng* rng) {
    Embedding emb(store, "emb", /*vocab=*/37, /*dim=*/24, rng);
    Linear trunk(store, "trunk", 24, 24, rng);
    Linear head_a(store, "head_a", 24, 13, rng);
    Linear head_b(store, "head_b", 24, 7, rng);
    Tensor h = Gelu(trunk.Forward(emb.Forward({1, 5, 9, 12, 30})));
    Tensor ce =
        SoftmaxCrossEntropy(head_a.Forward(h), {3, 0, 7, 12, 1});
    std::vector<float> bce_targets(5 * 7, 0.f);
    for (size_t i = 0; i < bce_targets.size(); i += 3) bce_targets[i] = 1.f;
    Tensor bce = BceWithLogits(head_b.Forward(h), bce_targets);
    return Add(ce, bce);
  });
}

TEST(BackwardParallelTest, DiamondSharedSubgraphMatchesSequential) {
  // y feeds two branches that re-join: the classic shared-parent shape where
  // unordered accumulation into y's grad would break bit-identity.
  ExpectParallelMatchesSequential([](ParamStore* store, Rng* rng) {
    Linear lin(store, "lin", 16, 16, rng);
    Tensor x = Tensor::Random({8, 16}, *rng, -1.f, 1.f);
    Tensor y = lin.Forward(x);
    Tensor left = Gelu(y);
    Tensor right = Relu(Scale(y, 1.5f));
    return SumAll(Mul(Add(left, right), Add(left, right)));
  });
}

TEST(BackwardParallelTest, RepeatedParentMatchesSequential) {
  // Mul(a, a): one node appearing twice in a parent list must not generate a
  // self-edge, and both contributions must land in pinned order.
  ExpectParallelMatchesSequential([](ParamStore* store, Rng* rng) {
    Tensor a = store->CreateNormal("a", {32}, 0.5f, rng);
    Tensor b = store->CreateNormal("b", {32}, 0.5f, rng);
    return SumAll(Add(Mul(a, a), Mul(a, b)));
  });
}

TEST(BackwardParallelTest, TransformerEncoderStepMatchesSequential) {
  // A realistic tape: embeddings -> 2-layer encoder (attention + FFN +
  // LayerNorms) -> cross-entropy, thousands of nodes with heavy sharing.
  ExpectParallelMatchesSequential(
      [](ParamStore* store, Rng* rng) {
        Embedding emb(store, "emb", /*vocab=*/50, /*dim=*/32, rng);
        TransformerEncoder enc(store, "enc", /*num_layers=*/2, /*d_model=*/32,
                               /*d_intermediate=*/64, /*num_heads=*/4, rng);
        Linear head(store, "head", 32, 50, rng);
        std::vector<int> ids{4, 9, 17, 23, 31, 42, 2, 11};
        const std::vector<float> mask(ids.size() * ids.size(), 0.f);
        Tensor h = enc.Forward(emb.Forward(ids), mask, /*dropout_p=*/0.f,
                               /*training=*/true, rng);
        return SoftmaxCrossEntropy(head.Forward(h),
                                   {9, 17, 23, 31, 42, 2, 11, 4});
      },
      /*repeats=*/3);
}

TEST(BackwardParallelTest, ParallelPathActuallyRuns) {
  ThreadGuard guard;
  obs::Counter* parallel_calls = obs::MetricsRegistry::Get().GetCounter(
      "autograd.backward_parallel_calls");
  const int64_t before = parallel_calls->Value();
  SetTrainThreads(4);
  Rng rng(7);
  ParamStore store;
  Linear lin(&store, "lin", 8, 8, &rng);
  Tensor loss = SumAll(lin.Forward(Tensor::Random({4, 8}, rng)));
  store.ZeroGrad();
  loss.Backward();
  EXPECT_EQ(parallel_calls->Value(), before + 1)
      << "TURL_TRAIN_THREADS=4 backward did not take the task-graph path";
}

TEST(BackwardParallelTest, SequentialDefaultTakesClassicPath) {
  ThreadGuard guard;
  obs::Counter* parallel_calls = obs::MetricsRegistry::Get().GetCounter(
      "autograd.backward_parallel_calls");
  SetTrainThreads(1);
  const int64_t before = parallel_calls->Value();
  Rng rng(7);
  ParamStore store;
  Linear lin(&store, "lin", 8, 8, &rng);
  Tensor loss = SumAll(lin.Forward(Tensor::Random({4, 8}, rng)));
  store.ZeroGrad();
  loss.Backward();
  EXPECT_EQ(parallel_calls->Value(), before);
}

// ---------------------------------------------------------------------------
// Empty-grad audit: Tensor::Backward skips nodes whose grad never
// materialized. That is only sound if "empty grad at execution time" always
// means "received no upstream contribution" — i.e. no op creates a node whose
// backward runs before its grad is allocated. Every op closure accumulates
// into all of its parents through GradOf (allocate-on-first-touch), so every
// non-root node that receives any gradient has it allocated before its own
// closure runs. These tests pin that invariant on graphs designed to stress
// it, including a head whose loss term is fully masked out.
// ---------------------------------------------------------------------------

void AuditReachableNodes(const Tensor& root) {
  std::unordered_set<const TensorImpl*> visited;
  std::vector<const TensorImpl*> stack{root.impl().get()};
  size_t with_fn = 0;
  while (!stack.empty()) {
    const TensorImpl* node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    if (node->backward_fn) {
      ++with_fn;
      // A node that still owns a backward_fn after Backward(release=false)
      // and received any gradient must have a full-size grad buffer; a node
      // with an EMPTY grad is legitimate only when no consumer contributed
      // (masked-out head). Either way, a *partially* sized buffer is a bug.
      if (!node->grad.empty()) {
        EXPECT_EQ(node->grad.size(), node->data.size());
      }
    }
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  EXPECT_GT(with_fn, 0u);
}

TEST(BackwardParallelTest, EveryContributingNodeHasGradAfterBackward) {
  Rng rng(11);
  ParamStore store;
  Linear trunk(&store, "trunk", 12, 12, &rng);
  Linear head(&store, "head", 12, 5, &rng);
  Tensor h = Gelu(trunk.Forward(Tensor::Random({6, 12}, rng)));
  Tensor loss = SoftmaxCrossEntropy(head.Forward(h), {0, 1, 2, 3, 4, 0});
  store.ZeroGrad();
  loss.Backward(/*release_graph=*/false);
  // Walk the retained graph: every node on a contributing path has a grad.
  std::unordered_set<const TensorImpl*> visited;
  std::vector<const TensorImpl*> stack{loss.impl().get()};
  while (!stack.empty()) {
    const TensorImpl* node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    if (node->backward_fn) {
      EXPECT_FALSE(node->grad.empty())
          << "interior node skipped despite contributing to the loss";
      EXPECT_EQ(node->grad.size(), node->data.size());
    }
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  AuditReachableNodes(loss);
}

TEST(BackwardParallelTest, FullyMaskedHeadSkipsCleanlyBothModes) {
  // SoftmaxCrossEntropy with every target ignored produces a constant-zero
  // loss term: its branch receives gradient, but contributes zeros. The
  // point: Backward must complete, parameters of the dead head must get a
  // well-formed (possibly zero) gradient or none, and thread counts agree.
  ThreadGuard guard;
  auto builder = [](ParamStore* store, Rng* rng) {
    Linear live(store, "live", 10, 4, rng);
    Linear dead(store, "dead", 10, 4, rng);
    Tensor x = Tensor::Random({3, 10}, *rng, -1.f, 1.f);
    Tensor live_loss = SoftmaxCrossEntropy(live.Forward(x), {0, 1, 2});
    Tensor dead_loss = SoftmaxCrossEntropy(dead.Forward(x), {-1, -1, -1});
    return Add(live_loss, dead_loss);
  };
  const auto [seq_loss, seq_grads] = RunBackward(1, builder);
  const auto [par_loss, par_grads] = RunBackward(4, builder);
  ASSERT_EQ(std::memcmp(&seq_loss, &par_loss, sizeof(float)), 0);
  ExpectGradsBitIdentical(seq_grads, par_grads);
}

// ---------------------------------------------------------------------------
// GradShard: redirect + fixed-order reduction (inside Adam::Step).
// ---------------------------------------------------------------------------

TEST(GradShardTest, RedirectCapturesLeafGradsAndReduceRestoresThem) {
  Rng rng(21);
  ParamStore store;
  Linear lin(&store, "lin", 6, 3, &rng);

  auto loss_of = [&](uint64_t seed) {
    Rng r(seed);
    return SumAll(Gelu(lin.Forward(Tensor::Random({4, 6}, r))));
  };

  // Reference: plain sequential accumulation of two backward passes.
  store.ZeroGrad();
  loss_of(1).Backward();
  loss_of(2).Backward();
  const auto reference = GradsOf(store);

  // Sharded: each pass lands in its own shard; params stay untouched until
  // the fixed-order reduce.
  GradShard shard_a({&store});
  GradShard shard_b({&store});
  store.ZeroGrad();
  {
    ScopedGradShard guard(&shard_a);
    loss_of(1).Backward();
  }
  {
    ScopedGradShard guard(&shard_b);
    loss_of(2).Backward();
  }
  for (const auto& [name, t] : store.params()) {
    for (float g : t.grad_vector()) {
      ASSERT_EQ(g, 0.f) << "shard leaked into the real grad of " << name;
    }
  }
  // lr_scale 0 reduces the shards into the gradients and leaves the weights.
  Adam(&store, {}).Step(0.f, std::numeric_limits<float>::infinity(),
                        {&shard_a, &shard_b});
  ExpectGradsBitIdentical(reference, GradsOf(store));
}

TEST(GradShardTest, ResetClearsOnlyDirtyBuffers) {
  Rng rng(33);
  ParamStore store;
  Linear lin(&store, "lin", 5, 2, &rng);
  GradShard shard({&store});
  {
    ScopedGradShard guard(&shard);
    SumAll(lin.Forward(Tensor::Random({2, 5}, rng))).Backward();
  }
  shard.Reset();
  store.ZeroGrad();
  Adam(&store, {}).Step(0.f, std::numeric_limits<float>::infinity(), {&shard});
  for (const auto& [name, t] : store.params()) {
    for (float g : t.grad_vector()) ASSERT_EQ(g, 0.f);
  }
}

TEST(GradShardTest, ShardStreamSeedIndependentPositions) {
  // Distinct (seed, step, shard) triples map to distinct streams, and the
  // mapping is pure — the foundation of thread-count-independent shard RNG.
  EXPECT_EQ(ShardStreamSeed(7, 3, 1), ShardStreamSeed(7, 3, 1));
  std::unordered_set<uint64_t> seen;
  for (int64_t step = 0; step < 50; ++step) {
    for (int64_t shard = 0; shard < 8; ++shard) {
      seen.insert(ShardStreamSeed(42, step, shard));
    }
  }
  EXPECT_EQ(seen.size(), 50u * 8u);
}

}  // namespace
}  // namespace nn
}  // namespace turl
