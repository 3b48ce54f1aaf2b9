// Equivalence and determinism tests for the turl::nn::kernels compute layer
// (`ctest -L kernels`): the blocked GEMM family against the preserved naive
// loops over a sweep of edge shapes, at one thread and several, plus the
// fused row kernels (their accuracy contract against the libm oracles and
// a finite-difference check of every forward/backward pair) and the
// bitwise thread-count-independence contract of a whole autograd step.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "test_util.h"
#include "util/rng.h"

namespace turl {
namespace nn {
namespace kernels {
namespace {

struct GemmShape {
  int64_t m, k, n;
};

// Edge shapes: singletons, k=1 / n=1 degenerate reductions, sizes off every
// block multiple (tile 4x16, panels 64x256), and one shape above the
// parallel threshold.
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 8, 2},    {4, 1, 16},     {16, 5, 1},
    {17, 33, 5}, {64, 64, 64}, {65, 257, 31},  {3, 7, 300},
    {1, 768, 512}, {160, 160, 160},
};

std::vector<float> RandomVec(size_t n, Rng* rng, float lo = -1.f,
                             float hi = 1.f) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(lo, hi);
  return v;
}

void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 const char* what, const GemmShape& s) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-5f * (1.f + std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol)
        << what << " " << s.m << "x" << s.k << "x" << s.n << " at " << i;
  }
}

class KernelThreadSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    SetKernelThreads(GetParam());
    // Force the parallel gate open so multi-thread runs actually fan out.
    if (GetParam() > 1) SetParallelMinFlopsForTest(1);
  }
  void TearDown() override {
    SetParallelMinFlopsForTest(0);
    SetKernelThreads(0);
  }
};

TEST_P(KernelThreadSweep, GemmNNMatchesNaive) {
  for (const GemmShape& s : kShapes) {
    Rng rng(uint64_t(s.m * 1000 + s.k * 10 + s.n));
    const auto a = RandomVec(size_t(s.m * s.k), &rng);
    const auto b = RandomVec(size_t(s.k * s.n), &rng);
    std::vector<float> got(size_t(s.m * s.n)), want(size_t(s.m * s.n));
    GemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, got.data(), s.n,
           false);
    naive::GemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, want.data(),
                  s.n, false);
    ExpectClose(got, want, "GemmNN", s);
  }
}

TEST_P(KernelThreadSweep, GemmNTMatchesNaive) {
  for (const GemmShape& s : kShapes) {
    Rng rng(uint64_t(s.m * 999 + s.k * 7 + s.n));
    const auto a = RandomVec(size_t(s.m * s.k), &rng);
    const auto b = RandomVec(size_t(s.n * s.k), &rng);  // B is [n, k].
    std::vector<float> got(size_t(s.m * s.n)), want(size_t(s.m * s.n));
    GemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, got.data(), s.n,
           false);
    naive::GemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, want.data(),
                  s.n, false);
    ExpectClose(got, want, "GemmNT", s);
  }
}

TEST_P(KernelThreadSweep, GemmTNMatchesNaive) {
  for (const GemmShape& s : kShapes) {
    Rng rng(uint64_t(s.m * 77 + s.k * 13 + s.n));
    // A' is [k, m] (C = A'^T B), B is [k, n].
    const auto a = RandomVec(size_t(s.k * s.m), &rng);
    const auto b = RandomVec(size_t(s.k * s.n), &rng);
    std::vector<float> got(size_t(s.m * s.n)), want(size_t(s.m * s.n));
    GemmTN(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n, got.data(), s.n,
           false);
    naive::GemmTN(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n, want.data(),
                  s.n, false);
    ExpectClose(got, want, "GemmTN", s);
  }
}

TEST_P(KernelThreadSweep, AccumulateAddsIntoC) {
  const GemmShape s{17, 33, 29};
  Rng rng(3);
  const auto a = RandomVec(size_t(s.m * s.k), &rng);
  const auto b = RandomVec(size_t(s.k * s.n), &rng);
  auto got = RandomVec(size_t(s.m * s.n), &rng);
  auto want = got;
  GemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, got.data(), s.n, true);
  naive::GemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, want.data(), s.n,
                true);
  ExpectClose(got, want, "GemmNN+=", s);
}

TEST_P(KernelThreadSweep, StridedSubPanels) {
  // Multiply inside a larger buffer: the head-slice addressing pattern of
  // attention (lda/ldb/ldc bigger than the logical panel width).
  const int64_t m = 9, k = 6, n = 11;
  const int64_t lda = 20, ldb = 23, ldc = 31;
  Rng rng(5);
  const auto a = RandomVec(size_t(m * lda), &rng);
  const auto b = RandomVec(size_t(k * ldb), &rng);
  auto got = RandomVec(size_t(m * ldc), &rng);
  auto want = got;
  GemmNN(m, n, k, a.data() + 2, lda, b.data() + 3, ldb, got.data() + 4, ldc,
         false);
  naive::GemmNN(m, n, k, a.data() + 2, lda, b.data() + 3, ldb, want.data() + 4,
                ldc, false);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-5f * (1.f + std::abs(want[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelThreadSweep, ::testing::Values(1, 4));

TEST(KernelDeterminismTest, GemmBitwiseIdenticalAcrossThreadCounts) {
  const GemmShape s{160, 160, 160};
  Rng rng(11);
  const auto a = RandomVec(size_t(s.m * s.k), &rng);
  const auto b = RandomVec(size_t(s.k * s.n), &rng);
  std::vector<float> one(size_t(s.m * s.n)), many(size_t(s.m * s.n));
  SetKernelThreads(1);
  GemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, one.data(), s.n, false);
  SetKernelThreads(4);
  SetParallelMinFlopsForTest(1);
  GemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, many.data(), s.n,
         false);
  SetParallelMinFlopsForTest(0);
  SetKernelThreads(0);
  EXPECT_EQ(0, std::memcmp(one.data(), many.data(),
                           one.size() * sizeof(float)));
}

TEST(KernelDeterminismTest, AutogradStepBitwiseIdenticalAcrossThreadCounts) {
  // A small MLP forward+backward, once inline and once with the pool forced
  // on: outputs and every gradient must be bitwise identical.
  auto run = [](std::vector<float>* out, std::vector<float>* gw1,
                std::vector<float>* gw2) {
    Rng rng(21);
    Tensor x = Tensor::Random({96, 64}, rng);
    Tensor w1 = Tensor::Random({64, 128}, rng);
    Tensor w2 = Tensor::Random({128, 32}, rng);
    w1.set_requires_grad(true);
    w2.set_requires_grad(true);
    Tensor h = Gelu(MatMul(x, w1));
    Tensor y = SoftmaxRows(MatMul(h, w2));
    *out = y.ToVector();
    SumAll(y).Backward();
    *gw1 = w1.grad_vector();
    *gw2 = w2.grad_vector();
  };
  std::vector<float> out1, gw1a, gw2a;
  SetKernelThreads(1);
  run(&out1, &gw1a, &gw2a);
  std::vector<float> outN, gw1b, gw2b;
  SetKernelThreads(4);
  SetParallelMinFlopsForTest(1);
  run(&outN, &gw1b, &gw2b);
  SetParallelMinFlopsForTest(0);
  SetKernelThreads(0);
  EXPECT_EQ(0,
            std::memcmp(out1.data(), outN.data(), out1.size() * sizeof(float)));
  EXPECT_EQ(0,
            std::memcmp(gw1a.data(), gw1b.data(), gw1a.size() * sizeof(float)));
  EXPECT_EQ(0,
            std::memcmp(gw2a.data(), gw2b.data(), gw2a.size() * sizeof(float)));
}

TEST(RowwiseKernelTest, SoftmaxHandlesExtremeLogits) {
  // Regression guard for the max-subtraction: logits spanning [-1e4, 1e4]
  // must produce finite probabilities that sum to one.
  Rng rng(31);
  Tensor x = Tensor::Random({8, 16}, rng, -1e4f, 1e4f);
  x.data()[3] = 1e4f;    // Exact extremes, too.
  x.data()[17] = -1e4f;
  Tensor y = SoftmaxRows(x);
  for (int64_t i = 0; i < 8; ++i) {
    float sum = 0.f;
    for (int64_t j = 0; j < 16; ++j) {
      const float p = y.at2(i, j);
      ASSERT_TRUE(std::isfinite(p)) << i << "," << j;
      ASSERT_GE(p, 0.f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.f, 1e-5f);
  }
}

TEST(RowwiseKernelTest, MaskedScaledSoftmaxMatchesUnfusedPipeline) {
  const int64_t m = 7, n = 13;
  Rng rng(41);
  auto scores = RandomVec(size_t(m * n), &rng);
  auto mask = RandomVec(size_t(m * n), &rng);
  for (float& v : mask) v = v > 0.5f ? -1e9f : 0.f;
  const float scale = 0.25f;
  // Reference: scale + mask, then the plain softmax kernel.
  std::vector<float> want(size_t(m * n));
  for (size_t i = 0; i < want.size(); ++i)
    want[i] = scores[i] * scale + mask[i];
  SoftmaxRowsForward(want.data(), want.data(), m, n);
  MaskedScaledSoftmaxRows(scores.data(), mask.data(), scale, m, n);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(scores[i], want[i], 1e-6f) << i;
  }
}

TEST(RowwiseKernelTest, LayerNormForwardRowStats) {
  const int64_t m = 5, n = 32;
  Rng rng(51);
  auto x = RandomVec(size_t(m * n), &rng);
  std::vector<float> gamma(size_t(n), 1.f), beta(size_t(n), 0.f);
  std::vector<float> y(size_t(m * n)), xhat(size_t(m * n));
  std::vector<float> inv_std(static_cast<size_t>(m));
  LayerNormForward(x.data(), gamma.data(), beta.data(), 1e-5f, y.data(),
                   xhat.data(), inv_std.data(), m, n);
  for (int64_t i = 0; i < m; ++i) {
    float mean = 0.f, var = 0.f;
    for (int64_t j = 0; j < n; ++j) mean += y[size_t(i * n + j)];
    mean /= float(n);
    for (int64_t j = 0; j < n; ++j) {
      const float d = y[size_t(i * n + j)] - mean;
      var += d * d;
    }
    var /= float(n);
    EXPECT_NEAR(mean, 0.f, 1e-5f) << "row " << i;
    EXPECT_NEAR(var, 1.f, 1e-3f) << "row " << i;
  }
}

// Accuracy contract of the vector-exp kernels: each stays within a pinned
// bound of its naive:: libm oracle. GeLU's bound is the measured 6e-7
// (forward 4.8e-7, backward 6.0e-7, both on N(0, 2)) with margin.
constexpr float kGeluBound = 2e-6f;
// Softmax probabilities: measured 2.4e-7 on the rows below, but the
// oracle's own serial sum is off by up to 1e-6 on 225-wide N(0, 4) rows
// (the kernel's 8-lane sum by 3e-7, both against a double reference).
constexpr float kSoftmaxBound = 4e-6f;

/// |got - want| <= bound * max(1, |want|) for a finite input x. Where the
/// oracle is not finite there (GeLU backward's 0 * inf once x^2
/// overflows, |x| > 1.8e19) it gives no value to compare against.
void ExpectWithinBound(float got, float want, float bound, const char* what,
                       float x) {
  if (!std::isfinite(want)) return;
  EXPECT_NEAR(got, want, bound * std::max(1.f, std::abs(want)))
      << what << " at x = " << x;
}

/// N(0, 2) samples, a 1e-4 grid over [-12, 12] and the extremes.
std::vector<float> GeluInputs() {
  std::vector<float> x = {1e30f, -1e30f, 100.f, -100.f, 30.f, -30.f, 9.f,
                          -9.f,  1e-30f, -1e-30f, 0.f};
  Rng rng(61);
  for (int i = 0; i < 100000; ++i) {
    x.push_back(float(rng.Normal(0.0, std::sqrt(2.0))));
  }
  for (int i = -120000; i <= 120000; ++i) x.push_back(float(i) * 1e-4f);
  return x;
}

TEST(RowwiseAccuracyTest, GeluWithinBoundOfOracle) {
  const std::vector<float> x = GeluInputs();
  const int64_t n = int64_t(x.size());
  std::vector<float> y(x.size()), want_y(x.size());
  ActivationForward(Act::kGelu, x.data(), y.data(), n);
  naive::ActivationForward(Act::kGelu, x.data(), want_y.data(), n);
  // dy = 1 into dx = 0 makes dx the derivative itself.
  const std::vector<float> ones(x.size(), 1.f);
  std::vector<float> dx(x.size(), 0.f), want_dx(x.size(), 0.f);
  ActivationBackward(Act::kGelu, x.data(), y.data(), ones.data(), dx.data(),
                     n);
  naive::ActivationBackward(Act::kGelu, x.data(), want_y.data(), ones.data(),
                            want_dx.data(), n);
  for (size_t i = 0; i < x.size(); ++i) {
    ExpectWithinBound(y[i], want_y[i], kGeluBound, "forward", x[i]);
    ExpectWithinBound(dx[i], want_dx[i], kGeluBound, "backward", x[i]);
  }
}

TEST(RowwiseAccuracyTest, GeluIsIndependentOfOffsetAndLength) {
  // Every call length from 1 to 40 covers every tail width; each element
  // must come out bit for bit as in one long call, and within the bound.
  Rng rng(62);
  std::vector<float> x(64), dy(64);
  for (float& v : x) v = float(rng.Normal(0.0, std::sqrt(2.0)));
  for (float& v : dy) v = rng.UniformFloat(-1.f, 1.f);
  std::vector<float> y_all(x.size()), dx_all(x.size(), 0.5f);
  ActivationForward(Act::kGelu, x.data(), y_all.data(), 64);
  ActivationBackward(Act::kGelu, x.data(), y_all.data(), dy.data(),
                     dx_all.data(), 64);
  for (int64_t n = 1; n <= 40; ++n) {
    for (int64_t off : {int64_t(0), n % 7 + 1, 64 - n}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " offset " << off);
      std::vector<float> y(static_cast<size_t>(n));
      std::vector<float> want(static_cast<size_t>(n));
      std::vector<float> dx(static_cast<size_t>(n), 0.5f);
      ActivationForward(Act::kGelu, x.data() + off, y.data(), n);
      ActivationBackward(Act::kGelu, x.data() + off, y.data(),
                         dy.data() + off, dx.data(), n);
      naive::ActivationForward(Act::kGelu, x.data() + off, want.data(), n);
      EXPECT_EQ(0, std::memcmp(y.data(), y_all.data() + off,
                               size_t(n) * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(dx.data(), dx_all.data() + off,
                               size_t(n) * sizeof(float)));
      for (int64_t i = 0; i < n; ++i) {
        ExpectWithinBound(y[size_t(i)], want[size_t(i)], kGeluBound,
                          "forward", x[size_t(off + i)]);
      }
    }
  }
}

TEST(RowwiseAccuracyTest, SoftmaxWithinBoundOfOracleAtEveryLength) {
  // Lengths 1..40 cover every tail width; 225 is a bulk_wide attention
  // row, masked at its 43% visible density.
  std::vector<int64_t> lengths;
  for (int64_t n = 1; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(225);
  const int64_t m = 5;
  for (int64_t n : lengths) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    Rng rng(uint64_t(70 + n));
    std::vector<float> x(size_t(m * n)), mask(size_t(m * n));
    for (float& v : x) v = float(rng.Normal(0.0, 3.0));
    for (float& v : mask) v = rng.UniformFloat(0.f, 1.f) < 0.43f ? 0.f : -1e9f;
    for (int64_t i = 0; i < m; ++i) mask[size_t(i * n + i % n)] = 0.f;

    std::vector<float> got(x.size()), want(x.size());
    SoftmaxRowsForward(x.data(), got.data(), m, n);
    naive::SoftmaxRowsForward(x.data(), want.data(), m, n);
    for (size_t i = 0; i < x.size(); ++i) {
      ExpectWithinBound(got[i], want[i], kSoftmaxBound, "softmax", x[i]);
    }

    got = x;
    want = x;
    MaskedScaledSoftmaxRows(got.data(), mask.data(), 0.25f, m, n);
    naive::MaskedScaledSoftmaxRows(want.data(), mask.data(), 0.25f, m, n);
    for (size_t i = 0; i < x.size(); ++i) {
      ExpectWithinBound(got[i], want[i], kSoftmaxBound, "masked", x[i]);
    }
  }
}

TEST(RowwiseAccuracyTest, MaskedAndNegativeInfiniteLogitsGiveExactZeros) {
  const int64_t m = 3, n = 27;
  Rng rng(81);
  std::vector<float> scores(size_t(m * n)), mask(size_t(m * n), 0.f);
  for (float& v : scores) v = rng.UniformFloat(-4.f, 4.f);
  for (size_t i = 0; i < mask.size(); i += 3) mask[i] = -1e9f;
  std::vector<float> logits = scores;
  for (size_t i = 1; i < logits.size(); i += 4) {
    logits[i] = -std::numeric_limits<float>::infinity();
  }
  MaskedScaledSoftmaxRows(scores.data(), mask.data(), 0.5f, m, n);
  std::vector<float> probs(logits.size());
  SoftmaxRowsForward(logits.data(), probs.data(), m, n);
  const float zero = 0.f;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] < 0.f) {
      EXPECT_EQ(0, std::memcmp(&scores[i], &zero, sizeof(float))) << i;
    } else {
      EXPECT_GT(scores[i], 0.f) << i;
    }
    if (std::isinf(logits[i])) {
      EXPECT_EQ(0, std::memcmp(&probs[i], &zero, sizeof(float))) << i;
    }
  }
}

TEST(RowwiseAccuracyTest, NaNInputGivesNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // GeLU: the NaN lane stays NaN, its neighbours stay finite.
  std::vector<float> x = {0.5f, nan, -1.f, 2.f, nan, 3.f, -2.f, 1.f, nan};
  std::vector<float> y(x.size()), dx(x.size(), 0.f);
  const std::vector<float> dy(x.size(), 1.f);
  ActivationForward(Act::kGelu, x.data(), y.data(), int64_t(x.size()));
  ActivationBackward(Act::kGelu, x.data(), y.data(), dy.data(), dx.data(),
                     int64_t(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::isnan(x[i]), std::isnan(y[i])) << i;
    EXPECT_EQ(std::isnan(x[i]), std::isnan(dx[i])) << i;
  }
  // Softmax: a NaN logit makes its whole row NaN and leaves the others.
  for (int64_t n : {int64_t(5), int64_t(8), int64_t(19)}) {
    std::vector<float> rows(size_t(2 * n), 0.25f), out(rows.size());
    rows[size_t(n / 2)] = nan;
    SoftmaxRowsForward(rows.data(), out.data(), 2, n);
    std::vector<float> masked = rows;
    MaskedScaledSoftmaxRows(masked.data(), nullptr, 0.5f, 2, n);
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(out[size_t(j)])) << n << " " << j;
      EXPECT_TRUE(std::isnan(masked[size_t(j)])) << n << " " << j;
      EXPECT_FLOAT_EQ(out[size_t(n + j)], 1.f / float(n));
      EXPECT_FLOAT_EQ(masked[size_t(n + j)], 1.f / float(n));
    }
  }
}

// Finite-difference checks of the raw kernel pairs, loss 1/2 sum of squares
// of the forward output. The step leaves float rounding of the loss far
// below the threshold.
using testing::GradientChecker;
using Buffers = GradientChecker::Buffers;

TEST(RowwiseGradientTest, GeluForwardBackward) {
  const int64_t n = 37;  // Four full lane blocks and a tail of five.
  Rng rng(91);
  const auto op = [n](const Buffers& in) {
    Buffers out{std::vector<float>(size_t(n))};
    ActivationForward(Act::kGelu, in[0].data(), out[0].data(), n);
    return out;
  };
  const auto grad = [n](const Buffers& in, const Buffers& out,
                        const Buffers& dout) {
    Buffers din{std::vector<float>(size_t(n), 0.f)};
    ActivationBackward(Act::kGelu, in[0].data(), out[0].data(),
                       dout[0].data(), din[0].data(), n);
    return din;
  };
  GradientChecker(1e-2f, 1e-3f).CheckSimple(
      op, grad, {RandomVec(size_t(n), &rng, -4.f, 4.f)}, 0, {0});
}

TEST(RowwiseGradientTest, SoftmaxRowsForwardBackward) {
  const int64_t m = 3, n = 13;
  Rng rng(92);
  const auto op = [m, n](const Buffers& in) {
    Buffers out{std::vector<float>(size_t(m * n))};
    SoftmaxRowsForward(in[0].data(), out[0].data(), m, n);
    return out;
  };
  const auto grad = [m, n](const Buffers&, const Buffers& out,
                           const Buffers& dout) {
    Buffers din{std::vector<float>(size_t(m * n), 0.f)};
    SoftmaxRowsBackward(out[0].data(), dout[0].data(), din[0].data(), m, n);
    return din;
  };
  GradientChecker(1e-2f, 1e-3f).CheckSimple(
      op, grad, {RandomVec(size_t(m * n), &rng, -2.f, 2.f)}, 0, {0});
}

TEST(RowwiseGradientTest, MaskedScaledSoftmaxWithSoftmaxGradInPlace) {
  const int64_t n = 11;
  const float scale = 0.5f;
  Rng rng(93);
  std::vector<float> mask(size_t(n * n), 0.f);
  for (size_t i = 0; i < mask.size(); i += 3) mask[i] = -1e9f;
  for (int64_t i = 0; i < n; ++i) mask[size_t(i * n + i)] = 0.f;
  const auto op = [&](const Buffers& in) {
    Buffers out{in[0]};
    MaskedScaledSoftmaxRows(out[0].data(), mask.data(), scale, n, n);
    return out;
  };
  const auto grad = [&](const Buffers&, const Buffers& out,
                        const Buffers& dout) {
    Buffers din{dout[0]};
    SoftmaxGradInPlace(out[0].data(), din[0].data(), scale, n, n);
    return din;
  };
  GradientChecker(1e-2f, 1e-3f).CheckSimple(
      op, grad, {RandomVec(size_t(n * n), &rng, -3.f, 3.f)}, 0, {0});
}

TEST(RowwiseGradientTest, LayerNormForwardBackward) {
  const int64_t m = 4, n = 12;
  const float eps = 1e-5f;
  Rng rng(94);
  // Inputs x, gamma, beta; outputs y, xhat, inv_std, of which only y
  // carries a gradient (the other two are the saved statistics).
  const auto op = [&](const Buffers& in) {
    Buffers out{std::vector<float>(size_t(m * n)),
                std::vector<float>(size_t(m * n)),
                std::vector<float>(size_t(m))};
    LayerNormForward(in[0].data(), in[1].data(), in[2].data(), eps,
                     out[0].data(), out[1].data(), out[2].data(), m, n);
    return out;
  };
  const auto grad = [&](const Buffers& in, const Buffers& out,
                        const Buffers& dout) {
    Buffers din{std::vector<float>(size_t(m * n), 0.f),
                std::vector<float>(size_t(n), 0.f),
                std::vector<float>(size_t(n), 0.f)};
    LayerNormBackward(dout[0].data(), in[1].data(), out[1].data(),
                      out[2].data(), din[0].data(), din[1].data(),
                      din[2].data(), m, n);
    return din;
  };
  const Buffers inputs = {RandomVec(size_t(m * n), &rng, -2.f, 2.f),
                          RandomVec(size_t(n), &rng, 0.5f, 1.5f),
                          RandomVec(size_t(n), &rng, -0.5f, 0.5f)};
  for (size_t input = 0; input < inputs.size(); ++input) {
    SCOPED_TRACE(::testing::Message() << "input " << input);
    GradientChecker(1e-2f, 2e-3f).CheckSimple(op, grad, inputs, input, {0});
  }
}

}  // namespace
}  // namespace kernels
}  // namespace nn
}  // namespace turl
