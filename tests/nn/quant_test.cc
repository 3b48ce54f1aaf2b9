// Int8 quantized-scoring tests (`ctest -L kernels`): per-row scale
// correctness, round-trip error bounds, adversarial rows (all-zero, single
// outlier, +-max), bitwise SIMD-vs-scalar-mirror equality (integer
// accumulation is exact), the row-subset form, thread-count determinism,
// and the end-to-end int8-vs-fp32 score error on a logits-shaped problem.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "nn/kernels/kernels.h"
#include "util/rng.h"

namespace turl {
namespace nn {
namespace kernels {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng, float lo = -1.f,
                             float hi = 1.f) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(lo, hi);
  return v;
}

TEST(QuantizeRows, PerRowScaleIsMaxAbsOver127) {
  Rng rng(11);
  const int64_t rows = 7, cols = 50;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng, -3.f, 3.f);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  EXPECT_EQ(q.stride % 32, 0);
  ASSERT_GE(q.stride, cols);
  for (int64_t i = 0; i < rows; ++i) {
    float max_abs = 0.f;
    for (int64_t j = 0; j < cols; ++j) {
      max_abs = std::max(max_abs, std::fabs(w[static_cast<size_t>(i * cols + j)]));
    }
    EXPECT_FLOAT_EQ(q.scales[static_cast<size_t>(i)], max_abs / 127.f) << "row " << i;
  }
}

TEST(QuantizeRows, RoundTripErrorWithinHalfStep) {
  Rng rng(13);
  const int64_t rows = 5, cols = 64;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng, -2.f, 2.f);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);
  for (int64_t i = 0; i < rows; ++i) {
    const float scale = q.scales[static_cast<size_t>(i)];
    for (int64_t j = 0; j < cols; ++j) {
      const float dq = scale * q.data[static_cast<size_t>(i * q.stride + j)];
      // Round-to-nearest leaves at most half a quantization step.
      EXPECT_NEAR(dq, w[static_cast<size_t>(i * cols + j)], scale * 0.5f + 1e-7f)
          << i << "," << j;
    }
  }
  // Padding bytes beyond cols stay zero (they enter the integer dot).
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = cols; j < q.stride; ++j) {
      EXPECT_EQ(q.data[static_cast<size_t>(i * q.stride + j)], 0);
    }
  }
}

TEST(QuantizeRows, ColumnStrideAddressesTransposedWeights) {
  // A Linear weight [in, out] scored per output unit: row i of the pack is
  // W[:, i], read with row_stride=1, col_stride=out.
  const int64_t in = 3, out = 2;
  const std::vector<float> w = {1.f, -2.f, 0.5f, 4.f, -0.25f, 1.f};  // [3,2]
  QuantizedMatrix q = QuantizeRows(w.data(), out, in, 1, out);
  EXPECT_FLOAT_EQ(q.scales[0], 1.f / 127.f);   // col 0: 1, .5, -.25
  EXPECT_FLOAT_EQ(q.scales[1], 4.f / 127.f);   // col 1: -2, 4, 1
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[static_cast<size_t>(q.stride)], -64);    // -2 / (4/127) = -63.5 -> -64
}

TEST(QuantizeRows, AdversarialRows) {
  const int64_t cols = 40;
  std::vector<float> w(static_cast<size_t>(3 * cols), 0.f);
  // Row 0: all zero. Row 1: single outlier. Row 2: alternating +-max.
  w[static_cast<size_t>(cols + 17)] = 10.f;
  for (int64_t j = 0; j < cols; ++j) {
    w[static_cast<size_t>(2 * cols + j)] = (j % 2 == 0) ? 2.5f : -2.5f;
  }
  QuantizedMatrix q = QuantizeRows(w.data(), 3, cols, cols, 1);

  EXPECT_FLOAT_EQ(q.scales[0], 0.f);
  for (int64_t j = 0; j < q.stride; ++j) EXPECT_EQ(q.data[static_cast<size_t>(j)], 0);

  EXPECT_FLOAT_EQ(q.scales[1], 10.f / 127.f);
  for (int64_t j = 0; j < cols; ++j) {
    EXPECT_EQ(q.data[static_cast<size_t>(q.stride + j)], j == 17 ? 127 : 0);
  }

  EXPECT_FLOAT_EQ(q.scales[2], 2.5f / 127.f);
  for (int64_t j = 0; j < cols; ++j) {
    EXPECT_EQ(q.data[static_cast<size_t>(2 * q.stride + j)], j % 2 == 0 ? 127 : -127);
  }

  // Scoring the adversarial pack: the all-zero row must score exactly 0,
  // the outlier row exactly x[17] (quantization of a 1-hot row is lossless
  // up to the activation's own rounding).
  Rng rng(17);
  const auto x = RandomVec(static_cast<size_t>(cols), &rng);
  std::vector<float> y(3);
  QuantizedScore(q, x.data(), y.data());
  EXPECT_EQ(y[0], 0.f);
  EXPECT_NEAR(y[1], 10.f * x[17], 0.05f);
}

TEST(QuantizedGemvTest, SimdMatchesScalarMirrorBitwise) {
  Rng rng(19);
  const int64_t rows = 517, cols = 111;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng, -2.f, 2.f);
  const auto x = RandomVec(static_cast<size_t>(cols), &rng);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);
  std::vector<int8_t> xq(static_cast<size_t>(q.stride));
  const float xs = QuantizeActivation(x.data(), cols, q.stride, xq.data());

  std::vector<float> simd(static_cast<size_t>(rows)), scalar(static_cast<size_t>(rows));
  QuantizedGemv(q, xq.data(), xs, simd.data(), false);
  naive::QuantizedGemv(q, xq.data(), xs, scalar.data(), false);
  EXPECT_EQ(0,
            std::memcmp(simd.data(), scalar.data(), simd.size() * sizeof(float)));
}

TEST(QuantizedGemvTest, RowSubsetMatchesFullRows) {
  Rng rng(23);
  const int64_t rows = 300, cols = 64;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng);
  const auto x = RandomVec(static_cast<size_t>(cols), &rng);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);

  std::vector<float> full(static_cast<size_t>(rows));
  QuantizedScore(q, x.data(), full.data());

  const std::vector<int> subset = {7, 299, 0, 7, 123};  // Repeats allowed.
  std::vector<float> sub(subset.size());
  QuantizedScoreRows(q, subset.data(), int64_t(subset.size()), x.data(),
                     sub.data());
  for (size_t r = 0; r < subset.size(); ++r) {
    EXPECT_EQ(sub[r], full[static_cast<size_t>(subset[r])]) << "subset pos " << r;
  }

  // Scalar mirror of the subset form agrees bitwise too.
  std::vector<int8_t> xq(static_cast<size_t>(q.stride));
  const float xs = QuantizeActivation(x.data(), cols, q.stride, xq.data());
  std::vector<float> sub_naive(subset.size());
  naive::QuantizedGemvRows(q, subset.data(), int64_t(subset.size()),
                           xq.data(), xs, sub_naive.data(), false);
  EXPECT_EQ(0, std::memcmp(sub.data(), sub_naive.data(),
                           sub.size() * sizeof(float)));
}

TEST(QuantizedGemvTest, AccumulateAddsOntoExistingOutput) {
  Rng rng(29);
  const int64_t rows = 12, cols = 33;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng);
  const auto x = RandomVec(static_cast<size_t>(cols), &rng);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);
  std::vector<int8_t> xq(static_cast<size_t>(q.stride));
  const float xs = QuantizeActivation(x.data(), cols, q.stride, xq.data());

  std::vector<float> fresh(static_cast<size_t>(rows));
  QuantizedGemv(q, xq.data(), xs, fresh.data(), false);
  const auto seed = RandomVec(static_cast<size_t>(rows), &rng);
  std::vector<float> acc = seed;
  QuantizedGemv(q, xq.data(), xs, acc.data(), true);
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_FLOAT_EQ(acc[static_cast<size_t>(i)], seed[static_cast<size_t>(i)] + fresh[static_cast<size_t>(i)]);
  }
}

TEST(QuantizedGemvTest, ThreadCountDoesNotChangeBits) {
  Rng rng(31);
  const int64_t rows = 2000, cols = 768;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng);
  const auto x = RandomVec(static_cast<size_t>(cols), &rng);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);
  std::vector<int8_t> xq(static_cast<size_t>(q.stride));
  const float xs = QuantizeActivation(x.data(), cols, q.stride, xq.data());

  SetParallelMinFlopsForTest(1);
  std::vector<float> y1(static_cast<size_t>(rows)), y4(static_cast<size_t>(rows));
  SetKernelThreads(1);
  QuantizedGemv(q, xq.data(), xs, y1.data(), false);
  SetKernelThreads(4);
  QuantizedGemv(q, xq.data(), xs, y4.data(), false);
  SetKernelThreads(0);
  SetParallelMinFlopsForTest(0);
  EXPECT_EQ(0, std::memcmp(y1.data(), y4.data(), y1.size() * sizeof(float)));
}

// End-to-end accuracy on the logits shape: int8 scores of a random
// d_model=768 projection against a random vocab-row matrix stay close to
// the fp32 dots. The inputs are fixed-seed, so the empirical threshold is
// deterministic, and it is ~5x the observed error to absorb platform
// lrintf differences.
TEST(QuantizedGemvTest, ScoresTrackFp32WithinEpsilon) {
  Rng rng(37);
  const int64_t rows = 1000, cols = 768;
  const auto w = RandomVec(static_cast<size_t>(rows * cols), &rng);
  const auto x = RandomVec(static_cast<size_t>(cols), &rng);
  QuantizedMatrix q = QuantizeRows(w.data(), rows, cols, cols, 1);

  std::vector<float> got(static_cast<size_t>(rows)), want(static_cast<size_t>(rows));
  QuantizedScore(q, x.data(), got.data());
  naive::GemvN(rows, cols, w.data(), cols, x.data(), want.data(), false);

  float max_err = 0.f, max_abs = 0.f;
  for (int64_t i = 0; i < rows; ++i) {
    max_err = std::max(max_err, std::fabs(got[static_cast<size_t>(i)] - want[static_cast<size_t>(i)]));
    max_abs = std::max(max_abs, std::fabs(want[static_cast<size_t>(i)]));
  }
  // Observed ~0.2 absolute on |score| up to ~30; fail well before the
  // error could flip a non-trivial ranking.
  EXPECT_LT(max_err, 1.f);
  EXPECT_LT(max_err, 0.1f * max_abs);
}

TEST(QuantizeActivationTest, AllZeroVectorHasZeroScale) {
  std::vector<float> x(64, 0.f);
  std::vector<int8_t> xq(64);
  EXPECT_EQ(QuantizeActivation(x.data(), 64, 64, xq.data()), 0.f);
  for (int8_t v : xq) EXPECT_EQ(v, 0);
}

TEST(QuantCacheTest, BuildsOnceAndInvalidates) {
  Rng rng(41);
  const int64_t rows = 4, cols = 8;
  auto w = RandomVec(static_cast<size_t>(rows * cols), &rng);
  QuantCache cache;
  const QuantizedMatrix& m1 = cache.Get(w.data(), rows, cols, cols, 1);
  const float s0 = m1.scales[0];
  // Mutating the source without invalidating returns the stale pack
  // (that is the contract: invalidate at load/finetune boundaries).
  w[0] += 100.f;
  EXPECT_EQ(&cache.Get(w.data(), rows, cols, cols, 1), &m1);
  EXPECT_FLOAT_EQ(cache.Get(w.data(), rows, cols, cols, 1).scales[0], s0);
  cache.Invalidate();
  EXPECT_GT(cache.Get(w.data(), rows, cols, cols, 1).scales[0], s0);
}

TEST(QuantScoringGate, TestOverrideWinsOverEnvironment) {
  SetQuantScoringForTest(1);
  EXPECT_TRUE(QuantScoringEnabled());
  SetQuantScoringForTest(0);
  EXPECT_FALSE(QuantScoringEnabled());
  SetQuantScoringForTest(-1);  // Back to env resolution (unset here -> off).
}

TEST(QuantScoringGate, EnvironmentAcceptsOnlyOneAsOn) {
  auto enabled_with = [](const char* value) {
    ::setenv("TURL_QUANT_SCORING", value, 1);
    SetQuantScoringForTest(-1);
    return QuantScoringEnabled();
  };
  EXPECT_TRUE(enabled_with("1"));
  for (const char* off : {"0", "10", "1x", "true"}) {
    EXPECT_FALSE(enabled_with(off)) << off;
  }
  ::unsetenv("TURL_QUANT_SCORING");
  SetQuantScoringForTest(-1);
  EXPECT_FALSE(QuantScoringEnabled());
}

}  // namespace
}  // namespace kernels
}  // namespace nn
}  // namespace turl
