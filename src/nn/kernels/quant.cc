#include "nn/kernels/quant.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "nn/kernels/threading.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace nn {
namespace kernels {

namespace {

constexpr int64_t kQuantAlign = 32;    // One YMM of int8 lanes.
constexpr int64_t kQuantRowPanel = 256;

int64_t PaddedStride(int64_t cols) {
  return (cols + kQuantAlign - 1) / kQuantAlign * kQuantAlign;
}

int8_t QuantizeValue(float v, float inv_scale) {
  const long q = std::lrintf(v * inv_scale);
  return static_cast<int8_t>(std::clamp<long>(q, -127, 127));
}

/// The one float operation both paths share: identical expression, so a
/// bitwise-equal integer accumulator yields a bitwise-equal score.
inline float Rescale(int32_t acc, float w_scale, float x_scale) {
  return static_cast<float>(acc) * (w_scale * x_scale);
}

inline int32_t DotI8Scalar(const int8_t* w, const int8_t* xq, int64_t stride) {
  int32_t acc = 0;
  for (int64_t t = 0; t < stride; ++t) {
    acc += static_cast<int32_t>(w[t]) * static_cast<int32_t>(xq[t]);
  }
  return acc;
}

#if defined(__AVX2__) && defined(__FMA__)
/// maddubs wants unsigned x signed operands and saturates its int16 pair
/// sums; |x| (*) sign-adjusted w keeps every product in [-16129, 16129], so
/// a pair sum tops out at 32258 < INT16_MAX and the accumulation is exact —
/// bitwise identical to the scalar loop.
inline int32_t DotI8(const int8_t* w, const int8_t* xq, int64_t stride) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  for (int64_t t = 0; t < stride; t += kQuantAlign) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xq + t));
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + t));
    const __m256i xabs = _mm256_sign_epi8(xv, xv);
    const __m256i wsgn = _mm256_sign_epi8(wv, xv);
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(xabs, wsgn), ones));
  }
  const __m128i half = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
  const __m128i pair =
      _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(1, 0, 3, 2)));
  const __m128i one =
      _mm_add_epi32(pair, _mm_shuffle_epi32(pair, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(one);
}
#else
inline int32_t DotI8(const int8_t* w, const int8_t* xq, int64_t stride) {
  return DotI8Scalar(w, xq, stride);
}
#endif

std::atomic<int> g_quant_scoring{-1};  // -1: resolve from the environment.

}  // namespace

QuantizedMatrix QuantizeRows(const float* w, int64_t rows, int64_t cols,
                             int64_t row_stride, int64_t col_stride) {
  TURL_TRACE_SCOPE("kernel.quant_pack");
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.stride = PaddedStride(cols);
  q.data.assign(static_cast<size_t>(rows * q.stride), 0);
  q.scales.assign(static_cast<size_t>(rows), 0.f);
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = w + i * row_stride;
    float max_abs = 0.f;
    for (int64_t j = 0; j < cols; ++j) {
      max_abs = std::max(max_abs, std::fabs(row[j * col_stride]));
    }
    q.scales[static_cast<size_t>(i)] = max_abs / 127.f;
    if (max_abs == 0.f) continue;
    const float inv = 127.f / max_abs;
    int8_t* out = q.data.data() + i * q.stride;
    for (int64_t j = 0; j < cols; ++j) {
      out[j] = QuantizeValue(row[j * col_stride], inv);
    }
  }
  return q;
}

float QuantizeActivation(const float* x, int64_t n, int64_t stride,
                         int8_t* out) {
  TURL_CHECK_GE(stride, n);
  float max_abs = 0.f;
  for (int64_t t = 0; t < n; ++t) max_abs = std::max(max_abs, std::fabs(x[t]));
  std::fill(out + n, out + stride, 0);
  if (max_abs == 0.f) {
    std::fill(out, out + n, 0);
    return 0.f;
  }
  const float inv = 127.f / max_abs;
  for (int64_t t = 0; t < n; ++t) out[t] = QuantizeValue(x[t], inv);
  return max_abs / 127.f;
}

void QuantizedGemv(const QuantizedMatrix& w, const int8_t* xq, float x_scale,
                   float* y, bool accumulate) {
  TURL_TRACE_SCOPE("kernel.gemv_i8");
  const int64_t panels = (w.rows + kQuantRowPanel - 1) / kQuantRowPanel;
  ParallelPanels(panels, w.rows * w.stride, [&](int64_t p) {
    const int64_t i0 = p * kQuantRowPanel;
    const int64_t i1 = std::min<int64_t>(w.rows, i0 + kQuantRowPanel);
    for (int64_t i = i0; i < i1; ++i) {
      const float s = Rescale(DotI8(w.data.data() + i * w.stride, xq, w.stride),
                              w.scales[static_cast<size_t>(i)], x_scale);
      if (accumulate) {
        y[i] += s;
      } else {
        y[i] = s;
      }
    }
  });
}

void QuantizedGemvRows(const QuantizedMatrix& w, const int* rows,
                       int64_t num_rows, const int8_t* xq, float x_scale,
                       float* y, bool accumulate) {
  TURL_TRACE_SCOPE("kernel.gemv_i8");
  const int64_t panels = (num_rows + kQuantRowPanel - 1) / kQuantRowPanel;
  ParallelPanels(panels, num_rows * w.stride, [&](int64_t p) {
    const int64_t r0 = p * kQuantRowPanel;
    const int64_t r1 = std::min<int64_t>(num_rows, r0 + kQuantRowPanel);
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t i = rows[r];
      const float s = Rescale(DotI8(w.data.data() + i * w.stride, xq, w.stride),
                              w.scales[static_cast<size_t>(i)], x_scale);
      if (accumulate) {
        y[r] += s;
      } else {
        y[r] = s;
      }
    }
  });
}

void QuantizedScore(const QuantizedMatrix& w, const float* x, float* y) {
  std::vector<int8_t> xq(static_cast<size_t>(w.stride));
  const float x_scale = QuantizeActivation(x, w.cols, w.stride, xq.data());
  QuantizedGemv(w, xq.data(), x_scale, y, /*accumulate=*/false);
}

void QuantizedScoreRows(const QuantizedMatrix& w, const int* rows,
                        int64_t num_rows, const float* x, float* y) {
  std::vector<int8_t> xq(static_cast<size_t>(w.stride));
  const float x_scale = QuantizeActivation(x, w.cols, w.stride, xq.data());
  QuantizedGemvRows(w, rows, num_rows, xq.data(), x_scale, y,
                    /*accumulate=*/false);
}

namespace naive {

void QuantizedGemv(const QuantizedMatrix& w, const int8_t* xq, float x_scale,
                   float* y, bool accumulate) {
  for (int64_t i = 0; i < w.rows; ++i) {
    const float s =
        Rescale(DotI8Scalar(w.data.data() + i * w.stride, xq, w.stride),
                w.scales[static_cast<size_t>(i)], x_scale);
    if (accumulate) {
      y[i] += s;
    } else {
      y[i] = s;
    }
  }
}

void QuantizedGemvRows(const QuantizedMatrix& w, const int* rows,
                       int64_t num_rows, const int8_t* xq, float x_scale,
                       float* y, bool accumulate) {
  for (int64_t r = 0; r < num_rows; ++r) {
    const int64_t i = rows[r];
    const float s =
        Rescale(DotI8Scalar(w.data.data() + i * w.stride, xq, w.stride),
                w.scales[static_cast<size_t>(i)], x_scale);
    if (accumulate) {
      y[r] += s;
    } else {
      y[r] = s;
    }
  }
}

}  // namespace naive

const QuantizedMatrix& QuantCache::Get(const float* w, int64_t rows,
                                       int64_t cols, int64_t row_stride,
                                       int64_t col_stride) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m_.empty()) m_ = QuantizeRows(w, rows, cols, row_stride, col_stride);
  return m_;
}

void QuantCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  m_ = QuantizedMatrix{};
}

bool QuantScoringEnabled() {
  int v = g_quant_scoring.load(std::memory_order_relaxed);
  if (v < 0) {
    v = ReadEnvSwitch("TURL_QUANT_SCORING") == EnvSwitch::kOn ? 1 : 0;
    g_quant_scoring.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void SetQuantScoringForTest(int v) {
  g_quant_scoring.store(v, std::memory_order_relaxed);
}

}  // namespace kernels
}  // namespace nn
}  // namespace turl
