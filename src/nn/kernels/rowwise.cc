#include "nn/kernels/rowwise.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "nn/kernels/threading.h"
#include "obs/trace.h"

namespace turl {
namespace nn {
namespace kernels {

namespace {

constexpr int64_t kRowPanel = 64;

// exp/tanh cost far more than a mul-add; weight elements so the parallel
// gate (calibrated in mul-adds) opens for transcendental-heavy kernels of
// comparable wall time.
constexpr int64_t kTranscendentalWeight = 16;

int64_t RowPanels(int64_t m) { return (m + kRowPanel - 1) / kRowPanel; }

template <typename RowFn>
void ForEachRowPanel(int64_t m, int64_t n, const RowFn& fn) {
  ParallelPanels(RowPanels(m), m * n * kTranscendentalWeight,
                 [&](int64_t p) {
                   const int64_t i1 = std::min<int64_t>(m, (p + 1) * kRowPanel);
                   for (int64_t i = p * kRowPanel; i < i1; ++i) fn(i);
                 });
}

#if defined(__AVX2__) && defined(__FMA__)

constexpr int64_t kLanes = 8;

constexpr float kExpClamp = 87.f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;     // 9 bits: n * kLn2Hi is exact.
constexpr float kLn2Lo = -2.12194440e-4f;  // ln 2 - kLn2Hi.

/// e^x on 8 lanes, after Cephes' expf: n = round(x log2 e), r = x - n ln 2
/// in two FMA steps, a degree-5 polynomial for e^r on [-ln2/2, ln2/2], and
/// 2^n put in through the exponent bits. x is clamped to [-87, 87], so
/// n + 127 stays in [1, 253] and no lane ever builds a denormal; every
/// input below -87, -inf included, then returns exactly +0.f, and inputs
/// above 87 saturate at e^87 (no caller needs more: softmax arguments are
/// <= 0, and GeLU's 1/(1 + e) is below 2e-38 there). The clamps take x as
/// their second operand, which min/max return when it is NaN, so NaN in
/// gives NaN out.
inline __m256 Exp8(__m256 x) {
  const __m256 lo = _mm256_set1_ps(-kExpClamp);
  const __m256 xc =
      _mm256_min_ps(_mm256_set1_ps(kExpClamp), _mm256_max_ps(lo, x));
  const __m256 fn =
      _mm256_round_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(kLn2Hi), xc);
  r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 er = _mm256_add_ps(
      _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(fn), _mm256_set1_epi32(127)), 23);
  const __m256 y = _mm256_mul_ps(er, _mm256_castsi256_ps(bits));
  return _mm256_andnot_ps(_mm256_cmp_ps(x, lo, _CMP_LT_OQ), y);
}

/// Loads x[j, j + 8) into 8 lanes. Past n, the lanes read `pad` from a
/// stack buffer, so the last n % 8 elements go through the same lane
/// arithmetic as the rest: no result depends on its offset.
inline __m256 LoadLanes(const float* x, int64_t j, int64_t n, float pad) {
  if (j + kLanes <= n) return _mm256_loadu_ps(x + j);
  alignas(32) float tail[kLanes];
  std::fill(tail, tail + kLanes, pad);
  std::copy(x + j, x + n, tail);
  return _mm256_load_ps(tail);
}

/// Stores the lanes of v that fall below n at y + j.
inline void StoreLanes(float* y, int64_t j, int64_t n, __m256 v) {
  if (j + kLanes <= n) {
    _mm256_storeu_ps(y + j, v);
    return;
  }
  alignas(32) float tail[kLanes];
  _mm256_store_ps(tail, v);
  std::copy(tail, tail + (n - j), y + j);
}

/// softmax of one row x[0, n) into y (y == x allowed): a vector max, then
/// exp and an 8-lane sum in one pass, reduced by the same fixed tree as
/// the GEMV dots, then 1/sum. Padding lanes hold -inf: they never win the
/// max and add exactly +0 to the sum.
void SoftmaxRow(const float* x, float* y, int64_t n) {
  constexpr float kPad = -std::numeric_limits<float>::infinity();
  __m256 vmax = _mm256_set1_ps(kPad);
  for (int64_t j = 0; j < n; j += kLanes) {
    vmax = _mm256_max_ps(vmax, LoadLanes(x, j, n, kPad));
  }
  alignas(32) float a[kLanes];
  _mm256_store_ps(a, vmax);
  const __m256 mx = _mm256_set1_ps(*std::max_element(a, a + kLanes));
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t j = 0; j < n; j += kLanes) {
    const __m256 e = Exp8(_mm256_sub_ps(LoadLanes(x, j, n, kPad), mx));
    vsum = _mm256_add_ps(vsum, e);
    StoreLanes(y, j, n, e);
  }
  _mm256_store_ps(a, vsum);
  const float sum =
      ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
  const float inv = 1.f / sum;
  for (int64_t j = 0; j < n; ++j) y[j] *= inv;
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
// Past |x| = 10, -2u is beyond +-87, so e is already 0 or e^87 and q is
// saturated: clamping x there for u and u' changes no q, and keeps u and
// x u' finite for every finite x.
constexpr float kGeluSat = 10.f;

/// GeLU's tanh form without tanh: 0.5 (1 + tanh u) = q with q = 1/(1 + e),
/// e = exp(-2u) and u = c (x + a x^3). Forward is x q; the derivative is
/// q + 2x (e q^2) u', where e q^2 avoids the 1 - tanh^2 cancellation.
struct Gelu8 {
  __m256 q;    // 0.5 (1 + tanh u)
  __m256 eqq;  // e q^2
  __m256 xdu;  // x u'
  explicit Gelu8(__m256 x) {
    const __m256 one = _mm256_set1_ps(1.f);
    const __m256 c = _mm256_set1_ps(kGeluC);
    // x is the second operand of both clamps, so NaN passes through.
    const __m256 xs = _mm256_min_ps(
        _mm256_set1_ps(kGeluSat),
        _mm256_max_ps(_mm256_set1_ps(-kGeluSat), x));
    const __m256 x2 = _mm256_mul_ps(xs, xs);
    const __m256 u = _mm256_mul_ps(
        xs, _mm256_fmadd_ps(x2, _mm256_set1_ps(kGeluC * kGeluA), c));
    const __m256 e = Exp8(_mm256_mul_ps(u, _mm256_set1_ps(-2.f)));
    q = _mm256_div_ps(one, _mm256_add_ps(one, e));
    eqq = _mm256_mul_ps(_mm256_mul_ps(e, q), q);
    xdu = _mm256_mul_ps(
        xs, _mm256_fmadd_ps(x2, _mm256_set1_ps(3.f * kGeluC * kGeluA), c));
  }
};

void GeluForward(const float* x, float* y, int64_t n) {
  for (int64_t j = 0; j < n; j += kLanes) {
    const __m256 v = LoadLanes(x, j, n, 0.f);
    StoreLanes(y, j, n, _mm256_mul_ps(v, Gelu8(v).q));
  }
}

void GeluBackward(const float* x, const float* dy, float* dx, int64_t n) {
  for (int64_t j = 0; j < n; j += kLanes) {
    const Gelu8 g(LoadLanes(x, j, n, 0.f));
    const __m256 d =
        _mm256_fmadd_ps(_mm256_add_ps(g.eqq, g.eqq), g.xdu, g.q);
    StoreLanes(dx, j, n,
               _mm256_fmadd_ps(LoadLanes(dy, j, n, 0.f), d,
                               LoadLanes(dx, j, n, 0.f)));
  }
}

#else  // Base ISA: the naive loops are the implementation.

void SoftmaxRow(const float* x, float* y, int64_t n) {
  naive::SoftmaxRowsForward(x, y, 1, n);
}

#endif

}  // namespace

void SoftmaxRowsForward(const float* x, float* y, int64_t m, int64_t n) {
  TURL_TRACE_SCOPE("kernel.softmax");
  ForEachRowPanel(m, n,
                  [&](int64_t i) { SoftmaxRow(x + i * n, y + i * n, n); });
}

void MaskedScaledSoftmaxRows(float* scores, const float* mask, float scale,
                             int64_t m, int64_t n) {
  TURL_TRACE_SCOPE("kernel.softmax");
  ForEachRowPanel(m, n, [&](int64_t i) {
    float* row = scores + i * n;
    if (mask != nullptr) {
      const float* mrow = mask + i * n;
      for (int64_t j = 0; j < n; ++j) row[j] = row[j] * scale + mrow[j];
    } else if (scale != 1.f) {
      for (int64_t j = 0; j < n; ++j) row[j] *= scale;
    }
    SoftmaxRow(row, row, n);
  });
}

void SoftmaxRowsBackward(const float* y, const float* dy, float* dx,
                         int64_t m, int64_t n) {
  TURL_TRACE_SCOPE("kernel.softmax");
  ForEachRowPanel(m, n, [&](int64_t i) {
    const float* yr = y + i * n;
    const float* gr = dy + i * n;
    float* dr = dx + i * n;
    float dot = 0.f;
    for (int64_t j = 0; j < n; ++j) dot += yr[j] * gr[j];
    for (int64_t j = 0; j < n; ++j) dr[j] += yr[j] * (gr[j] - dot);
  });
}

void SoftmaxGradInPlace(const float* y, float* d, float scale, int64_t m,
                        int64_t n) {
  TURL_TRACE_SCOPE("kernel.softmax");
  ForEachRowPanel(m, n, [&](int64_t i) {
    const float* yr = y + i * n;
    float* dr = d + i * n;
    float dot = 0.f;
    for (int64_t j = 0; j < n; ++j) dot += yr[j] * dr[j];
    for (int64_t j = 0; j < n; ++j) dr[j] = scale * yr[j] * (dr[j] - dot);
  });
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* y, float* xhat, float* inv_std,
                      int64_t m, int64_t n) {
  TURL_TRACE_SCOPE("kernel.layernorm");
  const float inv_n = 1.f / float(n);
  ForEachRowPanel(m, n, [&](int64_t i) {
    const float* row = x + i * n;
    float sum = 0.f, sumsq = 0.f;
    for (int64_t j = 0; j < n; ++j) {
      const float v = row[j];
      sum += v;
      sumsq += v * v;
    }
    const float mu = sum * inv_n;
    const float var = std::max(0.f, sumsq * inv_n - mu * mu);
    const float is = 1.f / std::sqrt(var + eps);
    inv_std[i] = is;
    float* xh = xhat + i * n;
    float* out = y + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float h = (row[j] - mu) * is;
      xh[j] = h;
      out[j] = gamma[j] * h + beta[j];
    }
  });
}

void LayerNormBackward(const float* dy, const float* gamma, const float* xhat,
                       const float* inv_std, float* dx, float* dgamma,
                       float* dbeta, int64_t m, int64_t n) {
  TURL_TRACE_SCOPE("kernel.layernorm");
  const float inv_n = 1.f / float(n);
  for (int64_t i = 0; i < m; ++i) {
    const float* grow = dy + i * n;
    const float* xh = xhat + i * n;
    float* dr = dx + i * n;
    const float is = inv_std[i];
    float mean_dxhat = 0.f, mean_dxhat_xhat = 0.f;
    for (int64_t j = 0; j < n; ++j) {
      const float dxh = grow[j] * gamma[j];
      mean_dxhat += dxh;
      mean_dxhat_xhat += dxh * xh[j];
    }
    mean_dxhat *= inv_n;
    mean_dxhat_xhat *= inv_n;
    for (int64_t j = 0; j < n; ++j) {
      const float dxh = grow[j] * gamma[j];
      dr[j] += is * (dxh - mean_dxhat - xh[j] * mean_dxhat_xhat);
      dgamma[j] += grow[j] * xh[j];
      dbeta[j] += grow[j];
    }
  }
}

void ActivationForward(Act act, const float* x, float* y, int64_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (act == Act::kGelu) {
    GeluForward(x, y, n);
    return;
  }
#endif
  naive::ActivationForward(act, x, y, n);
}

void ActivationBackward(Act act, const float* x, const float* y,
                        const float* dy, float* dx, int64_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (act == Act::kGelu) {
    GeluBackward(x, dy, dx, n);
    return;
  }
#endif
  naive::ActivationBackward(act, x, y, dy, dx, n);
}

}  // namespace kernels
}  // namespace nn
}  // namespace turl
