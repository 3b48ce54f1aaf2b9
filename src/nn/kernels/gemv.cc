#include "nn/kernels/gemv.h"

#include <algorithm>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "nn/kernels/threading.h"
#include "obs/trace.h"

namespace turl {
namespace nn {
namespace kernels {

namespace {

// Parallel panel edges. GemvN rows are whole dot products, GemvT columns
// are whole ascending-k chains, so any panel split preserves the
// per-element operation sequence; the sizes only bound scheduling
// granularity. kGemvRowPanel is a multiple of the 4-row dot group so a
// panel boundary never changes how rows group into Dot4Rows calls.
constexpr int64_t kGemvRowPanel = 256;
constexpr int64_t kGemvColPanel = 512;

/// R simultaneous k-dots of R consecutive A rows against the shared x.
/// Mirrors DotTile in gemm.cc: each dot owns an 8-lane accumulator filled
/// in ascending-k order (tail elements land on lane t%8) and reduced with a
/// fixed tree, so the result per row is independent of R and of the panel
/// split. Under AVX2 the R==4 body keeps 4 named YMM accumulators live
/// across the whole k loop and shares each x load between them.
template <int R>
void DotRows(int64_t k, const float* a, int64_t lda, const float* x, float* y,
             bool accumulate) {
  constexpr int kLanes = 8;
  float acc[R][kLanes] = {};
  const int64_t k8 = k - (k % kLanes);
#if defined(__AVX2__) && defined(__FMA__)
  if (R == 4) {
    __m256 q0 = _mm256_setzero_ps(), q1 = _mm256_setzero_ps();
    __m256 q2 = _mm256_setzero_ps(), q3 = _mm256_setzero_ps();
    for (int64_t t = 0; t < k8; t += kLanes) {
      const __m256 xv = _mm256_loadu_ps(x + t);
      q0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(a + t), q0);
      q1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(a + lda + t), q1);
      q2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(a + 2 * lda + t), q2);
      q3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(a + 3 * lda + t), q3);
    }
    _mm256_storeu_ps(acc[0 % R], q0);
    _mm256_storeu_ps(acc[1 % R], q1);
    _mm256_storeu_ps(acc[2 % R], q2);
    _mm256_storeu_ps(acc[3 % R], q3);
  } else {
    // R < 4: one accumulator per row, shared x load. Each row's chain is
    // the same as in the R == 4 body, so grouping never changes results.
    __m256 vacc[R];
    for (int r = 0; r < R; ++r) vacc[r] = _mm256_setzero_ps();
    for (int64_t t = 0; t < k8; t += kLanes) {
      const __m256 xv = _mm256_loadu_ps(x + t);
      for (int r = 0; r < R; ++r) {
        vacc[r] = _mm256_fmadd_ps(xv, _mm256_loadu_ps(a + r * lda + t),
                                  vacc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm256_storeu_ps(acc[r], vacc[r]);
  }
#else
  for (int64_t t = 0; t < k8; t += kLanes) {
    for (int r = 0; r < R; ++r) {
      const float* arow = a + r * lda + t;
      float* ar = acc[r];
      for (int l = 0; l < kLanes; ++l) ar[l] += x[t + l] * arow[l];
    }
  }
#endif
  for (int64_t t = k8; t < k; ++t) {
    for (int r = 0; r < R; ++r) acc[r][t - k8] += x[t] * a[r * lda + t];
  }
  for (int r = 0; r < R; ++r) {
    const float* ar = acc[r];
    const float r0 = ar[0] + ar[4];
    const float r1 = ar[1] + ar[5];
    const float r2 = ar[2] + ar[6];
    const float r3 = ar[3] + ar[7];
    const float sum = (r0 + r2) + (r1 + r3);
    if (accumulate) {
      y[r] += sum;
    } else {
      y[r] = sum;
    }
  }
}

void GemvNPanel(int64_t i0, int64_t i1, int64_t k, const float* a, int64_t lda,
                const float* x, float* y, bool accumulate) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    DotRows<4>(k, a + i * lda, lda, x, y + i, accumulate);
  }
  for (; i < i1; ++i) {
    DotRows<1>(k, a + i * lda, lda, x, y + i, accumulate);
  }
}

/// Column-axpy over the panel [j0, j1) for R output rows: every C element
/// accumulates its own strictly ascending-k FMA chain, with B streamed row
/// by row exactly once for all R rows together. C panels stay L1-resident
/// across the k sweep (kGemvColPanel * R floats), so the read-modify-write
/// per step is cheap and B's streaming reads set the pace.
template <int R>
void GemvTPanel(int64_t j0, int64_t j1, int64_t k, const float* b, int64_t ldb,
                const float* x, int64_t x_t, int64_t x_r, float* c,
                int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (int r = 0; r < R; ++r) std::fill(c + r * ldc + j0, c + r * ldc + j1, 0.f);
  }
  const int64_t width = j1 - j0;
  const int64_t w8 = width - (width % 8);
#if defined(__AVX2__) && defined(__FMA__)
  for (int64_t t = 0; t < k; ++t) {
    const float* bt = b + t * ldb + j0;
    const float* xt = x + t * x_t;
    for (int r = 0; r < R; ++r) {
      const __m256 xv = _mm256_broadcast_ss(xt + r * x_r);
      float* crow = c + r * ldc + j0;
      int64_t j = 0;
      for (; j < w8; j += 8) {
        _mm256_storeu_ps(
            crow + j,
            _mm256_fmadd_ps(xv, _mm256_loadu_ps(bt + j),
                            _mm256_loadu_ps(crow + j)));
      }
      const float xs = xt[r * x_r];
      for (; j < width; ++j) crow[j] += xs * bt[j];
    }
  }
#else
  for (int64_t t = 0; t < k; ++t) {
    const float* bt = b + t * ldb + j0;
    const float* xt = x + t * x_t;
    for (int r = 0; r < R; ++r) {
      const float xs = xt[r * x_r];
      float* crow = c + r * ldc + j0;
      for (int64_t j = 0; j < width; ++j) crow[j] += xs * bt[j];
    }
  }
  (void)w8;
#endif
}

using GemvTPanelFn = void (*)(int64_t, int64_t, int64_t, const float*, int64_t,
                              const float*, int64_t, int64_t, float*, int64_t,
                              bool);

GemvTPanelFn GemvTPanelFor(int64_t m) {
  switch (m) {
    case 4:
      return &GemvTPanel<4>;
    case 3:
      return &GemvTPanel<3>;
    case 2:
      return &GemvTPanel<2>;
    default:
      return &GemvTPanel<1>;
  }
}

/// Row-dot panel for R x-vectors against B rows [j0, j1): per B row one
/// DotRows call with the roles swapped (the R x-vectors are the "rows", the
/// B row is the shared operand). FMA and float multiply are commutative in
/// their product operands, so each dot's chain is bit-identical to the
/// corresponding single-x GemvN dot.
template <int R>
void GemvNMultiPanel(int64_t j0, int64_t j1, int64_t k, const float* b,
                     int64_t ldb, const float* x, int64_t ldx, float* c,
                     int64_t ldc, bool accumulate) {
  for (int64_t j = j0; j < j1; ++j) {
    float tmp[R];
    DotRows<R>(k, x, ldx, b + j * ldb, tmp, false);
    for (int r = 0; r < R; ++r) {
      float* out = c + r * ldc + j;
      if (accumulate) {
        *out += tmp[r];
      } else {
        *out = tmp[r];
      }
    }
  }
}

using GemvNMultiPanelFn = void (*)(int64_t, int64_t, int64_t, const float*,
                                   int64_t, const float*, int64_t, float*,
                                   int64_t, bool);

GemvNMultiPanelFn GemvNMultiPanelFor(int64_t m) {
  switch (m) {
    case 4:
      return &GemvNMultiPanel<4>;
    case 3:
      return &GemvNMultiPanel<3>;
    case 2:
      return &GemvNMultiPanel<2>;
    default:
      return &GemvNMultiPanel<1>;
  }
}

}  // namespace

void GemvN(int64_t m, int64_t k, const float* a, int64_t lda, const float* x,
           float* y, bool accumulate) {
  TURL_TRACE_SCOPE("kernel.gemv");
  if (m <= 0) return;
  if (k <= 0) {
    if (!accumulate) std::fill(y, y + m, 0.f);
    return;
  }
  const int64_t panels = (m + kGemvRowPanel - 1) / kGemvRowPanel;
  ParallelPanels(panels, m * k, [&](int64_t p) {
    const int64_t i0 = p * kGemvRowPanel;
    const int64_t i1 = std::min<int64_t>(m, i0 + kGemvRowPanel);
    GemvNPanel(i0, i1, k, a, lda, x, y, accumulate);
  });
}

void GemvTMulti(int64_t m, int64_t n, int64_t k, const float* b, int64_t ldb,
                const float* x, int64_t x_t, int64_t x_r, float* c,
                int64_t ldc, bool accumulate) {
  TURL_TRACE_SCOPE("kernel.gemv");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t r = 0; r < m; ++r) std::fill(c + r * ldc, c + r * ldc + n, 0.f);
    }
    return;
  }
  const GemvTPanelFn panel = GemvTPanelFor(m);
  const int64_t panels = (n + kGemvColPanel - 1) / kGemvColPanel;
  ParallelPanels(panels, m * n * k, [&](int64_t p) {
    const int64_t j0 = p * kGemvColPanel;
    const int64_t j1 = std::min<int64_t>(n, j0 + kGemvColPanel);
    panel(j0, j1, k, b, ldb, x, x_t, x_r, c, ldc, accumulate);
  });
}

void GemvT(int64_t k, int64_t n, const float* b, int64_t ldb, const float* x,
           int64_t incx, float* y, bool accumulate) {
  GemvTMulti(1, n, k, b, ldb, x, /*x_t=*/incx, /*x_r=*/0, y, /*ldc=*/0,
             accumulate);
}

void GemvNMulti(int64_t m, int64_t n, int64_t k, const float* b, int64_t ldb,
                const float* x, int64_t ldx, float* c, int64_t ldc,
                bool accumulate) {
  TURL_TRACE_SCOPE("kernel.gemv");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t r = 0; r < m; ++r) std::fill(c + r * ldc, c + r * ldc + n, 0.f);
    }
    return;
  }
  if (m == 1) {
    // A single x-vector gains nothing from the fused sweep, but GemvN's
    // 4-row grouping of B does share each x load across 4 dots.
    GemvN(n, k, b, ldb, x, c, accumulate);
    return;
  }
  const GemvNMultiPanelFn panel = GemvNMultiPanelFor(m);
  const int64_t panels = (n + kGemvRowPanel - 1) / kGemvRowPanel;
  ParallelPanels(panels, m * n * k, [&](int64_t p) {
    const int64_t j0 = p * kGemvRowPanel;
    const int64_t j1 = std::min<int64_t>(n, j0 + kGemvRowPanel);
    panel(j0, j1, k, b, ldb, x, ldx, c, ldc, accumulate);
  });
}

}  // namespace kernels
}  // namespace nn
}  // namespace turl
