#include "nn/kernels/gemm.h"

#include <algorithm>
#include <atomic>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "nn/kernels/gemv.h"
#include "nn/kernels/threading.h"
#include "obs/trace.h"

namespace turl {
namespace nn {
namespace kernels {

namespace {

// Register tile: kMR C-rows x kNR C-columns accumulate in registers across
// the whole k loop (8 YMM accumulators under AVX2). Parallel panels are
// multiples of the tile edge so the blocking phase — and therefore the
// exact FP operation sequence per element — is identical no matter how the
// panel range is split across threads.
constexpr int kMR = 4;
constexpr int64_t kNR = 16;
constexpr int64_t kRowPanel = 64;   // multiple of kMR
constexpr int64_t kColPanel = 256;  // multiple of kNR and of the NT j-tile

/// Updates the R x nb tile at c (row stride ldc) with
///   c[r][j] (+)= sum_{t<kc} s[t*s_t + r*s_r] * v[t*v_t + j].
/// Instantiated by GemmNN (s walks a row of A: s_t=1, s_r=lda) and GemmTN
/// (s walks a column block of A': s_t=lda, s_r=1). The t loop is the
/// k-reduction: strictly ascending, one scalar fma per (element, t), so the
/// per-element rounding sequence is fixed.
template <int R>
void MicroTile(int64_t kc, const float* s, int64_t s_t, int64_t s_r,
               const float* v, int64_t v_t, int64_t nb, float* c, int64_t ldc,
               bool accumulate) {
#if defined(__AVX2__) && defined(__FMA__)
  // Full-width 4x16 tile: 8 individually named YMM accumulators (arrays of
  // __m256 get spilled to the stack by gcc, which costs ~5x) live in
  // registers across the whole k loop. The fused mul-adds follow the same
  // ascending-k per-element order as the portable loop below.
  if (R == 4 && nb == kNR) {
    __m256 l0 = _mm256_setzero_ps(), h0 = _mm256_setzero_ps();
    __m256 l1 = _mm256_setzero_ps(), h1 = _mm256_setzero_ps();
    __m256 l2 = _mm256_setzero_ps(), h2 = _mm256_setzero_ps();
    __m256 l3 = _mm256_setzero_ps(), h3 = _mm256_setzero_ps();
    for (int64_t t = 0; t < kc; ++t) {
      const float* vt = v + t * v_t;
      const __m256 v0 = _mm256_loadu_ps(vt);
      const __m256 v1 = _mm256_loadu_ps(vt + 8);
      const float* st = s + t * s_t;
      __m256 sv = _mm256_broadcast_ss(st);
      l0 = _mm256_fmadd_ps(sv, v0, l0);
      h0 = _mm256_fmadd_ps(sv, v1, h0);
      sv = _mm256_broadcast_ss(st + s_r);
      l1 = _mm256_fmadd_ps(sv, v0, l1);
      h1 = _mm256_fmadd_ps(sv, v1, h1);
      sv = _mm256_broadcast_ss(st + 2 * s_r);
      l2 = _mm256_fmadd_ps(sv, v0, l2);
      h2 = _mm256_fmadd_ps(sv, v1, h2);
      sv = _mm256_broadcast_ss(st + 3 * s_r);
      l3 = _mm256_fmadd_ps(sv, v0, l3);
      h3 = _mm256_fmadd_ps(sv, v1, h3);
    }
    const __m256 lo[4] = {l0, l1, l2, l3};
    const __m256 hi[4] = {h0, h1, h2, h3};
    for (int r = 0; r < 4; ++r) {
      float* crow = c + r * ldc;
      if (accumulate) {
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), lo[r]));
        _mm256_storeu_ps(crow + 8,
                         _mm256_add_ps(_mm256_loadu_ps(crow + 8), hi[r]));
      } else {
        _mm256_storeu_ps(crow, lo[r]);
        _mm256_storeu_ps(crow + 8, hi[r]);
      }
    }
    return;
  }
  // Single-row full-width tile (GEMV-shaped callers, m % 4 == 1 tails).
  if (R == 1 && nb == kNR) {
    __m256 l0 = _mm256_setzero_ps(), h0 = _mm256_setzero_ps();
    for (int64_t t = 0; t < kc; ++t) {
      const float* vt = v + t * v_t;
      const __m256 sv = _mm256_broadcast_ss(s + t * s_t);
      l0 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(vt), l0);
      h0 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(vt + 8), h0);
    }
    if (accumulate) {
      _mm256_storeu_ps(c, _mm256_add_ps(_mm256_loadu_ps(c), l0));
      _mm256_storeu_ps(c + 8, _mm256_add_ps(_mm256_loadu_ps(c + 8), h0));
    } else {
      _mm256_storeu_ps(c, l0);
      _mm256_storeu_ps(c + 8, h0);
    }
    return;
  }
#endif
  float acc[R][kNR] = {};
  if (nb == kNR) {
    for (int64_t t = 0; t < kc; ++t) {
      const float* vt = v + t * v_t;
      const float* st = s + t * s_t;
      for (int r = 0; r < R; ++r) {
        const float sv = st[r * s_r];
        float* ar = acc[r];
        for (int64_t j = 0; j < kNR; ++j) ar[j] += sv * vt[j];
      }
    }
  } else {
    for (int64_t t = 0; t < kc; ++t) {
      const float* vt = v + t * v_t;
      const float* st = s + t * s_t;
      for (int r = 0; r < R; ++r) {
        const float sv = st[r * s_r];
        float* ar = acc[r];
        for (int64_t j = 0; j < nb; ++j) ar[j] += sv * vt[j];
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    const float* ar = acc[r];
    if (accumulate) {
      for (int64_t j = 0; j < nb; ++j) crow[j] += ar[j];
    } else {
      for (int64_t j = 0; j < nb; ++j) crow[j] = ar[j];
    }
  }
}

/// Rows [i0,i1) x columns [j0,j1) of the scalar-stream GEMM shared by NN
/// and TN. `a_row` is the stride from one C row to the next inside A
/// (lda for NN, 1 for TN).
void ScalarStreamPanel(int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                       int64_t k, const float* a, int64_t a_row, int64_t s_t,
                       int64_t s_r, const float* b, int64_t ldb, float* c,
                       int64_t ldc, bool accumulate) {
  for (int64_t i = i0; i < i1; i += kMR) {
    const int rows = static_cast<int>(std::min<int64_t>(kMR, i1 - i));
    const float* s = a + i * a_row;
    float* crow = c + i * ldc;
    for (int64_t j = j0; j < j1; j += kNR) {
      const int64_t nb = std::min<int64_t>(kNR, j1 - j);
      switch (rows) {
        case 4:
          MicroTile<4>(k, s, s_t, s_r, b + j, ldb, nb, crow + j, ldc,
                       accumulate);
          break;
        case 3:
          MicroTile<3>(k, s, s_t, s_r, b + j, ldb, nb, crow + j, ldc,
                       accumulate);
          break;
        case 2:
          MicroTile<2>(k, s, s_t, s_r, b + j, ldb, nb, crow + j, ldc,
                       accumulate);
          break;
        default:
          MicroTile<1>(k, s, s_t, s_r, b + j, ldb, nb, crow + j, ldc,
                       accumulate);
          break;
      }
    }
  }
}

/// Partitions the scalar-stream GEMM into parallel panels: by row panels
/// when there are at least two, otherwise by column panels (the m=1 shapes
/// of the task-head logits). The choice depends only on (m, n), never on
/// the thread count, so partitioning cannot perturb results.
void ScalarStreamGemm(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t a_row, int64_t s_t, int64_t s_r, const float* b,
                      int64_t ldb, float* c, int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.f);
    }
    return;
  }
  const int64_t flops = m * n * k;
  const int64_t row_panels = (m + kRowPanel - 1) / kRowPanel;
  if (row_panels >= 2 || n <= kColPanel) {
    ParallelPanels(row_panels, flops, [&](int64_t p) {
      const int64_t i0 = p * kRowPanel;
      const int64_t i1 = std::min<int64_t>(m, i0 + kRowPanel);
      ScalarStreamPanel(i0, i1, 0, n, k, a, a_row, s_t, s_r, b, ldb, c, ldc,
                        accumulate);
    });
  } else {
    const int64_t col_panels = (n + kColPanel - 1) / kColPanel;
    ParallelPanels(col_panels, flops, [&](int64_t p) {
      const int64_t j0 = p * kColPanel;
      const int64_t j1 = std::min<int64_t>(n, j0 + kColPanel);
      ScalarStreamPanel(0, m, j0, j1, k, a, a_row, s_t, s_r, b, ldb, c, ldc,
                        accumulate);
    });
  }
}

/// JB simultaneous k-dots of one A row against JB consecutive B rows.
/// Every dot owns an 8-lane accumulator filled in ascending-k order (tail
/// elements land on lane t%8, matching the vector body) and reduced with a
/// fixed tree, so the per-element result is independent of JB and of how
/// the (i, j) space is partitioned.
template <int JB>
void DotTile(int64_t k, const float* a, const float* b, int64_t ldb,
             float* out, bool accumulate) {
  constexpr int kLanes = 8;
  float acc[JB][kLanes] = {};
  const int64_t k8 = k - (k % kLanes);
#if defined(__AVX2__) && defined(__FMA__)
  if (JB == 4) {
    // Named accumulators (see MicroTile) for the 4-dot tile.
    __m256 q0 = _mm256_setzero_ps(), q1 = _mm256_setzero_ps();
    __m256 q2 = _mm256_setzero_ps(), q3 = _mm256_setzero_ps();
    for (int64_t t = 0; t < k8; t += kLanes) {
      const __m256 av = _mm256_loadu_ps(a + t);
      q0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + t), q0);
      q1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + ldb + t), q1);
      q2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + 2 * ldb + t), q2);
      q3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + 3 * ldb + t), q3);
    }
    _mm256_storeu_ps(acc[0 % JB], q0);
    _mm256_storeu_ps(acc[1 % JB], q1);
    _mm256_storeu_ps(acc[2 % JB], q2);
    _mm256_storeu_ps(acc[3 % JB], q3);
  } else {
    __m256 vacc = _mm256_setzero_ps();
    for (int64_t t = 0; t < k8; t += kLanes) {
      vacc = _mm256_fmadd_ps(_mm256_loadu_ps(a + t), _mm256_loadu_ps(b + t),
                             vacc);
    }
    _mm256_storeu_ps(acc[0], vacc);
  }
#else
  for (int64_t t = 0; t < k8; t += kLanes) {
    for (int jb = 0; jb < JB; ++jb) {
      const float* brow = b + jb * ldb + t;
      float* ar = acc[jb];
      for (int l = 0; l < kLanes; ++l) ar[l] += a[t + l] * brow[l];
    }
  }
#endif
  for (int64_t t = k8; t < k; ++t) {
    for (int jb = 0; jb < JB; ++jb) {
      acc[jb][t - k8] += a[t] * b[jb * ldb + t];
    }
  }
  for (int jb = 0; jb < JB; ++jb) {
    const float* ar = acc[jb];
    const float r0 = ar[0] + ar[4];
    const float r1 = ar[1] + ar[5];
    const float r2 = ar[2] + ar[6];
    const float r3 = ar[3] + ar[7];
    const float sum = (r0 + r2) + (r1 + r3);
    if (accumulate) {
      out[jb] += sum;
    } else {
      out[jb] = sum;
    }
  }
}

constexpr int64_t kNTJTile = 4;

void GemmNTPanel(int64_t i0, int64_t i1, int64_t j0, int64_t j1, int64_t k,
                 const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* c, int64_t ldc, bool accumulate) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    int64_t j = j0;
    for (; j + kNTJTile <= j1; j += kNTJTile) {
      DotTile<4>(k, arow, b + j * ldb, ldb, crow + j, accumulate);
    }
    for (; j < j1; ++j) {
      DotTile<1>(k, arow, b + j * ldb, ldb, crow + j, accumulate);
    }
  }
}

// Shapes up to this many output rows bypass the tile machinery for the
// GEMV layer: the 4x16 tile needs >= kMR rows to fill its accumulators,
// and its 16-column stripes walk B with a full-row stride — pessimal
// exactly for the 1 x d_model x vocab logits shapes.
constexpr int64_t kSmallMGemv = 4;

std::atomic<bool> g_small_m_gemv{true};

}  // namespace

void SetSmallMGemvDispatch(bool enabled) {
  g_small_m_gemv.store(enabled, std::memory_order_relaxed);
}

bool SmallMGemvDispatch() {
  return g_small_m_gemv.load(std::memory_order_relaxed);
}

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
            const float* b, int64_t ldb, float* c, int64_t ldc,
            bool accumulate) {
  if (m >= 1 && m <= kSmallMGemv && SmallMGemvDispatch()) {
    // Row r of C consumes row r of A: x[r][t] = a[r * lda + t].
    GemvTMulti(m, n, k, b, ldb, a, /*x_t=*/1, /*x_r=*/lda, c, ldc, accumulate);
    return;
  }
  TURL_TRACE_SCOPE("kernel.gemm");
  ScalarStreamGemm(m, n, k, a, /*a_row=*/lda, /*s_t=*/1, /*s_r=*/lda, b, ldb,
                   c, ldc, accumulate);
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
            const float* b, int64_t ldb, float* c, int64_t ldc,
            bool accumulate) {
  if (m >= 1 && m <= kSmallMGemv && SmallMGemvDispatch()) {
    // Row r of C consumes column r of A': x[r][t] = a[t * lda + r].
    GemvTMulti(m, n, k, b, ldb, a, /*x_t=*/lda, /*x_r=*/1, c, ldc, accumulate);
    return;
  }
  TURL_TRACE_SCOPE("kernel.gemm");
  ScalarStreamGemm(m, n, k, a, /*a_row=*/1, /*s_t=*/lda, /*s_r=*/1, b, ldb, c,
                   ldc, accumulate);
}

void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
            const float* b, int64_t ldb, float* c, int64_t ldc,
            bool accumulate) {
  if (m >= 1 && m <= kSmallMGemv && SmallMGemvDispatch() && k > 0) {
    // Row i of C is row i of A dotted against every row of B — GemvN with
    // the roles swapped (B supplies the matrix, A rows the vectors). The
    // fused form streams B once for all m rows; per-dot arithmetic is
    // bitwise identical to m separate GemvN calls.
    GemvNMulti(m, n, k, b, ldb, a, lda, c, ldc, accumulate);
    return;
  }
  TURL_TRACE_SCOPE("kernel.gemm");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.f);
    }
    return;
  }
  const int64_t flops = m * n * k;
  const int64_t row_panels = (m + kRowPanel - 1) / kRowPanel;
  if (row_panels >= 2 || n <= kColPanel) {
    ParallelPanels(row_panels, flops, [&](int64_t p) {
      const int64_t i0 = p * kRowPanel;
      const int64_t i1 = std::min<int64_t>(m, i0 + kRowPanel);
      GemmNTPanel(i0, i1, 0, n, k, a, lda, b, ldb, c, ldc, accumulate);
    });
  } else {
    const int64_t col_panels = (n + kColPanel - 1) / kColPanel;
    ParallelPanels(col_panels, flops, [&](int64_t p) {
      const int64_t j0 = p * kColPanel;
      const int64_t j1 = std::min<int64_t>(n, j0 + kColPanel);
      GemmNTPanel(0, m, j0, j1, k, a, lda, b, ldb, c, ldc, accumulate);
    });
  }
}

}  // namespace kernels
}  // namespace nn
}  // namespace turl
