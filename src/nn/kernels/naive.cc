// The scalar triple-loop GEMMs that the blocked kernels replaced, preserved
// verbatim (plus leading-dimension support) as the equivalence oracle for
// the kernels test suite and the baseline bench_micro_kernels measures
// speedups against, and the libm softmax and activation loops that the
// vector exp replaced, which are also what rowwise.cc runs in a build
// without AVX2/FMA. This TU deliberately never receives the kernel SIMD
// compile flags — it is "the current naive loops" of the pre-kernel ops.

#include <algorithm>
#include <cmath>

#include "nn/kernels/gemm.h"
#include "nn/kernels/gemv.h"
#include "nn/kernels/rowwise.h"

namespace turl {
namespace nn {
namespace kernels {
namespace naive {

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
            const float* b, int64_t ldb, float* c, int64_t ldc,
            bool accumulate) {
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.f);
  }
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.f) continue;
      const float* brow = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
            const float* b, int64_t ldb, float* c, int64_t ldc,
            bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float s = 0.f;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      if (accumulate) {
        crow[j] += s;
      } else {
        crow[j] = s;
      }
    }
  }
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
            const float* b, int64_t ldb, float* c, int64_t ldc,
            bool accumulate) {
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.f);
  }
  for (int64_t t = 0; t < k; ++t) {
    const float* arow = a + t * lda;
    const float* brow = b + t * ldb;
    for (int64_t r = 0; r < m; ++r) {
      const float av = arow[r];
      if (av == 0.f) continue;
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemvN(int64_t m, int64_t k, const float* a, int64_t lda, const float* x,
           float* y, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float s = 0.f;
    for (int64_t t = 0; t < k; ++t) s += arow[t] * x[t];
    if (accumulate) {
      y[i] += s;
    } else {
      y[i] = s;
    }
  }
}

void GemvT(int64_t k, int64_t n, const float* b, int64_t ldb, const float* x,
           int64_t incx, float* y, bool accumulate) {
  if (!accumulate) std::fill(y, y + n, 0.f);
  for (int64_t t = 0; t < k; ++t) {
    const float xv = x[t * incx];
    if (xv == 0.f) continue;
    const float* brow = b + t * ldb;
    for (int64_t j = 0; j < n; ++j) y[j] += xv * brow[j];
  }
}

void SoftmaxRowsForward(const float* x, float* y, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* row = x + i * n;
    float* out = y + i * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float sum = 0.f;
    for (int64_t j = 0; j < n; ++j) {
      const float e = std::exp(row[j] - mx);
      out[j] = e;
      sum += e;
    }
    const float inv = 1.f / sum;
    for (int64_t j = 0; j < n; ++j) out[j] *= inv;
  }
}

void MaskedScaledSoftmaxRows(float* scores, const float* mask, float scale,
                             int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* row = scores + i * n;
    if (mask != nullptr) {
      const float* mrow = mask + i * n;
      for (int64_t j = 0; j < n; ++j) row[j] = row[j] * scale + mrow[j];
    } else if (scale != 1.f) {
      for (int64_t j = 0; j < n; ++j) row[j] *= scale;
    }
    SoftmaxRowsForward(row, row, 1, n);
  }
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}  // namespace

void ActivationForward(Act act, const float* x, float* y, int64_t n) {
  switch (act) {
    case Act::kGelu:
      for (int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        const float inner = kGeluC * (v + 0.044715f * v * v * v);
        y[i] = 0.5f * v * (1.f + std::tanh(inner));
      }
      break;
    case Act::kRelu:
      for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.f ? x[i] : 0.f;
      break;
    case Act::kTanh:
      for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
      break;
    case Act::kSigmoid:
      for (int64_t i = 0; i < n; ++i) y[i] = 1.f / (1.f + std::exp(-x[i]));
      break;
  }
}

void ActivationBackward(Act act, const float* x, const float* y,
                        const float* dy, float* dx, int64_t n) {
  switch (act) {
    case Act::kGelu:
      for (int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        const float inner = kGeluC * (v + 0.044715f * v * v * v);
        const float t = std::tanh(inner);
        const float dinner = kGeluC * (1.f + 3.f * 0.044715f * v * v);
        const float d = 0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * dinner;
        dx[i] += dy[i] * d;
      }
      break;
    case Act::kRelu:
      for (int64_t i = 0; i < n; ++i) {
        if (x[i] > 0.f) dx[i] += dy[i];
      }
      break;
    case Act::kTanh:
      for (int64_t i = 0; i < n; ++i) dx[i] += dy[i] * (1.f - y[i] * y[i]);
      break;
    case Act::kSigmoid:
      for (int64_t i = 0; i < n; ++i) dx[i] += dy[i] * y[i] * (1.f - y[i]);
      break;
  }
}

}  // namespace naive
}  // namespace kernels
}  // namespace nn
}  // namespace turl
