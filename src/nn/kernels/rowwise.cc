#include "nn/kernels/rowwise.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/threading.h"
#include "obs/trace.h"

namespace turl {
namespace nn {
namespace kernels {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
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

void SoftmaxRowInPlace(float* row, int64_t n) {
  float mx = row[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float sum = 0.f;
  for (int64_t j = 0; j < n; ++j) {
    const float e = std::exp(row[j] - mx);
    row[j] = e;
    sum += e;
  }
  const float inv = 1.f / sum;
  for (int64_t j = 0; j < n; ++j) row[j] *= inv;
}

}  // namespace

void SoftmaxRowsForward(const float* x, float* y, int64_t m, int64_t n) {
  TURL_TRACE_SCOPE("kernel.softmax");
  ForEachRowPanel(m, n, [&](int64_t i) {
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
  });
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
    SoftmaxRowInPlace(row, n);
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

}  // namespace kernels
}  // namespace nn
}  // namespace turl
