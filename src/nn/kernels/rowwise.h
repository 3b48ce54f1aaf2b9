#ifndef TURL_NN_KERNELS_ROWWISE_H_
#define TURL_NN_KERNELS_ROWWISE_H_

#include <cstdint>

namespace turl {
namespace nn {
namespace kernels {

/// Fused row kernels: each call makes a single pass over the matrix doing
/// all the per-row work (max/exp/normalize, moments/normalize, ...) so the
/// ops layer never materializes intermediate row statistics. Rows are
/// independent, so large matrices parallelize over row panels with bitwise
/// identical results at any thread count (see threading.h).
///
/// The softmax forward kernels and GeLU forward/backward share one 8-lane
/// AVX2/FMA exp (DESIGN.md §8). Each output is a function of its inputs
/// and, for softmax, of the row length only: never of its offset in the
/// buffer, the panel split or the thread count. The results are not bit-equal
/// to the libm loops in naive::, which pin them within a bound instead.

/// Row-wise softmax of x [m,n] into y (y == x allowed). Subtracts the row
/// max before exponentiating, so logits anywhere in float range stay
/// finite.
void SoftmaxRowsForward(const float* x, float* y, int64_t m, int64_t n);

/// In-place fused attention-score epilogue: scores[i,j] becomes
/// softmax_j(scores[i,j] * scale + mask[i,j]) for mask rows laid out with
/// stride n. `mask` may be null (plain scaled softmax).
void MaskedScaledSoftmaxRows(float* scores, const float* mask, float scale,
                             int64_t m, int64_t n);

/// Softmax backward: dx[i,j] += y[i,j] * (dy[i,j] - sum_j y[i,j]*dy[i,j]).
void SoftmaxRowsBackward(const float* y, const float* dy, float* dx,
                         int64_t m, int64_t n);

/// Softmax backward specialized for attention: overwrites d (dy on entry)
/// with scale * y * (dy - rowdot(y, dy)).
void SoftmaxGradInPlace(const float* y, float* d, float scale, int64_t m,
                        int64_t n);

/// Layer normalization forward over rows of x [m,n]:
/// y = gamma * (x - mu) / sqrt(var + eps) + beta. Also writes the
/// normalized activations to xhat [m,n] and 1/sqrt(var+eps) to inv_std [m]
/// for the backward pass. Row moments come from a single fused
/// sum/sum-of-squares pass.
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* y, float* xhat, float* inv_std,
                      int64_t m, int64_t n);

/// Layer normalization backward; accumulates into dx [m,n], dgamma [n] and
/// dbeta [n] (the reductions over rows keep dgamma/dbeta updates on the
/// caller thread — this kernel never parallelizes).
void LayerNormBackward(const float* dy, const float* gamma, const float* xhat,
                       const float* inv_std, float* dx, float* dgamma,
                       float* dbeta, int64_t m, int64_t n);

/// Elementwise activation family, fused forward/backward passes.
enum class Act { kGelu, kRelu, kTanh, kSigmoid };

void ActivationForward(Act act, const float* x, float* y, int64_t n);

/// dx[i] += dy[i] * act'(x[i]); tanh/sigmoid read the saved output y, the
/// others read the input x.
void ActivationBackward(Act act, const float* x, const float* y,
                        const float* dy, float* dx, int64_t n);

/// The libm loops the vector exp replaced, compiled without the kernel SIMD
/// flags (naive.cc). They are the accuracy oracle of the same-named kernels,
/// which run them in a build without AVX2/FMA; ReLU, tanh and sigmoid run
/// them in every build.
namespace naive {
void SoftmaxRowsForward(const float* x, float* y, int64_t m, int64_t n);
void MaskedScaledSoftmaxRows(float* scores, const float* mask, float scale,
                             int64_t m, int64_t n);
void ActivationForward(Act act, const float* x, float* y, int64_t n);
void ActivationBackward(Act act, const float* x, const float* y,
                        const float* dy, float* dx, int64_t n);
}  // namespace naive

}  // namespace kernels
}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_KERNELS_ROWWISE_H_
