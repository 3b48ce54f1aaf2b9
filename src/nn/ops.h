#ifndef TURL_NN_OPS_H_
#define TURL_NN_OPS_H_

#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace turl {
namespace nn {

/// Differentiable operations. Every op validates shapes with TURL_CHECK and
/// returns a fresh tensor. Outside a NoGradScope that tensor is wired into
/// the autograd DAG and the op accumulates gradients into its inputs during
/// Tensor::Backward(); inside one it records no tape (see NoGradScope in
/// tensor.h). Tensors are rank-2 matrices [rows, cols] unless stated
/// otherwise; scalars are shape [1].

/// Elementwise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s for a compile-time constant scalar s (no gradient w.r.t. s).
Tensor Scale(const Tensor& a, float s);

/// x [m,n] + row-broadcast bias b [n].
Tensor AddBias(const Tensor& x, const Tensor& b);

/// Matrix product A [m,k] x B [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// A [m,k] x B^T for B [n,k] -> [m,n]. Used for scoring against embedding
/// rows without materializing a transpose.
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// GELU activation (tanh approximation, as used by BERT).
Tensor Gelu(const Tensor& x);

/// ReLU activation.
Tensor Relu(const Tensor& x);

/// tanh activation.
Tensor TanhOp(const Tensor& x);

/// Logistic sigmoid.
Tensor SigmoidOp(const Tensor& x);

/// Row-wise layer normalization with learned gain/bias:
/// y = gamma * (x - mu) / sqrt(var + eps) + beta, per row of x [m,n];
/// gamma and beta are [n].
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

/// Gathers rows of `weight` [V,d] at `ids` -> [ids.size(), d]. Gradient
/// scatter-adds into the gathered rows. ids must be in [0, V).
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids);

/// Concatenates along columns: a [m,p], b [m,q] -> [m,p+q].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Concatenates along rows; all inputs share the column count.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Gathers rows of x at `rows` -> [rows.size(), d].
Tensor SelectRows(const Tensor& x, const std::vector<int>& rows);

/// Mean of the selected rows of x -> [1, d]. `rows` must be non-empty.
Tensor RowsMean(const Tensor& x, const std::vector<int>& rows);

/// For each bag of row indices into `weight` [V,d], the mean of those rows
/// -> [bags.size(), d]. Empty bags produce zero rows (and receive no
/// gradient). This is the fused "average word embeddings of a mention"
/// operation (Eqn. 3 of the paper), cheaper than per-bag RowsMean chains.
Tensor BagMean(const Tensor& weight, const std::vector<std::vector<int>>& bags);

/// Row-wise softmax (differentiable); used by inference-time rankers.
Tensor SoftmaxRows(const Tensor& x);

/// Structure-aware scaled dot-product multi-head attention (Eqn. 4 of the
/// paper). q, k, v are post-projection [n, d] with d divisible by
/// `num_heads`. `additive_mask` has n*n entries, row-major: 0 where
/// element j is visible to element i and a large negative value (e.g. -1e9)
/// where it is masked — exactly the visibility matrix M rendered additively.
/// Returns the concatenated head outputs [n, d] (before the output
/// projection, which callers apply as a Linear).
Tensor MultiHeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const std::vector<float>& additive_mask,
                          int num_heads);

/// Inverted dropout: at train time zeroes entries with probability p and
/// scales survivors by 1/(1-p); identity at eval time or when p == 0.
Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng);

/// Mean softmax cross-entropy over rows: logits [m,C], targets m class ids.
/// Rows whose target is `ignore_index` contribute nothing; the mean divides
/// by the number of non-ignored rows (loss is 0 if all rows are ignored).
Tensor SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                           int ignore_index = -1);

/// Mean binary cross-entropy with logits over every element of `logits`
/// (any shape); `targets` are 0/1 (or soft) labels, flat, same numel.
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets);

/// Sum of all elements -> scalar.
Tensor SumAll(const Tensor& x);

/// Mean of all elements -> scalar.
Tensor MeanAll(const Tensor& x);

}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_OPS_H_
