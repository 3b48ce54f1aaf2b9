#ifndef TURL_NN_MODULE_H_
#define TURL_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace turl {
namespace nn {

/// Flat registry of named trainable parameters. Modules register their
/// tensors here at construction; the optimizer and the checkpoint code
/// iterate the registry. Names are hierarchical ("encoder.layer0.attn.wq").
class ParamStore {
 public:
  ParamStore() = default;
  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  /// Registers `t` under `name` (must be unique) with requires_grad set.
  /// Returns the same tensor for chaining.
  Tensor Register(const std::string& name, Tensor t);

  /// Creates and registers a parameter initialized with N(0, stddev).
  Tensor CreateNormal(const std::string& name, Shape shape, float stddev,
                      Rng* rng);

  /// Creates and registers a zero-initialized parameter.
  Tensor CreateZeros(const std::string& name, Shape shape);

  /// Creates and registers a constant-filled parameter.
  Tensor CreateFull(const std::string& name, Shape shape, float value);

  /// Lookup by name; fatal if absent.
  Tensor Get(const std::string& name) const;
  bool Contains(const std::string& name) const;

  const std::vector<std::pair<std::string, Tensor>>& params() const {
    return params_;
  }

  /// Total number of scalar parameters.
  int64_t TotalParameters() const;

  /// Zeroes every parameter gradient.
  void ZeroGrad();

 private:
  std::vector<std::pair<std::string, Tensor>> params_;
};

/// Affine layer y = x W + b with W [in, out], b [out].
class Linear {
 public:
  /// Registers "<prefix>.weight"/"<prefix>.bias" in `store`.
  Linear(ParamStore* store, const std::string& prefix, int64_t in_dim,
         int64_t out_dim, Rng* rng);

  Tensor Forward(const Tensor& x) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Tensor weight_;
  Tensor bias_;
};

/// Embedding table [vocab, dim] with row lookup.
class Embedding {
 public:
  Embedding(ParamStore* store, const std::string& prefix, int64_t vocab,
            int64_t dim, Rng* rng);

  /// Gathers rows for `ids` -> [ids.size(), dim].
  Tensor Forward(const std::vector<int>& ids) const;

  const Tensor& weight() const { return weight_; }
  int64_t vocab_size() const { return weight_.dim(0); }
  int64_t dim() const { return weight_.dim(1); }

 private:
  Tensor weight_;
};

/// Learned layer normalization over the last dimension.
class LayerNorm {
 public:
  LayerNorm(ParamStore* store, const std::string& prefix, int64_t dim);

  Tensor Forward(const Tensor& x) const;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// One pre-norm-free (post-norm, as in BERT) Transformer encoder block:
/// masked multi-head self-attention + residual + LayerNorm, then a
/// position-wise feed-forward (Linear -> GELU -> Linear) + residual +
/// LayerNorm. The additive attention mask carries the visibility matrix.
class TransformerLayer {
 public:
  TransformerLayer(ParamStore* store, const std::string& prefix,
                   int64_t d_model, int64_t d_intermediate, int num_heads,
                   Rng* rng);

  /// x: [n, d_model]; additive_mask: n*n row-major additive attention mask.
  Tensor Forward(const Tensor& x, const std::vector<float>& additive_mask,
                 float dropout_p, bool training, Rng* rng) const;

  int num_heads() const { return num_heads_; }

 private:
  int num_heads_;
  Linear wq_, wk_, wv_, wo_;
  Linear ff1_, ff2_;
  LayerNorm ln_attn_, ln_ff_;
};

/// Stack of N TransformerLayers sharing one visibility mask.
class TransformerEncoder {
 public:
  TransformerEncoder(ParamStore* store, const std::string& prefix,
                     int num_layers, int64_t d_model, int64_t d_intermediate,
                     int num_heads, Rng* rng);

  Tensor Forward(const Tensor& x, const std::vector<float>& additive_mask,
                 float dropout_p, bool training, Rng* rng) const;

  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<TransformerLayer> layers_;
};

}  // namespace nn
}  // namespace turl

#endif  // TURL_NN_MODULE_H_
