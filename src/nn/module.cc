#include "nn/module.h"

#include <cmath>

#include "util/logging.h"

namespace turl {
namespace nn {

Tensor ParamStore::Register(const std::string& name, Tensor t) {
  TURL_CHECK(!Contains(name)) << "duplicate parameter: " << name;
  t.set_requires_grad(true);
  params_.emplace_back(name, t);
  return t;
}

Tensor ParamStore::CreateNormal(const std::string& name, Shape shape,
                                float stddev, Rng* rng) {
  Tensor t = Tensor::Zeros(std::move(shape));
  float* d = t.data();
  for (int64_t i = 0; i < t.numel(); ++i)
    d[i] = static_cast<float>(rng->Normal(0.0, stddev));
  return Register(name, t);
}

Tensor ParamStore::CreateZeros(const std::string& name, Shape shape) {
  return Register(name, Tensor::Zeros(std::move(shape)));
}

Tensor ParamStore::CreateFull(const std::string& name, Shape shape,
                              float value) {
  return Register(name, Tensor::Full(std::move(shape), value));
}

Tensor ParamStore::Get(const std::string& name) const {
  for (const auto& [n, t] : params_) {
    if (n == name) return t;
  }
  TURL_LOG(Fatal) << "parameter not found: " << name;
  return Tensor();
}

bool ParamStore::Contains(const std::string& name) const {
  for (const auto& [n, t] : params_) {
    if (n == name) return true;
  }
  return false;
}

int64_t ParamStore::TotalParameters() const {
  int64_t total = 0;
  for (const auto& [n, t] : params_) total += t.numel();
  return total;
}

void ParamStore::ZeroGrad() {
  for (auto& [n, t] : params_) t.ZeroGrad();
}

Linear::Linear(ParamStore* store, const std::string& prefix, int64_t in_dim,
               int64_t out_dim, Rng* rng)
    // Xavier-style scale keeps activations stable without pre-training.
    : weight_(store->CreateNormal(prefix + ".weight", {in_dim, out_dim},
                                  std::sqrt(2.f / float(in_dim + out_dim)),
                                  rng)),
      bias_(store->CreateZeros(prefix + ".bias", {out_dim})) {}

Tensor Linear::Forward(const Tensor& x) const {
  return AddBias(MatMul(x, weight_), bias_);
}

Embedding::Embedding(ParamStore* store, const std::string& prefix,
                     int64_t vocab, int64_t dim, Rng* rng)
    : weight_(store->CreateNormal(prefix + ".weight", {vocab, dim}, 0.02f,
                                  rng)) {}

Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return EmbeddingLookup(weight_, ids);
}

LayerNorm::LayerNorm(ParamStore* store, const std::string& prefix, int64_t dim)
    : gamma_(store->CreateFull(prefix + ".gamma", {dim}, 1.f)),
      beta_(store->CreateZeros(prefix + ".beta", {dim})) {}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return LayerNormOp(x, gamma_, beta_);
}

TransformerLayer::TransformerLayer(ParamStore* store, const std::string& prefix,
                                   int64_t d_model, int64_t d_intermediate,
                                   int num_heads, Rng* rng)
    : num_heads_(num_heads),
      wq_(store, prefix + ".attn.wq", d_model, d_model, rng),
      wk_(store, prefix + ".attn.wk", d_model, d_model, rng),
      wv_(store, prefix + ".attn.wv", d_model, d_model, rng),
      wo_(store, prefix + ".attn.wo", d_model, d_model, rng),
      ff1_(store, prefix + ".ff.fc1", d_model, d_intermediate, rng),
      ff2_(store, prefix + ".ff.fc2", d_intermediate, d_model, rng),
      ln_attn_(store, prefix + ".ln_attn", d_model),
      ln_ff_(store, prefix + ".ln_ff", d_model) {
  TURL_CHECK_EQ(d_model % num_heads, 0);
}

Tensor TransformerLayer::Forward(const Tensor& x,
                                 const std::vector<float>& additive_mask,
                                 float dropout_p, bool training,
                                 Rng* rng) const {
  Tensor q = wq_.Forward(x);
  Tensor k = wk_.Forward(x);
  Tensor v = wv_.Forward(x);
  Tensor attn = MultiHeadAttention(q, k, v, additive_mask, num_heads_);
  attn = wo_.Forward(attn);
  attn = Dropout(attn, dropout_p, training, rng);
  Tensor h = ln_attn_.Forward(Add(x, attn));

  Tensor ff = ff2_.Forward(Gelu(ff1_.Forward(h)));
  ff = Dropout(ff, dropout_p, training, rng);
  return ln_ff_.Forward(Add(h, ff));
}

TransformerEncoder::TransformerEncoder(ParamStore* store,
                                       const std::string& prefix,
                                       int num_layers, int64_t d_model,
                                       int64_t d_intermediate, int num_heads,
                                       Rng* rng) {
  layers_.reserve(static_cast<size_t>(num_layers));
  for (int i = 0; i < num_layers; ++i) {
    layers_.emplace_back(store, prefix + ".layer" + std::to_string(i), d_model,
                         d_intermediate, num_heads, rng);
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x,
                                   const std::vector<float>& additive_mask,
                                   float dropout_p, bool training,
                                   Rng* rng) const {
  Tensor h = x;
  for (const auto& layer : layers_) {
    h = layer.Forward(h, additive_mask, dropout_p, training, rng);
  }
  return h;
}

}  // namespace nn
}  // namespace turl
