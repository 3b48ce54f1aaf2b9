#include "core/model.h"

#include <algorithm>

#include "core/visibility.h"
#include "nn/kernels/arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace core {

TurlModel::TurlModel(const TurlConfig& config, int word_vocab_size,
                     int entity_vocab_size, uint64_t seed)
    : config_(config),
      word_vocab_size_(word_vocab_size),
      entity_vocab_size_(entity_vocab_size) {
  TURL_CHECK_GT(word_vocab_size, 0);
  TURL_CHECK_GT(entity_vocab_size, 0);
  Rng rng(seed);
  const int64_t d = config_.d_model;
  word_emb_ = std::make_unique<nn::Embedding>(&params_, "emb.word",
                                              word_vocab_size, d, &rng);
  position_emb_ = std::make_unique<nn::Embedding>(
      &params_, "emb.position", config_.max_position, d, &rng);
  segment_emb_ =
      std::make_unique<nn::Embedding>(&params_, "emb.segment", 2, d, &rng);
  role_emb_ =
      std::make_unique<nn::Embedding>(&params_, "emb.role", 3, d, &rng);
  entity_emb_ = std::make_unique<nn::Embedding>(&params_, "emb.entity",
                                                entity_vocab_size, d, &rng);
  entity_fuse_ =
      std::make_unique<nn::Linear>(&params_, "emb.fuse", 2 * d, d, &rng);
  emb_norm_ = std::make_unique<nn::LayerNorm>(&params_, "emb.norm", d);
  encoder_ = std::make_unique<nn::TransformerEncoder>(
      &params_, "encoder", config_.num_layers, d, config_.d_intermediate,
      config_.num_heads, &rng);
  mlm_head_ = std::make_unique<nn::Linear>(&params_, "head.mlm", d, d, &rng);
  mer_head_ = std::make_unique<nn::Linear>(&params_, "head.mer", d, d, &rng);
}

nn::Tensor TurlModel::Encode(const EncodedTable& input, bool training,
                             Rng* rng) const {
  TURL_CHECK_GT(input.total(), 0);
  // Randomness is explicitly per-call: a shared const model has no hidden
  // Rng, so this is the only place dropout noise can come from.
  TURL_CHECK(!training || rng != nullptr)
      << "training Encode requires a caller-provided Rng";
  TURL_TRACE_SCOPE("model.encode");
  static obs::Counter* encodes =
      obs::MetricsRegistry::Get().GetCounter("model.encodes");
  encodes->Inc();
  // All intermediates built while encoding lease their buffers from the
  // per-thread kernel arena; they recycle when the tape is severed, so a
  // steady-state step does O(1) fresh heap allocations.
  nn::kernels::ArenaScope arena;
  std::vector<nn::Tensor> parts;

  if (input.num_tokens() > 0) {
    // Clamp positions into the embedding table.
    std::vector<int> positions = input.token_position;
    for (int& p : positions) {
      p = std::min(p, static_cast<int>(config_.max_position) - 1);
    }
    nn::Tensor xt = nn::Add(
        nn::Add(word_emb_->Forward(input.token_ids),
                segment_emb_->Forward(input.token_segment)),
        position_emb_->Forward(positions));
    parts.push_back(xt);
  }

  if (input.num_entities() > 0) {
    nn::Tensor ee = entity_emb_->Forward(input.entity_ids);
    nn::Tensor em = nn::BagMean(word_emb_->weight(), input.entity_mentions);
    nn::Tensor fused = entity_fuse_->Forward(nn::ConcatCols(ee, em));
    nn::Tensor xe = nn::Add(fused, role_emb_->Forward(input.entity_role));
    parts.push_back(xe);
  }

  nn::Tensor x = parts.size() == 1 ? parts[0] : nn::ConcatRows(parts);
  x = emb_norm_->Forward(x);
  x = nn::Dropout(x, config_.dropout, training, rng);

  std::vector<float> mask;
  {
    TURL_TRACE_SCOPE("model.visibility_mask");
    mask = BuildVisibilityMask(input, config_.use_visibility_matrix);
  }
  TURL_TRACE_SCOPE("model.encoder_stack");
  return encoder_->Forward(x, mask, config_.dropout, training, rng);
}

nn::Tensor TurlModel::MlmLogits(const nn::Tensor& hidden,
                                const std::vector<int>& rows,
                                Scoring scoring) const {
  TURL_CHECK(!rows.empty());
  TURL_TRACE_SCOPE("model.mlm_logits");
  nn::kernels::ArenaScope arena;
  nn::Tensor projected = mlm_head_->Forward(nn::SelectRows(hidden, rows));
  if (scoring == Scoring::kServe && nn::kernels::QuantScoringEnabled()) {
    const nn::Tensor& w = word_emb_->weight();
    const nn::kernels::QuantizedMatrix& q =
        word_quant_.Get(w.data(), w.dim(0), w.dim(1), w.dim(1), 1);
    const int64_t r = projected.dim(0);
    const int64_t v = w.dim(0);
    std::vector<float> out(static_cast<size_t>(r * v));
    for (int64_t i = 0; i < r; ++i) {
      nn::kernels::QuantizedScore(q, projected.data() + i * projected.dim(1),
                                  out.data() + i * v);
    }
    return nn::Tensor::FromVector({r, v}, std::move(out));
  }
  return nn::MatMulNT(projected, word_emb_->weight());
}

nn::Tensor TurlModel::MerLogits(const nn::Tensor& hidden,
                                const std::vector<int>& rows,
                                const std::vector<int>& candidates,
                                Scoring scoring) const {
  TURL_CHECK(!rows.empty());
  TURL_TRACE_SCOPE("model.mer_logits");
  TURL_CHECK(!candidates.empty());
  nn::kernels::ArenaScope arena;
  nn::Tensor projected = mer_head_->Forward(nn::SelectRows(hidden, rows));
  if (scoring == Scoring::kServe && nn::kernels::QuantScoringEnabled()) {
    // Score only the candidate rows of the full-table pack: the pack builds
    // once per model load, not once per candidate set.
    const nn::Tensor& w = entity_emb_->weight();
    const nn::kernels::QuantizedMatrix& q =
        entity_quant_.Get(w.data(), w.dim(0), w.dim(1), w.dim(1), 1);
    const int64_t r = projected.dim(0);
    const int64_t n = static_cast<int64_t>(candidates.size());
    std::vector<float> out(static_cast<size_t>(r * n));
    for (int64_t i = 0; i < r; ++i) {
      nn::kernels::QuantizedScoreRows(q, candidates.data(), n,
                                      projected.data() + i * projected.dim(1),
                                      out.data() + i * n);
    }
    return nn::Tensor::FromVector({r, n}, std::move(out));
  }
  nn::Tensor cand_emb = entity_emb_->Forward(candidates);
  return nn::MatMulNT(projected, cand_emb);
}

void TurlModel::InvalidateQuantizedScoring() const {
  word_quant_.Invalidate();
  entity_quant_.Invalidate();
}

nn::Tensor TurlModel::MerProject(const nn::Tensor& hidden,
                                 const std::vector<int>& rows) const {
  TURL_CHECK(!rows.empty());
  return mer_head_->Forward(nn::SelectRows(hidden, rows));
}

}  // namespace core
}  // namespace turl
