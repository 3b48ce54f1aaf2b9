#include "core/model.h"

#include <algorithm>
#include <optional>
#include <string>

#include "core/visibility.h"
#include "nn/kernels/arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace core {

namespace {

/// ValidateInput's bound on EncodedTable::total(). A forward builds n x n
/// float buffers (the visibility mask, the attention scores), and at 4096
/// elements each one is already 64 MiB.
constexpr size_t kMaxInputElements = 4096;

/// ValidateInput's error: "field[i] = value why".
Status Bad(const char* field, size_t i, int value, const char* why) {
  return Status::InvalidArgument(std::string(field) + "[" +
                                 std::to_string(i) + "] = " +
                                 std::to_string(value) + " " + why);
}

bool InRange(int value, int lo, int hi) { return value >= lo && value < hi; }

/// A row or column is -1 where the element has none, and >= 0 where it has.
bool CoordinateFits(int value, bool has_coordinate) {
  return has_coordinate ? value >= 0 : value == -1;
}

}  // namespace

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
  // steady-state step does O(1) fresh heap allocations. Inference records
  // no tape, so there each one recycles as soon as the next op consumed it.
  nn::kernels::ArenaScope arena;
  std::optional<nn::NoGradScope> no_grad;
  if (!training) no_grad.emplace();
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

Status TurlModel::ValidateInput(const EncodedTable& input) const {
  const size_t nt = input.token_ids.size();
  const size_t ne = input.entity_ids.size();
  if (input.token_segment.size() != nt || input.token_position.size() != nt ||
      input.token_column.size() != nt || input.entity_role.size() != ne ||
      input.entity_row.size() != ne || input.entity_column.size() != ne ||
      input.entity_mentions.size() != ne) {
    return Status::InvalidArgument("element arrays disagree in length");
  }
  if (nt + ne == 0) return Status::InvalidArgument("empty table");
  if (nt + ne > kMaxInputElements) {
    return Status::InvalidArgument(
        std::to_string(nt + ne) + " elements exceed the bound of " +
        std::to_string(kMaxInputElements));
  }
  for (size_t i = 0; i < nt; ++i) {
    const int segment = input.token_segment[i];
    if (!InRange(input.token_ids[i], 0, word_vocab_size_)) {
      return Bad("token_ids", i, input.token_ids[i], "is not a word id");
    }
    if (!InRange(segment, 0, 2)) {
      return Bad("token_segment", i, segment, "is not 0 or 1");
    }
    if (input.token_position[i] < 0) {
      return Bad("token_position", i, input.token_position[i], "is negative");
    }
    if (!CoordinateFits(input.token_column[i], segment == kSegmentHeader)) {
      return Bad("token_column", i, input.token_column[i],
                 "does not fit the segment");
    }
  }
  for (size_t i = 0; i < ne; ++i) {
    const int role = input.entity_role[i];
    if (!InRange(input.entity_ids[i], 0, entity_vocab_size_)) {
      return Bad("entity_ids", i, input.entity_ids[i], "is not an entity id");
    }
    if (!InRange(role, 0, 3)) return Bad("entity_role", i, role, "is not 0-2");
    if (!CoordinateFits(input.entity_row[i], role != kRoleTopic)) {
      return Bad("entity_row", i, input.entity_row[i], "does not fit the role");
    }
    if (!CoordinateFits(input.entity_column[i], role != kRoleTopic)) {
      return Bad("entity_column", i, input.entity_column[i],
                 "does not fit the role");
    }
    for (int id : input.entity_mentions[i]) {
      if (!InRange(id, 0, word_vocab_size_)) {
        return Bad("entity_mentions", i, id, "is not a word id");
      }
    }
  }
  return Status::OK();
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
