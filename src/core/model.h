#ifndef TURL_CORE_MODEL_H_
#define TURL_CORE_MODEL_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/table_encoding.h"
#include "nn/kernels/quant.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "util/rng.h"
#include "util/status.h"

namespace turl {
namespace core {

/// Which implementation a scoring call (MlmLogits / MerLogits) takes.
///
/// kTrain runs the fp32 MatMul — always safe, the default, and required
/// whenever gradients flow through the logits. Whether it records a tape is
/// up to the caller: not inside an nn::NoGradScope (which every inference
/// path opens), yes otherwise. kServe declares the call inference-only:
/// when TURL_QUANT_SCORING=1 the vocabulary/candidate dot products run
/// against a cached per-row int8 quantization of the embedding table and
/// the result is a leaf tensor with no tape behind it. With the knob off
/// (default), kServe is identical to kTrain, so callers can pass it
/// unconditionally on inference paths.
enum class Scoring {
  kTrain,
  kServe,
};

/// The TURL model (Figure 2): an embedding layer fusing table components
/// (Eqns. 1-3), a structure-aware Transformer encoder with the visibility
/// matrix as attention mask (Eqn. 4), and projection heads for the MLM
/// (Eqn. 5) and MER (Eqn. 6) objectives. The same instance is fine-tuned by
/// every downstream task; tasks add their own heads on top of Encode().
class TurlModel {
 public:
  /// Builds a randomly initialized model. `word_vocab_size` counts WordPiece
  /// tokens, `entity_vocab_size` counts model entity ids (specials
  /// included). `seed` controls initialization.
  TurlModel(const TurlConfig& config, int word_vocab_size,
            int entity_vocab_size, uint64_t seed);

  TurlModel(const TurlModel&) = delete;
  TurlModel& operator=(const TurlModel&) = delete;

  /// Runs the embedding layer + encoder; returns contextualized
  /// representations [input.total(), d_model]. Token rows come first, then
  /// entity rows (row of entity i = input.num_tokens() + i). With
  /// `training` false the forward runs inside an nn::NoGradScope: it records
  /// no tape, and the result is bit-identical to a training forward with
  /// dropout 0 but cannot be backpropagated.
  ///
  /// Thread-safety / Rng contract: Encode never mutates the model — all
  /// randomness (dropout) is drawn from the caller-provided `rng`, so
  /// concurrent Encode calls on one shared const model are safe as long as
  /// each call gets its own Rng. `rng` may be null when `training` is false
  /// (inference consumes no randomness); training with a null rng is a
  /// checked fatal error.
  nn::Tensor Encode(const EncodedTable& input, bool training,
                    Rng* rng = nullptr) const;

  /// Checks that `input` fits this model, for tables that arrive from
  /// outside the process (the serve protocol): sibling arrays agree in
  /// length; token and mention ids are in [0, word_vocab); segments are 0
  /// or 1 and positions >= 0; entity ids are in [0, entity_vocab) and roles
  /// in [0, 3); a header token's column and a cell's row and column are
  /// >= 0, and -1 where the element has none (caption token, topic
  /// entity); and 0 < total() <= 4096, which bounds each n x n buffer of a
  /// forward at 64 MiB. Encode's own checks abort the process instead.
  Status ValidateInput(const EncodedTable& input) const;

  /// Hidden-state row of entity element `entity_index`.
  static int EntityHiddenRow(const EncodedTable& input, int entity_index) {
    return input.num_tokens() + entity_index;
  }

  /// MLM head: logits over the full word vocabulary for the given hidden
  /// rows -> [rows.size(), word_vocab].  P(w) ∝ exp(LINEAR(h_t) · w).
  nn::Tensor MlmLogits(const nn::Tensor& hidden, const std::vector<int>& rows,
                       Scoring scoring = Scoring::kTrain) const;

  /// MER head: logits over `candidates` (model entity ids) for the given
  /// hidden rows -> [rows.size(), candidates.size()].
  /// P(e) ∝ exp(LINEAR(h_e) · e^e), restricted to the candidate set.
  nn::Tensor MerLogits(const nn::Tensor& hidden, const std::vector<int>& rows,
                       const std::vector<int>& candidates,
                       Scoring scoring = Scoring::kTrain) const;

  /// Drops the cached int8 packs of the word/entity embedding tables. Must
  /// be called whenever the underlying weights change outside the model's
  /// own control — after loading a checkpoint, after a training phase — or
  /// kServe scoring would keep scoring against stale weights.
  void InvalidateQuantizedScoring() const;

  /// The MER projection LINEAR(h_e) alone -> [rows.size(), d_model]; tasks
  /// that score against non-entity representations (entity linking against
  /// KB descriptions) reuse it.
  nn::Tensor MerProject(const nn::Tensor& hidden,
                        const std::vector<int>& rows) const;

  const TurlConfig& config() const { return config_; }
  nn::ParamStore* params() { return &params_; }
  const nn::ParamStore& params() const { return params_; }

  const nn::Embedding& word_embedding() const { return *word_emb_; }
  const nn::Embedding& entity_embedding() const { return *entity_emb_; }
  int word_vocab_size() const { return word_vocab_size_; }
  int entity_vocab_size() const { return entity_vocab_size_; }

 private:
  TurlConfig config_;
  int word_vocab_size_;
  int entity_vocab_size_;
  nn::ParamStore params_;
  std::unique_ptr<nn::Embedding> word_emb_;
  std::unique_ptr<nn::Embedding> position_emb_;
  std::unique_ptr<nn::Embedding> segment_emb_;   ///< Token type embedding t.
  std::unique_ptr<nn::Embedding> role_emb_;      ///< Entity type embedding t_e.
  std::unique_ptr<nn::Embedding> entity_emb_;    ///< Entity embeddings e^e.
  std::unique_ptr<nn::Linear> entity_fuse_;      ///< LINEAR([e^e; e^m]).
  std::unique_ptr<nn::LayerNorm> emb_norm_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::unique_ptr<nn::Linear> mlm_head_;
  std::unique_ptr<nn::Linear> mer_head_;
  /// Lazily built int8 packs of the word/entity embedding tables for
  /// Scoring::kServe; mutable because packing is a pure cache of const
  /// weights (invalidated explicitly when those weights change).
  mutable nn::kernels::QuantCache word_quant_;
  mutable nn::kernels::QuantCache entity_quant_;
};

}  // namespace core
}  // namespace turl

#endif  // TURL_CORE_MODEL_H_
