#ifndef TURL_TASKS_COMMON_H_
#define TURL_TASKS_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/model.h"
#include "core/table_encoding.h"
#include "nn/optim.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace turl {
namespace rt {
/// Batched inference runtime (src/rt/); heads only name it in session-aware
/// Evaluate overloads, so a forward declaration keeps task headers light.
class InferenceSession;
}  // namespace rt

namespace tasks {

/// Input-ablation switches shared by the fine-tuning variants in Tables 4-7:
/// which parts of the encoded table the model may see.
struct InputVariant {
  bool use_metadata = true;    ///< Caption + header tokens.
  bool use_entity_ids = true;  ///< Pre-trained entity embeddings e^e.
  bool use_mentions = true;    ///< Entity mention text e^m.
  bool use_entities = true;    ///< Entity elements at all.

  /// Table 5 rows.
  static InputVariant Full() { return {}; }
  static InputVariant OnlyEntityMention() {
    return {.use_metadata = false, .use_entity_ids = false};
  }
  static InputVariant WithoutMetadata() { return {.use_metadata = false}; }
  static InputVariant WithoutLearnedEmbedding() {
    return {.use_entity_ids = false};
  }
  static InputVariant OnlyMetadata() { return {.use_entities = false}; }
  static InputVariant OnlyLearnedEmbedding() {
    return {.use_metadata = false, .use_mentions = false};
  }
};

/// Shared fine-tuning knobs. The paper fine-tunes for 10 epochs (50 for
/// schema augmentation); repro defaults are smaller and benches print what
/// they used.
struct FinetuneOptions {
  int epochs = 3;
  float lr = 5e-4f;
  /// Cap on distinct training tables used per epoch (0 = all).
  int max_tables = 0;
  uint64_t seed = 17;
  float grad_clip = 1.0f;
  /// Extra telemetry sink for this run's per-epoch TrainRecords; the global
  /// obs::TelemetryHub always receives them.
  obs::MetricsSink* sink = nullptr;

  /// Crash-safe epoch-boundary checkpointing (turl::ckpt). Non-empty
  /// enables it; a killed run resumed from this directory continues with
  /// bit-identical weights (the fingerprint excludes `epochs`, so extending
  /// a finished run — epochs=1 then resume with epochs=2 — equals the
  /// uninterrupted epochs=2 run).
  std::string ckpt_dir;
  /// Save after every this many completed epochs (0 = never).
  int save_every = 1;
  /// Checkpoints retained in ckpt_dir.
  int keep_last = 2;
  /// Resume from the newest valid checkpoint in ckpt_dir when one exists.
  bool resume = true;
};

/// Epoch-granular checkpointing shared by the task fine-tune loops. Binds
/// the loop's live stores/optimizers/RNG plus its shuffled visit order, and
/// wraps ckpt::CheckpointManager's save/retention/fallback behind two calls:
/// Resume() before the epoch loop and OnEpochEnd() after each epoch.
/// Inactive (every method a no-op returning "start fresh") when
/// options.ckpt_dir is empty.
class FinetuneCheckpointer {
 public:
  /// `stores`/`optims`/`rng`/`order` bind live loop objects that must
  /// outlive the checkpointer; `order` is the loop's shuffle vector (may be
  /// null for loops without one). `phase` names the task (e.g.
  /// "column_type") and scopes the config fingerprint.
  FinetuneCheckpointer(
      const FinetuneOptions& options, const std::string& phase,
      std::vector<std::pair<std::string, nn::ParamStore*>> stores,
      std::vector<std::pair<std::string, nn::Adam*>> optims, Rng* rng,
      std::vector<size_t>* order);
  ~FinetuneCheckpointer();

  /// Restores the newest valid checkpoint (params, moments, RNG, order) and
  /// returns the epoch to start from; 0 with nothing restored. Writes the
  /// restored global step through `global_step` when non-null.
  int Resume(int64_t* global_step = nullptr);

  /// Saves after `completed_epoch` (0-based) finished, respecting
  /// save_every/keep_last. `global_step` is persisted for loops that keep a
  /// step counter across epochs.
  void OnEpochEnd(int completed_epoch, int64_t global_step = 0);

  bool active() const { return manager_ != nullptr; }

 private:
  ckpt::TrainState Bind() const;

  std::unique_ptr<ckpt::CheckpointManager> manager_;
  std::vector<std::pair<std::string, nn::ParamStore*>> stores_;
  std::vector<std::pair<std::string, nn::Adam*>> optims_;
  Rng* rng_ = nullptr;
  std::vector<size_t>* order_ = nullptr;
  std::string fingerprint_;
  int save_every_ = 0;
  bool resume_ = false;
};

/// One fine-tune optimizer step shared by the task heads: zeroes every
/// store's gradients, backpropagates `loss` (on the TURL_TRAIN_THREADS
/// task-graph tape executor when that is > 1 — bit-identical to the
/// sequential tape at any thread count, see DESIGN.md §13), then for each
/// store in the given order clips its gradient norm to `grad_clip` (per
/// store, the historical behavior) and steps its optimizer, both inside
/// Adam::Step. Returns the Euclidean combination of the per-store pre-clip
/// norms — the single global-health number the telemetry records.
double FinetuneStep(
    nn::Tensor loss, float grad_clip,
    std::initializer_list<std::pair<nn::ParamStore*, nn::Adam*>> items);

/// Replaces every entity id with [UNK_ENT] (drops the learned embeddings).
void StripEntityIds(core::EncodedTable* table);

/// Drops every entity mention (e^m becomes the zero vector).
void StripMentions(core::EncodedTable* table);

/// Applies a variant to an already-encoded table. `use_metadata=false` and
/// `use_entities=false` must instead be applied at EncodeTable time via
/// EncodeOptions; this helper handles the id/mention stripping and checks
/// the other two flags were already honored.
void ApplyVariant(const InputVariant& variant, core::EncodedTable* table);

/// EncodeOptions matching a variant's structural flags.
core::EncodeOptions EncodeOptionsFor(const InputVariant& variant);

/// The column aggregate h_c of Eqn. 9 for `column`: the concatenation of
/// the mean header-token state and the mean entity-cell state of that
/// column -> [1, 2*d_model]. Either half falls back to zeros when the
/// variant removed its elements (e.g. the "only metadata" row).
nn::Tensor ColumnHidden(const nn::Tensor& hidden,
                        const core::EncodedTable& encoded, int column,
                        int64_t d_model);

/// Int8 scoring of one feature row against a Linear head (DESIGN.md §8,
/// TURL_QUANT_SCORING=1). The head weight W [in, out] is packed per OUTPUT
/// unit through `cache` (pack row i = W[:, i]); the bias adds in fp32.
/// `features` must be [1, in]. Returns all `out` logits. Callers own cache
/// invalidation: call cache->Invalidate() whenever the head retrains.
std::vector<float> QuantizedHeadLogits(nn::kernels::QuantCache* cache,
                                       const nn::Linear& head,
                                       const nn::Tensor& features);

/// Int8 scoring of one projected row `x` ([1, d]) against every row of an
/// embedding-style table ([n, d]) -> n logits (no bias). The pack caches in
/// `cache`; same invalidation contract as QuantizedHeadLogits.
std::vector<float> QuantizedEmbeddingScores(nn::kernels::QuantCache* cache,
                                            const nn::Tensor& table,
                                            const nn::Tensor& x);

}  // namespace tasks
}  // namespace turl

#endif  // TURL_TASKS_COMMON_H_
