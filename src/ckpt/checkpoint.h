#ifndef TURL_CKPT_CHECKPOINT_H_
#define TURL_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "nn/optim.h"
#include "util/rng.h"
#include "util/status.h"

namespace turl {
namespace ckpt {

/// Everything a training loop needs persisted to resume bit-identically:
/// the parameter stores, the optimizer moments, the RNG stream, and the
/// data cursor (where in which epoch the loop was, with the in-flight
/// shuffle order and any running accumulators the loop keeps).
///
/// The pointers *bind* live objects: SaveTrainState reads through them,
/// LoadTrainState validates the whole file against them and only then
/// commits — a corrupt, truncated, or mismatched checkpoint leaves every
/// bound object untouched.
struct TrainState {
  /// Named parameter stores (e.g. {"model", ...} and {"head", ...}).
  std::vector<std::pair<std::string, nn::ParamStore*>> stores;
  /// Named optimizers, each bound to one of the stores above.
  std::vector<std::pair<std::string, nn::Adam*>> optims;
  /// The training-loop RNG; null when the caller has none to persist.
  Rng* rng = nullptr;
  /// Configuration guard: LoadTrainState fails (without touching anything)
  /// when the file's fingerprint differs, so a checkpoint from a different
  /// config/seed cannot silently resume.
  std::string fingerprint;

  /// Data cursor: the loop resumes at (epoch, step_in_epoch).
  int64_t epoch = 0;
  int64_t step_in_epoch = 0;
  int64_t global_step = 0;
  /// The current epoch's shuffled visit order, so a mid-epoch resume walks
  /// the exact remaining tables.
  std::vector<uint64_t> order;
  /// Loop-defined integer accumulators (counts), restored verbatim.
  std::vector<int64_t> counters;
  /// Loop-defined floating accumulators (loss sums), restored bit-exactly.
  std::vector<double> accumulators;
  /// (step, metric) evaluation series collected so far.
  std::vector<std::pair<int64_t, double>> eval_curve;
};

/// Writes `state` as a v2 checkpoint (atomic tmp + fsync + rename). Timed
/// and sized through turl::obs (`ckpt.save_ms`, `ckpt.bytes`) and traced as
/// a `ckpt.save` span.
Status SaveTrainState(const TrainState& state, const std::string& path);

/// Loads `path` into the objects bound by `state`. Every section CRC and
/// the footer checksum must verify, the fingerprint must match, and every
/// parameter/moment/cursor field must be shape-consistent with the bound
/// objects *before* anything is committed; any failure leaves the stores,
/// optimizers, RNG and cursor exactly as they were. Traced as `ckpt.load`.
Status LoadTrainState(TrainState* state, const std::string& path);

/// Parameters-only checkpoint of one store (the model-distribution format
/// the cache and the inference runtime load). v2 file with a "meta" and one
/// "store:model" section.
Status SaveModel(const nn::ParamStore& store, const std::string& path,
                 const std::string& fingerprint = "");

/// Loads a model checkpoint into `store`, staging and validating everything
/// before the commit. Reads both v2 files and legacy v1 files (read-only
/// compatibility via nn::LoadCheckpoint); `expected_fingerprint` is checked
/// for v2 files when non-empty (v1 files carry none).
Status LoadModel(nn::ParamStore* store, const std::string& path,
                 const std::string& expected_fingerprint = "");

/// Directory-level checkpoint lifecycle: numbered files, a LATEST pointer
/// updated only after the checkpoint itself is durable, keep-last-N
/// retention, and corruption fallback on load.
class CheckpointManager {
 public:
  struct Options {
    std::string dir;
    /// Newest checkpoints retained after each save; older ones are deleted.
    int keep_last = 3;
  };

  explicit CheckpointManager(Options options);

  const Options& options() const { return options_; }

  /// Saves `state` as `<dir>/ckpt-<global_step>.turl`, then atomically
  /// repoints `<dir>/LATEST` at it, then prunes to `keep_last` files. A
  /// failure at any stage leaves the previous checkpoint and pointer valid.
  Status Save(const TrainState& state);

  /// Loads the newest valid checkpoint into `state`: the LATEST target
  /// first, then retained files newest-first. Each corrupt candidate bumps
  /// the `ckpt.corrupt_fallbacks` counter and emits a warning TrainRecord
  /// before falling back to the next. NotFound when the directory holds no
  /// checkpoints; otherwise the last load error when none verify.
  Status LoadLatest(TrainState* state);

  /// Absolute path the LATEST pointer currently references ("" if none).
  std::string LatestPath() const;

  /// Retained checkpoint files, oldest first (absolute paths).
  std::vector<std::string> ListCheckpoints() const;

 private:
  Options options_;
};

}  // namespace ckpt
}  // namespace turl

#endif  // TURL_CKPT_CHECKPOINT_H_
