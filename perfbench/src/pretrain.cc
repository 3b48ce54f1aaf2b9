// pretrain: core::Pretrainer::Train over the training split with
// grad_accum_tables=8 on the parallel training path, no eval and no
// checkpoints. Steps are timed one by one through an Options::sink with
// telemetry_every=1.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "ckpt/checkpoint.h"
#include "common.h"
#include "core/pretrain.h"
#include "nn/train_parallel.h"
#include "obs/telemetry.h"
#include "util/logging.h"

namespace turl {
namespace perfbench {
namespace {

constexpr int kCorpusTables = 3000;
constexpr int kGradAccumTables = 8;
/// Train() runs in chunks of this many tables (32 steps) until the window
/// is over; each chunk draws its tables from the whole split with its own
/// seed.
constexpr int kChunkTables = 256;
/// Warm-up chunks inside set-up (the first steps of a process run slower),
/// of kWarmupChunkTables each.
constexpr int kWarmupChunks = 6;
constexpr int kWarmupChunkTables = 64;
/// loss_nats averages the first steps of the window, a fixed amount of
/// work, so it does not depend on how fast the steps ran. A window holds
/// well over 1000 steps.
constexpr size_t kLossSteps = 256;


/// Times each optimizer step from the previous step record (or the start of
/// the Train call) to its own. The first step of a call also carries the
/// call's own set-up (Adam state, gradient shards), which one long training
/// run pays once; it is marked so that p50/p90 leave it out.
class StepSink final : public obs::MetricsSink {
 public:
  void Emit(const obs::TrainRecord& record) override {
    const Clock::time_point now = Clock::now();
    if (!record.warning.empty()) {
      ++warnings;
      return;
    }
    if (!record.eval_metric.empty()) return;  // The end-of-run record.
    step_ms.push_back(MsBetween(last, now));
    step_end.push_back(now);
    losses.push_back(record.loss);
    first_of_call.push_back(call_start);
    call_start = false;
    last = now;
  }

  Clock::time_point last;
  bool call_start = false;
  std::vector<bool> first_of_call;
  std::vector<double> step_ms;
  std::vector<Clock::time_point> step_end;
  std::vector<double> losses;
  int64_t warnings = 0;
};

class Pretrain final : public Workload {
 public:
  explicit Pretrain(const Options& options) : options_(options) {}

  void Setup() override {
    nn::SetTrainThreads(ComputeThreads());
    core::ContextConfig config;
    config.corpus.num_tables = kCorpusTables;
    config.seed = kWorldSeed;
    ctx_ = core::BuildContext(config);
    model_ = BuildAndLoadModel(ctx_, options_.scratch_dir, "pretrain");
    pretrainer_ = std::make_unique<core::Pretrainer>(model_.model.get(), &ctx_);
    for (int c = 0; c < kWarmupChunks; ++c) {
      StepSink sink;
      TrainChunk(MixSeed(options_.seed, 900 + uint64_t(c)), kWarmupChunkTables,
                 &sink);
    }
  }

  std::string ThreadReport() const override {
    std::ostringstream os;
    os << "pretrain threads: compute " << ComputeThreads()
       << " (training pool, caller included; kernel pool inline) + "
          "generator 0 = "
       << ComputeThreads() << " of " << Cores() << " cores";
    return os.str();
  }

  Window Run(double seconds, Spans* spans) override {
    if (reference_losses_.empty()) Reference();
    // Every window replays the same steps from the same weights, so the
    // losses of its first steps are a pure function of the seed.
    ReloadWeights();
    Window w;
    StepSink sink;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < stop) {
      TrainChunk(MixSeed(options_.seed, chunks_++), kChunkTables, &sink);
    }
    w.seconds = seconds;
    w.attempted = int64_t(sink.step_ms.size()) * kGradAccumTables;
    w.failed = sink.warnings * kGradAccumTables;
    for (size_t i = 0; i < sink.step_ms.size(); ++i) {
      // Finite, and for the first chunk bit-identical to the 1-thread run.
      const bool ok =
          std::isfinite(sink.losses[i]) &&
          (i >= reference_losses_.size() ||
           std::memcmp(&sink.losses[i], &reference_losses_[i],
                       sizeof(double)) == 0);
      if (!ok) w.failed += kGradAccumTables;
      w.samples.push_back({SecondsBetween(start, sink.step_end[i]),
                           sink.step_ms[i], ok ? kGradAccumTables : 0,
                           !sink.first_of_call[i]});
    }
    w.failed = std::min(w.attempted, w.failed);
    losses_.assign(sink.losses.begin(),
                   sink.losses.begin() +
                       std::min(kLossSteps, sink.losses.size()));
    if (spans != nullptr && !sink.step_ms.empty()) {
      w.layers["core.pretrain_step_ms"] = {Mean(sink.step_ms), "ms"};
    }
    return w;
  }

  double LossNats() override { return Mean(losses_); }

  uint64_t InputDigest() const override {
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    // The corpus is the same for every seed; the seed picks each chunk's
    // tables and masking through the chunk seeds.
    uint64_t h = 0xCBF29CE484222325ull ^ MixSeed(options_.seed, 0);
    for (size_t i = 0; i < std::min<size_t>(64, ctx_.corpus.train.size());
         ++i) {
      h = DigestTable(h, core::EncodeTable(
                             ctx_.corpus.tables[ctx_.corpus.train[i]],
                             tokenizer, ctx_.entity_vocab));
    }
    return h;
  }

  void CoreProbe(MetricMap* out) override {
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    std::vector<core::EncodedTable> tables;
    double ms = 0.0;
    for (size_t i = 0; i < std::min<size_t>(180, ctx_.corpus.train.size());
         ++i) {
      const Clock::time_point t0 = Clock::now();
      tables.push_back(core::EncodeTable(
          ctx_.corpus.tables[ctx_.corpus.train[i]], tokenizer,
          ctx_.entity_vocab));
      ms += MsBetween(t0, Clock::now());
    }
    (*out)["core.encode_table_ms"] = {ms / double(tables.size()), "ms"};
    CoreProbeOver(*model_.model, tables, options_.seed, out);
  }

  double LoadMs() const override { return model_.load_ms; }

 private:
  void ReloadWeights() {
    const Status s = ckpt::LoadModel(model_.model->params(), model_.path);
    TURL_CHECK(s.ok()) << "reloading weights: " << s.ToString();
    chunks_ = 0;
  }

  /// The window's first chunk on one training thread, outside every timed
  /// interval: the parallel path promises bit-identical losses.
  void Reference() {
    ReloadWeights();
    nn::SetTrainThreads(1);
    StepSink sink;
    TrainChunk(MixSeed(options_.seed, 0), kChunkTables, &sink);
    nn::SetTrainThreads(ComputeThreads());
    reference_losses_ = sink.losses;
    if (options_.corrupt_reference && !reference_losses_.empty()) {
      reference_losses_[0] = std::nextafter(reference_losses_[0], 1e300);
    }
  }

  void TrainChunk(uint64_t seed, int tables, StepSink* sink) {
    core::Pretrainer::Options opts;
    opts.epochs = 1;
    opts.max_train_tables = tables;
    opts.grad_accum_tables = kGradAccumTables;
    opts.eval_every = 0;
    opts.max_eval_tables = 0;  // No evaluation at the end of the chunk.
    opts.telemetry_every = 1;
    opts.sink = sink;
    opts.seed = seed;
    sink->last = Clock::now();
    sink->call_start = true;
    (void)pretrainer_->Train(opts);
  }

  Options options_;
  core::TurlContext ctx_;
  LoadedModel model_;
  std::unique_ptr<core::Pretrainer> pretrainer_;
  uint64_t chunks_ = 0;
  std::vector<double> losses_;  ///< The last window's first kLossSteps.
  std::vector<double> reference_losses_;
};

}  // namespace

std::unique_ptr<Workload> MakePretrain(const Options& options) {
  return std::make_unique<Pretrain>(options);
}

}  // namespace perfbench
}  // namespace turl
