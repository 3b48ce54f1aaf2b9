// Shared pieces of the repository benchmark: statistics, the metric map
// printed as the result line, the benchmark's own layer spans, the
// per-workload interface, and the cold-start helpers every workload uses.
#ifndef TURL_PERFBENCH_COMMON_H_
#define TURL_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/table_encoding.h"

namespace turl {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; NaN
/// when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
/// Process peak resident set size in MiB (getrusage).
double PeakRssMb();

/// One printed metric: a number as measured and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The benchmark's own spans: wall time of calls into public functions,
/// aggregated by name. Thread-safe; only live in the traced run.
class Spans {
 public:
  void Add(const std::string& name, double ms);
  /// Mean ms per recorded call; false when the span never ran.
  bool MeanMs(const std::string& name, double* out) const;

 private:
  struct Agg {
    double total_ms = 0.0;
    int64_t count = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Agg> aggs_;
};

/// RAII span over one call; a null Spans makes it free.
class SpanTimer {
 public:
  SpanTimer(Spans* spans, std::string name)
      : spans_(spans), name_(std::move(name)), start_(Clock::now()) {}
  ~SpanTimer() {
    if (spans_ != nullptr) spans_->Add(name_, MsBetween(start_, Clock::now()));
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Spans* spans_;
  std::string name_;
  Clock::time_point start_;
};

/// One latency sample: a request (serve), a job (bulk) or an optimizer
/// step (pretrain).
struct Sample {
  double end_s = 0.0;  ///< Completion time, seconds since the window start.
  double ms = 0.0;     ///< Latency.
  int64_t items = 0;   ///< Verified items it completed.
  /// False for work whose time is not a latency users see (it still counts
  /// towards items_per_s).
  bool latency = true;
};

/// What one measured window produced.
struct Window {
  /// Items attempted and items that failed (shed, late, transport error,
  /// output mismatch, non-finite loss).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Nominal window length.
  double seconds = 0.0;
  std::vector<Sample> samples;
  /// Per-layer metrics the window produced (traced runs only).
  MetricMap layers;

  int64_t items() const {
    int64_t n = 0;
    for (const Sample& s : samples) n += s.items;
    return n;
  }
};

/// Throughput and latency of a window, each robust to short speed phases of
/// a shared host: the window is cut into kSubWindows equal parts and
/// items_per_s, p50_ms and p90_ms are the medians of their per-part values.
/// A part of a 1000-sample window has 20 or more samples beyond its p90.
inline constexpr int kSubWindows = 5;
struct WindowStats {
  double items_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::vector<double> part_p50_ms, part_p90_ms;  ///< Per part, for the log.
};
WindowStats Summarize(const Window& w);

/// Compute threads for the parallel workloads: two of four cores stay free.
/// On a 4-core virtual machine of a shared host, runs with 2 compute threads
/// spread about half as much from run to run as runs with 3, and far less
/// than runs on every core: a parallel job waits for its slowest thread, and
/// each extra thread is one more that the host can deschedule.
int ComputeThreads();
int Cores();

/// Knobs shared by every workload instance.
struct Options {
  uint64_t seed = 1;
  /// Directory for the model weights file the cold start loads.
  std::string scratch_dir;
  /// Test hook for the output check: flips one bit of every reference.
  bool corrupt_reference = false;
};

/// One benchmark workload. Setup() is the timed cold start; Run() one
/// measured window; verification happens inside Run, outside every timed
/// interval.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything up to the first measured item: context, model, weights,
  /// instances, servers, warm-up.
  virtual void Setup() = 0;
  /// The effective thread counts, for the log.
  virtual std::string ThreadReport() const = 0;
  /// One measured window of about `seconds`. `spans` is non-null in the
  /// traced run, where the window also fills Window::layers.
  virtual Window Run(double seconds, Spans* spans) = 0;
  /// The deterministic quality number for the last window, scored outside
  /// it.
  virtual double LossNats() = 0;
  /// Digest of the generated inputs (the self-test checks seeds differ).
  virtual uint64_t InputDigest() const = 0;
  /// Per-layer metrics from direct calls into the core layer (traced run).
  virtual void CoreProbe(MetricMap* out) = 0;
  /// ckpt::LoadModel wall time of the last Setup().
  virtual double LoadMs() const = 0;
};

std::unique_ptr<Workload> MakeServeSparse(const Options& options);
std::unique_ptr<Workload> MakeBulkHeads(const Options& options);
std::unique_ptr<Workload> MakeBulkWide(const Options& options);
std::unique_ptr<Workload> MakePretrain(const Options& options);

/// The model every workload serves: repro-scale TurlConfig defaults,
/// initialised from a fixed seed (timing does not depend on the weights),
/// then loaded from a weights file as a deployment would.
struct LoadedModel {
  std::unique_ptr<core::TurlModel> model;
  std::string path;  ///< The weights file.
  double load_ms = 0.0;
};
/// Builds the model for `ctx` and loads its weights from
/// `<scratch_dir>/<tag>.turl`, writing that file first when it is missing
/// (the untimed first set-up of a run does this).
LoadedModel BuildAndLoadModel(const core::TurlContext& ctx,
                              const std::string& scratch_dir,
                              const std::string& tag);

/// Seed of the synthetic world (KB, corpus, vocabularies) every workload
/// builds. It is fixed, so the model's shapes and the corpus statistics are
/// the same on every run; --seed picks the work drawn from that world (which
/// tables, in which order, the arrival schedule, the masking). With the world
/// drawn from --seed, the vocabulary sizes, and so the head-scoring cost,
/// moved the timings by ~12% from one seed to the next.
inline constexpr uint64_t kWorldSeed = 42;

/// Seed mixing for independent input streams.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// `n` of `candidates` drawn without replacement from `seed`, in their
/// original order (all of them when there are fewer).
std::vector<size_t> SampleSeeded(const std::vector<size_t>& candidates,
                                 size_t n, uint64_t seed);

/// Chains an FNV-1a digest of the table's inputs onto `h`.
uint64_t DigestTable(uint64_t h, const core::EncodedTable& t);

/// Exact comparison of two float buffers, bit for bit.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b);
bool SameBits(const float* a, size_t na, const std::vector<float>& b);

/// Flips one bit of `v` (the corrupted-reference test hook).
void CorruptInPlace(std::vector<float>* v);

/// Mean MLM cross-entropy (nats) of the token rows of `hidden` against the
/// table's own token ids; adds the row count to *rows and the summed loss
/// to *sum.
void MlmTokenLoss(const core::TurlModel& model, const core::EncodedTable& t,
                  const std::vector<float>& hidden, double* sum,
                  int64_t* rows);

/// -log softmax(scores)[gold], in double.
double NegLogSoftmax(const std::vector<float>& scores, size_t gold);

/// Per-layer metrics from direct calls into core: EncodeTable (the caller
/// times it), TurlModel::Encode, MlmLogits and MerLogits over `tables`.
void CoreProbeOver(const core::TurlModel& model,
                   const std::vector<core::EncodedTable>& tables,
                   uint64_t seed, MetricMap* out);

/// Per-layer metrics from the profiler aggregates and arena counters since
/// the last ResetProfilerLayers(), normalised by `items`.
void ResetProfilerLayers();
void ProfilerLayers(int64_t items, MetricMap* out);

}  // namespace perfbench
}  // namespace turl

#endif  // TURL_PERFBENCH_COMMON_H_
