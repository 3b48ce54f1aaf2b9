// turl_perfbench: runs one benchmark workload and prints its metrics.
//
//   turl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch <dir>] [--corrupt-reference]
//
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when any output failed verification. perfbench/README.md
// documents the workloads and every metric.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "nn/kernels/threading.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace turl {
namespace perfbench {
namespace {

/// Timed set-ups per untraced run; setup_s is their median.
constexpr int kTimedSetups = 5;
/// Window of the short traced runs that fill in layers the named workload
/// does not exercise.
constexpr double kProbeSeconds = 1.5;
/// An unmeasured run of the workload right before the measured window.
/// Virtual CPUs that sat idle through the mostly single-threaded set-up take
/// about a second to reach full speed; without this the first second of
/// every window ran slower.
constexpr double kPrimeSeconds = 1.5;

struct WorkloadInfo {
  const char* name;
  std::function<std::unique_ptr<Workload>(const Options&)> make;
};

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {"serve_sparse", MakeServeSparse},
      {"bulk_heads", MakeBulkHeads},
      {"bulk_wide", MakeBulkWide},
      {"pretrain", MakePretrain},
  };
  return workloads;
}

/// Every per-layer metric, in print order, with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"serve.queue_wait_ms", "ms"},
        {"serve.encode_ms", "ms"},
        {"serve.reply_ms", "ms"},
        {"serve.wire_ms", "ms"},
        {"serve.batch_size", "requests"},
        {"serve.failed", "count"},
        {"gen.late_p99_ms", "ms"},
        {"rt.queue_wait_ms", "ms"},
        {"rt.batch_size", "requests"},
        {"rt.encode_batch_ms", "ms"},
        {"rt.parallel_eff", "ratio"},
    };
    for (const char* head :
         {"entity_linking", "column_type", "relation_extraction",
          "row_population", "cell_filling", "schema_augmentation"}) {
      m.push_back({std::string("tasks.encode_input_ms.") + head, "ms"});
      m.push_back({std::string("tasks.score_ms.") + head, "ms"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.encode_table_ms", "ms"},
        {"core.encode_us_per_elem", "us"},
        {"core.mlm_logits_ms", "ms"},
        {"core.mer_logits_ms", "ms"},
        {"core.pretrain_step_ms", "ms"},
        {"ckpt.load_ms", "ms"},
        {"nn.attention_ms", "ms/item"},
        {"nn.matmul_ms", "ms/item"},
        {"nn.gelu_ms", "ms/item"},
        {"nn.layernorm_ms", "ms/item"},
        {"nn.softmax_ms", "ms/item"},
        {"nn.embedding_ms", "ms/item"},
        {"nn.backward_ms", "ms/item"},
        {"nn.arena_reuse_ratio", "ratio"},
        {"kernel.gemm_ms", "ms/item"},
        {"kernel.gemm_calls", "count/item"},
        {"kernel.gemv_ms", "ms/item"},
        {"kernel.gemv_calls", "count/item"},
        {"kernel.softmax_ms", "ms/item"},
        {"kernel.softmax_calls", "count/item"},
        {"kernel.layernorm_ms", "ms/item"},
        {"kernel.layernorm_calls", "count/item"},
        {"obs.trace_overhead", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-tmp";
  bool corrupt_reference = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "turl_perfbench: %s\nusage: turl_perfbench --workload "
               "<serve_sparse|bulk_heads|bulk_wide|pretrain> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--corrupt-reference]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricMap& metrics,
                 const std::vector<std::pair<std::string, std::string>>&
                     order) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < order.size(); ++i) {
    const auto it = metrics.find(order[i].first);
    const double value = it == metrics.end() ? NAN : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", order[i].first.c_str(),
                std::isfinite(value) ? value : 0.0, order[i].second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int RunUntraced(const WorkloadInfo& info, const Options& options,
                double seconds) {
  // An untimed first set-up writes the weights file and warms the process;
  // the timed set-ups after it each build a fresh workload.
  { info.make(options)->Setup(); }
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kTimedSetups; ++k) {
    workload.reset();
    std::unique_ptr<Workload> fresh = info.make(options);
    const Clock::time_point t0 = Clock::now();
    fresh->Setup();
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    workload = std::move(fresh);
  }
  std::printf("%s\n", workload->ThreadReport().c_str());
  std::printf("setups_s:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\ninputs: %016llx\n",
              static_cast<unsigned long long>(workload->InputDigest()));

  const Window prime = workload->Run(kPrimeSeconds, nullptr);
  const Window w = workload->Run(seconds, nullptr);
  const double loss = workload->LossNats();
  MetricMap m;
  m["setup_s"] = {Quantile(setup_s, 0.5), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  const WindowStats stats = Summarize(w);
  m["ok_frac"] = {w.attempted > 0 ? double(w.attempted - w.failed) /
                                        double(w.attempted)
                                  : 0.0,
                  "ratio"};
  m["items_per_s"] = {stats.items_per_s, "1/s"};
  m["p50_ms"] = {stats.p50_ms, "ms"};
  m["p90_ms"] = {stats.p90_ms, "ms"};
  m["loss_nats"] = {loss, "nats"};
  std::printf("samples: %zu over %.1f s\n", w.samples.size(), seconds);
  std::printf("parts p50_ms:");
  for (double v : stats.part_p50_ms) std::printf(" %.2f", v);
  std::printf("\nparts p90_ms:");
  for (double v : stats.part_p90_ms) std::printf(" %.2f", v);
  std::printf("\n");

  bool correct = w.attempted > 0 && w.failed == 0 && prime.failed == 0 &&
                 std::isfinite(loss);
  std::vector<std::pair<std::string, std::string>> order;
  for (const char* name : {"setup_s", "peak_rss_mb", "ok_frac", "items_per_s",
                           "p50_ms", "p90_ms", "loss_nats"}) {
    order.push_back({name, m[name].unit});
    correct = correct && std::isfinite(m[name].value);
  }
  PrintResult(correct, w.attempted, w.failed, m, order);
  return correct ? 0 : 1;
}

/// Runs `workload` for one window with the profiler, the tracer and the
/// benchmark's spans on, and returns its per-layer metrics.
Window TracedWindow(Workload* workload, double seconds) {
  obs::Profiler::SetEnabled(true);
  obs::Tracer::SetEnabled(true);
  ResetProfilerLayers();
  Spans spans;
  Window w = workload->Run(seconds, &spans);
  ProfilerLayers(w.items(), &w.layers);
  obs::Profiler::SetEnabled(false);
  obs::Tracer::SetEnabled(false);
  return w;
}

int RunTraced(const WorkloadInfo& info, const Options& options,
              double seconds) {
  std::unique_ptr<Workload> workload = info.make(options);
  workload->Setup();
  std::printf("%s\n", workload->ThreadReport().c_str());

  // Untraced then traced halves of the window: their throughput ratio is
  // the tracing overhead.
  const Window prime = workload->Run(kPrimeSeconds, nullptr);
  const Window plain = workload->Run(seconds / 2, nullptr);
  const Window traced = TracedWindow(workload.get(), seconds / 2);
  MetricMap layers = traced.layers;
  layers["obs.trace_overhead"] = {
      Summarize(plain).items_per_s / Summarize(traced).items_per_s - 1.0,
      "ratio"};
  workload->CoreProbe(&layers);
  layers["ckpt.load_ms"] = {workload->LoadMs(), "ms"};
  int64_t attempted = prime.attempted + plain.attempted + traced.attempted;
  int64_t failed = prime.failed + plain.failed + traced.failed;

  // Layers the named workload does not exercise (the socket path, the task
  // heads, backward) come from short traced runs of the other workloads.
  const auto missing = [&layers] {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!layers.count(name)) return true;
    }
    return false;
  };
  for (const WorkloadInfo& other : Workloads()) {
    if (&other == &info || !missing()) continue;
    std::unique_ptr<Workload> probe = other.make(options);
    probe->Setup();
    // The unmeasured run also builds the probe's references, which would
    // otherwise land in the traced window's profile.
    const Window prime_probe = probe->Run(kPrimeSeconds, nullptr);
    const Window w = TracedWindow(probe.get(), kProbeSeconds);
    layers.insert(w.layers.begin(), w.layers.end());  // Keeps existing keys.
    failed += prime_probe.failed + w.failed;
    attempted += prime_probe.attempted + w.attempted;
    std::printf("layers from a %.1f s traced %s run\n", kProbeSeconds,
                other.name);
  }

  bool correct = attempted > 0 && failed == 0;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = layers.find(name);
    if (it == layers.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "per-layer metric %s missing\n", name.c_str());
      correct = false;
    }
  }
  PrintResult(correct, attempted, failed, layers, PerLayerMetrics());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace turl

int main(int argc, char** argv) {
  using namespace turl::perfbench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadInfo* info = FindWorkload(args.workload);
  if (info == nullptr) Usage(("unknown workload '" + args.workload + "'").c_str());

  // Thread budget: kernels run inline on their caller everywhere; each
  // workload sizes its own session / training pool in Setup().
  turl::nn::kernels::SetKernelThreads(1);
  std::printf("threads: %u cores, kernel pool %d\n",
              std::thread::hardware_concurrency(),
              turl::nn::kernels::KernelThreads());

  Options options;
  options.seed = args.seed;
  options.corrupt_reference = args.corrupt_reference;
  options.scratch_dir =
      args.scratch + "/" + std::to_string(static_cast<long long>(getpid()));
  std::filesystem::create_directories(options.scratch_dir);

  const int rc = args.trace ? RunTraced(*info, options, args.seconds)
                            : RunUntraced(*info, options, args.seconds);
  std::error_code ignored;
  std::filesystem::remove_all(options.scratch_dir, ignored);
  return rc;
}
