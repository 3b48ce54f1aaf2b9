#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "ckpt/checkpoint.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/rng.h"

namespace turl {
namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const size_t lo = size_t(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

int Cores() { return std::max(1, int(std::thread::hardware_concurrency())); }

int ComputeThreads() { return std::clamp(Cores() - 2, 1, 2); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

WindowStats Summarize(const Window& w) {
  std::vector<std::vector<double>> ms(kSubWindows);
  std::vector<double> items(kSubWindows, 0.0), last_end(kSubWindows, 0.0);
  std::vector<int64_t> done(kSubWindows, 0);
  const double part = w.seconds / kSubWindows;
  for (const Sample& s : w.samples) {
    // The last part also holds work that finished after the nominal end.
    const size_t k = size_t(std::clamp(int(s.end_s / part), 0, kSubWindows - 1));
    ++done[k];
    items[k] += double(s.items);
    last_end[k] = std::max(last_end[k], s.end_s);
    if (s.latency) ms[k].push_back(s.ms);
  }
  WindowStats out;
  std::vector<double> rate;
  double prev_end = 0.0;
  for (size_t k = 0; k < size_t(kSubWindows); ++k) {
    if (done[k] == 0) continue;
    // Items completed in the part over the time since the last completion
    // before it: exactly the span that produced them.
    if (last_end[k] > prev_end) rate.push_back(items[k] / (last_end[k] - prev_end));
    prev_end = last_end[k];
    if (ms[k].empty()) continue;
    out.part_p50_ms.push_back(Quantile(ms[k], 0.5));
    out.part_p90_ms.push_back(Quantile(ms[k], 0.90));
  }
  out.items_per_s = Quantile(rate, 0.5);
  out.p50_ms = Quantile(out.part_p50_ms, 0.5);
  out.p90_ms = Quantile(out.part_p90_ms, 0.5);
  return out;
}

void Spans::Add(const std::string& name, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Agg& agg = aggs_[name];
  agg.total_ms += ms;
  ++agg.count;
}

bool Spans::MeanMs(const std::string& name, double* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = aggs_.find(name);
  if (it == aggs_.end() || it->second.count == 0) return false;
  *out = it->second.total_ms / double(it->second.count);
  return true;
}

LoadedModel BuildAndLoadModel(const core::TurlContext& ctx,
                              const std::string& scratch_dir,
                              const std::string& tag) {
  constexpr uint64_t kModelSeed = 11;
  LoadedModel out;
  out.model = std::make_unique<core::TurlModel>(
      core::TurlConfig{}, ctx.vocab.size(), ctx.entity_vocab.size(),
      kModelSeed);
  out.path = scratch_dir + "/" + tag + ".turl";
  if (!std::ifstream(out.path).good()) {
    const Status s = ckpt::SaveModel(*out.model->params(), out.path);
    TURL_CHECK(s.ok()) << "writing " << out.path << ": " << s.ToString();
  }
  const Clock::time_point t0 = Clock::now();
  const Status s = ckpt::LoadModel(out.model->params(), out.path);
  out.load_ms = MsBetween(t0, Clock::now());
  TURL_CHECK(s.ok()) << "loading " << out.path << ": " << s.ToString();
  out.model->InvalidateQuantizedScoring();
  return out;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<size_t> SampleSeeded(const std::vector<size_t>& candidates,
                                 size_t n, uint64_t seed) {
  std::vector<size_t> picked(candidates.size());
  for (size_t i = 0; i < picked.size(); ++i) picked[i] = i;
  Rng rng(seed);
  rng.Shuffle(&picked);
  picked.resize(std::min(n, picked.size()));
  std::sort(picked.begin(), picked.end());
  std::vector<size_t> out;
  for (size_t i : picked) out.push_back(candidates[i]);
  return out;
}

uint64_t DigestTable(uint64_t h, const core::EncodedTable& t) {
  const auto add = [&h](const std::vector<int>& v) {
    const unsigned char* p = reinterpret_cast<const unsigned char*>(v.data());
    for (size_t i = 0; i < v.size() * sizeof(int); ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  add(t.token_ids);
  add(t.token_segment);
  add(t.entity_ids);
  add(t.entity_row);
  add(t.entity_column);
  return h;
}

bool SameBits(const float* a, size_t na, const std::vector<float>& b) {
  return na == b.size() &&
         (na == 0 || std::memcmp(a, b.data(), na * sizeof(float)) == 0);
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return SameBits(a.data(), a.size(), b);
}

void CorruptInPlace(std::vector<float>* v) {
  if (v->empty()) {
    v->push_back(0.0f);  // A length mismatch is a mismatch too.
    return;
  }
  uint32_t bits;
  std::memcpy(&bits, v->data(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(v->data(), &bits, sizeof(bits));
}

void MlmTokenLoss(const core::TurlModel& model, const core::EncodedTable& t,
                  const std::vector<float>& hidden, double* sum,
                  int64_t* rows) {
  const int n = t.num_tokens();
  if (n == 0) return;
  const int64_t d = model.config().d_model;
  nn::Tensor h = nn::Tensor::FromVector({int64_t(t.total()), d}, hidden);
  std::vector<int> token_rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) token_rows[size_t(i)] = i;
  const nn::Tensor logits =
      model.MlmLogits(h, token_rows, core::Scoring::kServe);
  const int64_t vocab = logits.dim(1);
  const float* p = logits.data();
  for (int i = 0; i < n; ++i) {
    std::vector<float> row(p + int64_t(i) * vocab, p + int64_t(i + 1) * vocab);
    *sum += NegLogSoftmax(row, size_t(t.token_ids[size_t(i)]));
  }
  *rows += n;
}

double NegLogSoftmax(const std::vector<float>& scores, size_t gold) {
  double max = -std::numeric_limits<double>::infinity();
  for (float s : scores) max = std::max(max, double(s));
  double z = 0.0;
  for (float s : scores) z += std::exp(double(s) - max);
  return std::log(z) + max - double(scores[gold]);
}

void CoreProbeOver(const core::TurlModel& model,
                   const std::vector<core::EncodedTable>& tables,
                   uint64_t seed, MetricMap* out) {
  Rng rng(MixSeed(seed, 77));
  double encode_ms = 0.0, mlm_ms = 0.0, mer_ms = 0.0;
  int64_t elems = 0, mlm_calls = 0, mer_calls = 0;
  const int candidates_n = model.config().mer_max_candidates;
  for (const core::EncodedTable& t : tables) {
    if (t.total() == 0) continue;
    Clock::time_point t0 = Clock::now();
    const nn::Tensor hidden = model.Encode(t, /*training=*/false);
    encode_ms += MsBetween(t0, Clock::now());
    elems += t.total();
    if (t.num_tokens() > 0) {
      std::vector<int> rows(static_cast<size_t>(t.num_tokens()));
      for (int i = 0; i < t.num_tokens(); ++i) rows[size_t(i)] = i;
      t0 = Clock::now();
      const nn::Tensor logits =
          model.MlmLogits(hidden, rows, core::Scoring::kServe);
      mlm_ms += MsBetween(t0, Clock::now());
      ++mlm_calls;
    }
    if (t.num_entities() > 0) {
      // MER candidates as pre-training builds them: the table's own
      // entities topped up with random ids to the configured cap.
      std::vector<int> rows, candidates = t.entity_ids;
      for (int i = 0; i < t.num_entities(); ++i) {
        rows.push_back(core::TurlModel::EntityHiddenRow(t, i));
      }
      while (int(candidates.size()) < candidates_n) {
        candidates.push_back(
            int(rng.Uniform(uint64_t(model.entity_vocab_size()))));
      }
      t0 = Clock::now();
      const nn::Tensor logits =
          model.MerLogits(hidden, rows, candidates, core::Scoring::kServe);
      mer_ms += MsBetween(t0, Clock::now());
      ++mer_calls;
    }
  }
  if (elems > 0) {
    (*out)["core.encode_us_per_elem"] = {encode_ms * 1e3 / double(elems),
                                         "us"};
  }
  if (mlm_calls > 0) {
    (*out)["core.mlm_logits_ms"] = {mlm_ms / double(mlm_calls), "ms"};
  }
  if (mer_calls > 0) {
    (*out)["core.mer_logits_ms"] = {mer_ms / double(mer_calls), "ms"};
  }
}

namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().GetCounter(name)->Value();
}

int64_t g_arena_reuse0 = 0;
int64_t g_heap_alloc0 = 0;

}  // namespace

void ResetProfilerLayers() {
  obs::Profiler::Get().Reset();
  g_arena_reuse0 = CounterValue("nn.arena_reuse");
  g_heap_alloc0 = CounterValue("nn.heap_alloc");
}

void ProfilerLayers(int64_t items, MetricMap* out) {
  if (items <= 0) return;
  std::map<std::string, obs::SpanStats> by_name;
  for (obs::SpanStats& s : obs::Profiler::Get().Report()) {
    by_name[s.name] = s;
  }
  const double per = 1.0 / double(items);
  // Self time of the op layer per item, summed over the named spans; a
  // metric is emitted only when at least one of its spans ran.
  const auto self_ms = [&](const char* metric,
                           std::initializer_list<const char*> spans) {
    double ms = 0.0;
    int64_t count = 0;
    for (const char* span : spans) {
      auto it = by_name.find(span);
      if (it == by_name.end()) continue;
      ms += it->second.self_ms;
      count += it->second.count;
    }
    if (count > 0) (*out)[metric] = {ms * per, "ms/item"};
  };
  self_ms("nn.attention_ms", {"op.attention"});
  self_ms("nn.matmul_ms", {"op.matmul", "op.matmul_nt"});
  self_ms("nn.gelu_ms", {"op.gelu"});
  self_ms("nn.layernorm_ms", {"op.layernorm"});
  self_ms("nn.softmax_ms", {"op.softmax", "op.softmax_xent"});
  self_ms("nn.embedding_ms", {"op.embedding", "op.bag_mean"});
  if (auto it = by_name.find("autograd.backward");
      it != by_name.end() && it->second.count > 0) {
    (*out)["nn.backward_ms"] = {it->second.total_ms * per, "ms/item"};
  }
  // Kernel spans are leaves: total time and calls per item.
  const auto kernel = [&](const char* metric, const char* calls,
                          std::initializer_list<const char*> spans) {
    double ms = 0.0;
    int64_t count = 0;
    for (const char* span : spans) {
      auto it = by_name.find(span);
      if (it == by_name.end()) continue;
      ms += it->second.total_ms;
      count += it->second.count;
    }
    if (count == 0) return;
    (*out)[metric] = {ms * per, "ms/item"};
    (*out)[calls] = {double(count) * per, "count/item"};
  };
  kernel("kernel.gemm_ms", "kernel.gemm_calls", {"kernel.gemm"});
  kernel("kernel.gemv_ms", "kernel.gemv_calls",
         {"kernel.gemv", "kernel.gemv_i8"});
  kernel("kernel.softmax_ms", "kernel.softmax_calls", {"kernel.softmax"});
  kernel("kernel.layernorm_ms", "kernel.layernorm_calls",
         {"kernel.layernorm"});
  const int64_t reuse = CounterValue("nn.arena_reuse") - g_arena_reuse0;
  const int64_t heap = CounterValue("nn.heap_alloc") - g_heap_alloc0;
  if (reuse + heap > 0) {
    (*out)["nn.arena_reuse_ratio"] = {double(reuse) / double(reuse + heap),
                                      "ratio"};
  }
}

}  // namespace perfbench
}  // namespace turl
