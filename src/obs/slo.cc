#include "obs/slo.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "obs/server/handlers.h"
#include "obs/telemetry.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace obs {

namespace {

/// TURL_SLO=0 pins SLI recording off even against SetEnabled(true).
const bool g_pinned_off = ReadEnvSwitch("TURL_SLO") == EnvSwitch::kOff;

/// Latency bucket upper bounds, ms (exclusive of the +inf overflow bucket).
/// Coarser than the registry Histogram — a window quantile only needs to be
/// right to ~±15% to rank against an SLO threshold, and 26 bounds keep a
/// bucket small enough to merge with a handful of adds.
constexpr double kLatBoundsMs[] = {
    0.05, 0.1, 0.2, 0.5, 1,   2,   3,    5,    8,    12,   18,   27,  40,
    60,   90,  130, 200, 300, 450, 700,  1000, 1500, 2500, 4000, 6000, 10000};
constexpr int kNumLatBounds = sizeof(kLatBoundsMs) / sizeof(kLatBoundsMs[0]);
constexpr int kNumLatBuckets = kNumLatBounds + 1;  // +inf overflow.

int LatBucketIndex(double ms) {
  const double* end = kLatBoundsMs + kNumLatBounds;
  return static_cast<int>(std::upper_bound(kLatBoundsMs, end, ms) -
                          kLatBoundsMs);
}

const char* WindowLabel(int horizon_s) {
  switch (horizon_s) {
    case 10: return "10s";
    case 60: return "1m";
    case 300: return "5m";
    default: return nullptr;  // Caller formats "<n>s".
  }
}

std::string WindowLabelString(int horizon_s) {
  if (const char* label = WindowLabel(horizon_s)) return label;
  return std::to_string(horizon_s) + "s";
}

Counter* BurnCounter() {
  static Counter* c = MetricsRegistry::Get().GetCounter("obs.slo_burns");
  return c;
}

}  // namespace

SliOutcome OutcomeFromStatusName(const char* status) {
  if (status == nullptr) return SliOutcome::kError;
  if (std::strcmp(status, "ok") == 0) return SliOutcome::kOk;
  if (std::strcmp(status, "overloaded") == 0) return SliOutcome::kShed;
  if (std::strcmp(status, "deadline_exceeded") == 0) {
    return SliOutcome::kDeadlineMiss;
  }
  return SliOutcome::kError;
}

/// One second of one stream. Merging two buckets is field-wise addition
/// (max for max/exemplar), which is what makes a horizon snapshot O(ring).
struct Bucket {
  int64_t epoch_s = -1;  ///< Second this bucket holds; -1 = never used.
  uint32_t total = 0;
  uint32_t ok = 0;
  uint32_t shed = 0;
  uint32_t deadline_miss = 0;
  uint32_t error = 0;
  double sum_ms = 0.0;
  double max_ms = 0.0;
  /// Worst traced sample this second (trace id 0 = none yet).
  double exemplar_ms = 0.0;
  uint64_t exemplar_trace = 0;
  uint32_t lat[kNumLatBuckets] = {};

  void ResetTo(int64_t second) {
    *this = Bucket();
    epoch_s = second;
  }
};

struct SliEngine::Stream {
  const char* name = nullptr;
  mutable std::mutex mu;
  Bucket buckets[SliEngine::kWindowS];
};

std::atomic<bool> SliEngine::enabled_{!g_pinned_off};

SliEngine& SliEngine::Get() {
  static SliEngine* engine = new SliEngine();
  return *engine;
}

void SliEngine::SetEnabled(bool on) {
  if (g_pinned_off) return;
  enabled_.store(on, std::memory_order_relaxed);
}

SliEngine::SliEngine() {
  FindOrCreate(kAllStream);  // Slot 0: the aggregate every Record feeds.
}

SliEngine::~SliEngine() = default;

int64_t SliEngine::NowS() const {
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    if (clock_) return clock_();
  }
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SliEngine::SetClockForTest(std::function<int64_t()> now_s) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  clock_ = std::move(now_s);
}

SliEngine::Stream* SliEngine::FindOrCreate(const char* name) {
  std::lock_guard<std::mutex> lock(streams_mu_);
  for (const auto& stream : streams_) {
    if (stream->name == name || std::strcmp(stream->name, name) == 0) {
      return stream.get();
    }
  }
  streams_.push_back(std::make_unique<Stream>());
  streams_.back()->name = name;
  return streams_.back().get();
}

const SliEngine::Stream* SliEngine::Find(const char* name) const {
  std::lock_guard<std::mutex> lock(streams_mu_);
  for (const auto& stream : streams_) {
    if (stream->name == name || std::strcmp(stream->name, name) == 0) {
      return stream.get();
    }
  }
  return nullptr;
}

namespace {

void RecordIntoBucket(Bucket* bucket, int64_t now_s, SliOutcome outcome,
                      double latency_ms, uint64_t trace_id) {
  if (bucket->epoch_s != now_s) bucket->ResetTo(now_s);
  ++bucket->total;
  switch (outcome) {
    case SliOutcome::kOk: ++bucket->ok; break;
    case SliOutcome::kShed: ++bucket->shed; break;
    case SliOutcome::kDeadlineMiss: ++bucket->deadline_miss; break;
    case SliOutcome::kError: ++bucket->error; break;
  }
  if (latency_ms < 0.0) latency_ms = 0.0;
  bucket->sum_ms += latency_ms;
  bucket->max_ms = std::max(bucket->max_ms, latency_ms);
  ++bucket->lat[LatBucketIndex(latency_ms)];
  if (trace_id != 0 &&
      (bucket->exemplar_trace == 0 || latency_ms >= bucket->exemplar_ms)) {
    bucket->exemplar_ms = latency_ms;
    bucket->exemplar_trace = trace_id;
  }
}

}  // namespace

void SliEngine::Record(const char* stream, SliOutcome outcome,
                       double latency_ms, uint64_t trace_id) {
  if (!Enabled()) return;
  const int64_t now_s = NowS();
  Stream* named = FindOrCreate(stream);
  Stream* all = FindOrCreate(kAllStream);
  for (Stream* s : {named, all}) {
    if (s == nullptr) continue;
    std::lock_guard<std::mutex> lock(s->mu);
    RecordIntoBucket(&s->buckets[size_t(now_s % kWindowS)], now_s, outcome,
                     latency_ms, trace_id);
    if (named == all) break;  // Recording directly into "all": once only.
  }
}

namespace {

/// Quantile of the merged latency histogram by linear interpolation inside
/// the hit bucket, clamped to [0, max_ms] (the overflow bucket interpolates
/// toward the observed max).
double MergedQuantile(const uint64_t (&lat)[kNumLatBuckets], uint64_t total,
                      double p, double max_ms) {
  if (total == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(p * static_cast<double>(total) + 0.5));
  uint64_t cum = 0;
  for (int b = 0; b < kNumLatBuckets; ++b) {
    if (lat[b] == 0) continue;
    if (cum + lat[b] >= rank) {
      const double lo = b == 0 ? 0.0 : kLatBoundsMs[b - 1];
      const double hi = b < kNumLatBounds ? kLatBoundsMs[b] : max_ms;
      const double frac =
          static_cast<double>(rank - cum) / static_cast<double>(lat[b]);
      return std::min(max_ms, lo + frac * (std::max(hi, lo) - lo));
    }
    cum += lat[b];
  }
  return max_ms;
}

}  // namespace

SliSnapshot SliEngine::Snapshot(const char* stream, int horizon_s) const {
  SliSnapshot out;
  out.stream = stream;
  out.horizon_s = std::min(horizon_s, kWindowS);
  const Stream* s = Find(stream);
  if (s == nullptr) return out;
  const int64_t now_s = NowS();
  const int64_t oldest = now_s - out.horizon_s + 1;  // Inclusive of "now".

  uint64_t lat[kNumLatBuckets] = {};
  double sum_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    for (const Bucket& b : s->buckets) {
      if (b.epoch_s < oldest || b.epoch_s > now_s) continue;
      out.total += b.total;
      out.ok += b.ok;
      out.shed += b.shed;
      out.deadline_miss += b.deadline_miss;
      out.error += b.error;
      sum_ms += b.sum_ms;
      out.max_ms = std::max(out.max_ms, b.max_ms);
      for (int i = 0; i < kNumLatBuckets; ++i) lat[i] += b.lat[i];
      if (b.exemplar_trace != 0 && (out.exemplar_trace_id == 0 ||
                                    b.exemplar_ms >= out.exemplar_ms)) {
        out.exemplar_ms = b.exemplar_ms;
        out.exemplar_trace_id = b.exemplar_trace;
      }
    }
  }
  if (out.total > 0) {
    const double n = static_cast<double>(out.total);
    out.availability = static_cast<double>(out.ok) / n;
    out.shed_rate = static_cast<double>(out.shed) / n;
    out.deadline_miss_rate = static_cast<double>(out.deadline_miss) / n;
    out.mean_ms = sum_ms / n;
    const uint64_t total = static_cast<uint64_t>(out.total);
    out.p50_ms = MergedQuantile(lat, total, 0.50, out.max_ms);
    out.p90_ms = MergedQuantile(lat, total, 0.90, out.max_ms);
    out.p99_ms = MergedQuantile(lat, total, 0.99, out.max_ms);
  }
  return out;
}

std::vector<const char*> SliEngine::streams() const {
  std::vector<const char*> out;
  std::lock_guard<std::mutex> lock(streams_mu_);
  out.reserve(streams_.size());
  for (const auto& stream : streams_) out.push_back(stream->name);
  return out;
}

std::vector<SliSnapshot> SliEngine::SnapshotAll(int horizon_s) const {
  std::vector<SliSnapshot> out;
  for (const char* name : streams()) {
    SliSnapshot snap = Snapshot(name, horizon_s);
    if (snap.total > 0 || std::strcmp(name, kAllStream) == 0) {
      out.push_back(snap);
    }
  }
  return out;
}

void SliEngine::Reset() {
  std::lock_guard<std::mutex> lock(streams_mu_);
  for (const auto& stream : streams_) {
    std::lock_guard<std::mutex> bucket_lock(stream->mu);
    for (Bucket& b : stream->buckets) b = Bucket();
  }
}

std::string SliMetricsText(const SliEngine& engine) {
  struct Family {
    const char* name;
    const char* help;
    double (*value)(const SliSnapshot&);
    bool exemplar;
  };
  static const Family kFamilies[] = {
      {"turl_slo_requests", "Requests observed in the trailing window.",
       [](const SliSnapshot& s) { return double(s.total); }, false},
      {"turl_slo_availability", "ok / total over the trailing window.",
       [](const SliSnapshot& s) { return s.availability; }, false},
      {"turl_slo_shed_rate", "Shed (overloaded) fraction over the window.",
       [](const SliSnapshot& s) { return s.shed_rate; }, false},
      {"turl_slo_deadline_miss_rate",
       "Deadline-missed fraction over the window.",
       [](const SliSnapshot& s) { return s.deadline_miss_rate; }, false},
      {"turl_slo_p50_ms", "Window latency p50, ms.",
       [](const SliSnapshot& s) { return s.p50_ms; }, false},
      {"turl_slo_p90_ms", "Window latency p90, ms.",
       [](const SliSnapshot& s) { return s.p90_ms; }, false},
      {"turl_slo_p99_ms",
       "Window latency p99, ms. Exemplar: trace id of the window's worst "
       "traced request (resolve on /tracez).",
       [](const SliSnapshot& s) { return s.p99_ms; }, true},
      {"turl_slo_max_ms", "Window latency max, ms.",
       [](const SliSnapshot& s) { return s.max_ms; }, false},
  };

  // Snapshot every stream x horizon once, then emit family-grouped series
  // (HELP/TYPE must appear exactly once per family).
  std::vector<SliSnapshot> snaps;
  for (int horizon : SliEngine::kHorizonsS) {
    std::vector<SliSnapshot> h = engine.SnapshotAll(horizon);
    snaps.insert(snaps.end(), h.begin(), h.end());
  }
  std::ostringstream out;
  for (const Family& family : kFamilies) {
    out << "# HELP " << family.name << ' ' << family.help << '\n';
    out << "# TYPE " << family.name << " gauge\n";
    for (const SliSnapshot& s : snaps) {
      out << family.name << "{task=\"" << PrometheusLabelEscape(s.stream)
          << "\",window=\"" << WindowLabelString(s.horizon_s) << "\"} "
          << JsonDouble(family.value(s));
      if (family.exemplar && s.exemplar_trace_id != 0) {
        // OpenMetrics-style exemplar: the worst traced request behind this
        // p99, linkable to /tracez?format=json.
        out << " # {trace_id=\"" << s.exemplar_trace_id << "\"} "
            << JsonDouble(s.exemplar_ms);
      }
      out << '\n';
    }
  }
  return out.str();
}

SloWatchdog& SloWatchdog::Get() {
  static SloWatchdog* watchdog = new SloWatchdog();
  return *watchdog;
}

SloWatchdog::SloWatchdog(SliEngine* engine)
    : engine_(engine != nullptr ? engine : &SliEngine::Get()) {}

SloWatchdog::~SloWatchdog() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, state] : targets_) {
    server::HealthRegistry::Get().Remove(state.probe_id);
  }
  targets_.clear();
}

int SloWatchdog::AddTarget(SloTarget target) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_id_++;
  TargetState state;
  state.target = std::move(target);
  const std::string probe_name = "slo." + state.target.name;
  // The probe re-evaluates the target on every /healthz scrape — readiness
  // flips as soon as the window degrades, no Tick() needed in the loop.
  state.probe_id = server::HealthRegistry::Get().Add(
      probe_name, [this, id](std::string* detail) {
        const Evaluation eval = EvaluateAndLatch(id);
        *detail = eval.detail;
        return eval.ok;
      });
  targets_.emplace(id, std::move(state));
  return id;
}

void SloWatchdog::RemoveTarget(int id) {
  int probe_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = targets_.find(id);
    if (it == targets_.end()) return;
    probe_id = it->second.probe_id;
    targets_.erase(it);
  }
  server::HealthRegistry::Get().Remove(probe_id);
}

size_t SloWatchdog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return targets_.size();
}

SloWatchdog::Evaluation SloWatchdog::Evaluate(const SloTarget& target) const {
  const SliSnapshot s =
      engine_->Snapshot(target.stream.c_str(), target.horizon_s);
  Evaluation eval;
  eval.name = "slo." + target.name;
  const std::string window = WindowLabelString(target.horizon_s);
  std::ostringstream detail;
  if (s.total < target.min_requests) {
    // No traffic is not an outage: an idle service stays ready.
    detail << "idle (n=" << s.total << " < " << target.min_requests << ", "
           << window << ")";
    eval.ok = true;
    eval.detail = detail.str();
    return eval;
  }
  auto fail = [&](const char* what, double got, const char* cmp,
                  double bound) {
    eval.ok = false;
    if (detail.tellp() > 0) detail << "; ";
    detail << what << ' ' << got << ' ' << cmp << ' ' << bound;
  };
  if (target.min_availability >= 0.0 &&
      s.availability < target.min_availability) {
    fail("availability", s.availability, "<", target.min_availability);
  }
  if (target.max_shed_rate >= 0.0 && s.shed_rate > target.max_shed_rate) {
    fail("shed_rate", s.shed_rate, ">", target.max_shed_rate);
  }
  if (target.max_deadline_miss_rate >= 0.0 &&
      s.deadline_miss_rate > target.max_deadline_miss_rate) {
    fail("deadline_miss_rate", s.deadline_miss_rate, ">",
         target.max_deadline_miss_rate);
  }
  if (target.max_p99_ms >= 0.0 && s.p99_ms > target.max_p99_ms) {
    fail("p99_ms", s.p99_ms, ">", target.max_p99_ms);
  }
  if (eval.ok) {
    detail << "ok (n=" << s.total << ", avail=" << s.availability
           << ", p99=" << s.p99_ms << "ms, " << window << ")";
  } else {
    detail << " (n=" << s.total << ", " << window << ")";
  }
  eval.detail = detail.str();
  return eval;
}

SloWatchdog::Evaluation SloWatchdog::EvaluateAndLatch(int id) {
  SloTarget target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = targets_.find(id);
    if (it == targets_.end()) {
      // Raced RemoveTarget; report ready so a dying probe cannot wedge
      // /healthz.
      return Evaluation{"slo.<removed>", true, "target removed"};
    }
    target = it->second.target;
  }
  Evaluation eval = Evaluate(target);
  bool burn_edge = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = targets_.find(id);
    if (it != targets_.end()) {
      TargetState& state = it->second;
      if (!eval.ok && !state.burning) {
        state.burning = true;
        state.since_s = engine_->NowS();
        state.reason = eval.detail;
        burn_edge = true;
      } else if (eval.ok && state.burning) {
        state.burning = false;
        state.reason.clear();
      }
    }
  }
  if (burn_edge) {
    // Burn-edge telemetry: once per transition, not once per scrape.
    BurnCounter()->Inc();
    TrainRecord record;
    record.phase = "slo";
    record.warning = "slo burn: " + eval.name + ": " + eval.detail;
    TelemetryHub::Get().Emit(record);
    TURL_LOG(Warning) << "SLO burn: " << eval.name << ": " << eval.detail;
  }
  return eval;
}

std::vector<SloWatchdog::Evaluation> SloWatchdog::Tick() {
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(targets_.size());
    for (const auto& [id, state] : targets_) ids.push_back(id);
  }
  std::vector<Evaluation> out;
  out.reserve(ids.size());
  for (int id : ids) out.push_back(EvaluateAndLatch(id));
  size_t burning = 0;
  for (const Evaluation& eval : out) burning += eval.ok ? 0 : 1;
  MetricsRegistry::Get().GetGauge("obs.slo_burning")->Set(double(burning));
  return out;
}

std::vector<SloWatchdog::Burn> SloWatchdog::ActiveBurns() const {
  std::vector<Burn> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, state] : targets_) {
    if (state.burning) {
      out.push_back(Burn{"slo." + state.target.name, state.reason,
                         state.since_s});
    }
  }
  return out;
}

}  // namespace obs
}  // namespace turl
