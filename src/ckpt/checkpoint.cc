#include "ckpt/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

#include "ckpt/format.h"
#include "nn/checkpoint.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace turl {
namespace ckpt {

namespace {

// Layout version of the *state* encoding inside the sections (the file
// container has its own version in the header).
constexpr uint32_t kStateVersion = 1;

constexpr char kMetaSection[] = "meta";
constexpr char kRngSection[] = "rng";
constexpr char kCursorSection[] = "cursor";
constexpr char kStorePrefix[] = "store:";
constexpr char kOptimPrefix[] = "optim:";
constexpr char kLatestFile[] = "LATEST";
constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".turl";

std::string StoreSectionName(const std::string& name) {
  return std::string(kStorePrefix) + name;
}
std::string OptimSectionName(const std::string& name) {
  return std::string(kOptimPrefix) + name;
}

Section MakeMetaSection(const TrainState& state) {
  PayloadWriter w;
  w.WriteU32(kStateVersion);
  w.WriteString(state.fingerprint);
  return Section{kMetaSection, w.Take()};
}

Section MakeStoreSection(const std::string& name, const nn::ParamStore& store) {
  PayloadWriter w;
  w.WriteU64(store.params().size());
  for (const auto& [pname, t] : store.params()) {
    w.WriteString(pname);
    w.WriteU64(t.shape().size());
    for (int64_t d : t.shape()) w.WriteI64(d);
    w.WriteU64(uint64_t(t.numel()));
    w.WriteFloatSpan(t.data(), size_t(t.numel()));
  }
  return Section{StoreSectionName(name), w.Take()};
}

Section MakeOptimSection(const std::string& name, const nn::Adam& adam) {
  PayloadWriter w;
  w.WriteI64(adam.step_count());
  w.WriteU64(adam.first_moments().size());
  for (size_t i = 0; i < adam.first_moments().size(); ++i) {
    const std::vector<float>& m = adam.first_moments()[i];
    const std::vector<float>& v = adam.second_moments()[i];
    w.WriteU64(m.size());
    w.WriteFloatSpan(m.data(), m.size());
    w.WriteFloatSpan(v.data(), v.size());
  }
  return Section{OptimSectionName(name), w.Take()};
}

Section MakeRngSection(const Rng& rng) {
  const Rng::State s = rng.GetState();
  PayloadWriter w;
  for (uint64_t word : s.s) w.WriteU64(word);
  w.WriteU32(s.has_spare_normal ? 1 : 0);
  w.WriteDouble(s.spare_normal);
  return Section{kRngSection, w.Take()};
}

Section MakeCursorSection(const TrainState& state) {
  PayloadWriter w;
  w.WriteI64(state.epoch);
  w.WriteI64(state.step_in_epoch);
  w.WriteI64(state.global_step);
  w.WriteU64Vector(state.order);
  w.WriteI64Vector(state.counters);
  w.WriteDoubleVector(state.accumulators);
  w.WriteU64(state.eval_curve.size());
  for (const auto& [step, value] : state.eval_curve) {
    w.WriteI64(step);
    w.WriteDouble(value);
  }
  return Section{kCursorSection, w.Take()};
}

std::vector<Section> BuildSections(const TrainState& state) {
  std::vector<Section> sections;
  sections.push_back(MakeMetaSection(state));
  for (const auto& [name, store] : state.stores) {
    sections.push_back(MakeStoreSection(name, *store));
  }
  for (const auto& [name, adam] : state.optims) {
    sections.push_back(MakeOptimSection(name, *adam));
  }
  if (state.rng != nullptr) sections.push_back(MakeRngSection(*state.rng));
  sections.push_back(MakeCursorSection(state));
  return sections;
}

/// Staged parameter data for one store: tensors to write and the bytes to
/// write into them, committed only after the whole file validates.
struct StagedStore {
  std::vector<nn::Tensor> targets;
  std::vector<std::vector<float>> data;
};

struct StagedOptim {
  nn::Adam* adam = nullptr;
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
  int64_t step = 0;
};

Status ParseStoreSection(const std::string& payload, nn::ParamStore* store,
                         const std::string& section, StagedStore* staged) {
  PayloadReader r(payload);
  const uint64_t count = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (count != store->params().size()) {
    return Status::FailedPrecondition(
        "section '" + section + "' has " + std::to_string(count) +
        " params, store has " + std::to_string(store->params().size()));
  }
  std::unordered_map<std::string, nn::Tensor> by_name;
  for (const auto& [name, t] : store->params()) by_name.emplace(name, t);
  for (uint64_t i = 0; i < count; ++i) {
    const std::string name = r.ReadString();
    const uint64_t rank = r.ReadU64();
    if (!r.status().ok()) return r.status();
    if (rank > r.remaining() / sizeof(int64_t)) {
      return Status::IoError("corrupt rank for param '" + name + "'");
    }
    nn::Shape shape(rank);
    for (uint64_t d = 0; d < rank; ++d) shape[d] = r.ReadI64();
    const uint64_t numel = r.ReadU64();
    if (!r.status().ok()) return r.status();
    if (numel > r.remaining() / sizeof(float)) {
      return Status::IoError("corrupt element count for param '" + name + "'");
    }
    std::vector<float> data(static_cast<size_t>(numel));
    if (!r.TakeRaw(data.data(), data.size() * sizeof(float))) {
      return r.status();
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::FailedPrecondition("unknown parameter in checkpoint: " +
                                        name);
    }
    nn::Tensor t = it->second;
    if (t.shape() != shape || uint64_t(t.numel()) != numel) {
      return Status::FailedPrecondition(
          "shape mismatch for " + name + ": " + nn::ShapeToString(t.shape()) +
          " vs " + nn::ShapeToString(shape));
    }
    staged->targets.push_back(t);
    staged->data.push_back(std::move(data));
  }
  if (!r.Exhausted()) {
    return Status::IoError("trailing bytes in section '" + section + "'");
  }
  return Status::OK();
}

Status ParseOptimSection(const std::string& payload, nn::Adam* adam,
                         const std::string& section, StagedOptim* staged) {
  PayloadReader r(payload);
  staged->adam = adam;
  staged->step = r.ReadI64();
  const uint64_t count = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (count != adam->first_moments().size()) {
    return Status::FailedPrecondition(
        "section '" + section + "' has " + std::to_string(count) +
        " moment buffers, optimizer has " +
        std::to_string(adam->first_moments().size()));
  }
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t numel = r.ReadU64();
    if (!r.status().ok()) return r.status();
    if (numel != adam->first_moments()[size_t(i)].size()) {
      return Status::FailedPrecondition(
          "moment size mismatch in '" + section + "' at buffer " +
          std::to_string(i));
    }
    if (numel > r.remaining() / sizeof(float)) {
      return Status::IoError("corrupt moment length in '" + section + "'");
    }
    std::vector<float> m(static_cast<size_t>(numel));
    std::vector<float> v(static_cast<size_t>(numel));
    if (!r.TakeRaw(m.data(), m.size() * sizeof(float)) ||
        !r.TakeRaw(v.data(), v.size() * sizeof(float))) {
      return r.status();
    }
    staged->m.push_back(std::move(m));
    staged->v.push_back(std::move(v));
  }
  if (!r.Exhausted()) {
    return Status::IoError("trailing bytes in section '" + section + "'");
  }
  return Status::OK();
}

Status ParseRngSection(const std::string& payload, Rng::State* out) {
  PayloadReader r(payload);
  for (uint64_t& word : out->s) word = r.ReadU64();
  out->has_spare_normal = r.ReadU32() != 0;
  out->spare_normal = r.ReadDouble();
  if (!r.Exhausted()) {
    return r.status().ok() ? Status::IoError("trailing bytes in rng section")
                           : r.status();
  }
  return Status::OK();
}

Status ParseCursorSection(const std::string& payload, TrainState* staged) {
  PayloadReader r(payload);
  staged->epoch = r.ReadI64();
  staged->step_in_epoch = r.ReadI64();
  staged->global_step = r.ReadI64();
  staged->order = r.ReadU64Vector();
  staged->counters = r.ReadI64Vector();
  staged->accumulators = r.ReadDoubleVector();
  const uint64_t curve_n = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (curve_n > r.remaining() / (sizeof(int64_t) + sizeof(double))) {
    return Status::IoError("corrupt eval-curve length");
  }
  staged->eval_curve.reserve(size_t(curve_n));
  for (uint64_t i = 0; i < curve_n; ++i) {
    const int64_t step = r.ReadI64();
    const double value = r.ReadDouble();
    staged->eval_curve.emplace_back(step, value);
  }
  if (!r.Exhausted()) {
    return r.status().ok() ? Status::IoError("trailing bytes in cursor section")
                           : r.status();
  }
  return Status::OK();
}

/// Stage-validate-commit loader shared by LoadTrainState and LoadModel.
/// When `require_all_sections` is false, sections not bound by `state`
/// (optimizers, rng, cursor) are ignored — used to pull just the parameters
/// out of a full training checkpoint.
Status LoadInto(TrainState* state, const std::string& path,
                bool require_all_sections) {
  std::vector<Section> sections;
  TURL_RETURN_IF_ERROR(ReadCheckpointFile(path, &sections));
  std::map<std::string, const std::string*> by_name;
  for (const Section& s : sections) {
    if (!by_name.emplace(s.name, &s.payload).second) {
      return Status::IoError("duplicate section '" + s.name + "': " + path);
    }
  }
  auto find = [&](const std::string& name) -> const std::string* {
    auto it = by_name.find(name);
    if (it == by_name.end()) return nullptr;
    const std::string* payload = it->second;
    by_name.erase(it);  // Track consumption for the strict check below.
    return payload;
  };

  // Meta: state version + fingerprint guard.
  const std::string* meta = find(kMetaSection);
  if (meta == nullptr) {
    return Status::IoError("checkpoint missing meta section: " + path);
  }
  {
    PayloadReader r(*meta);
    const uint32_t version = r.ReadU32();
    const std::string fingerprint = r.ReadString();
    if (!r.status().ok()) return r.status();
    if (version != kStateVersion) {
      return Status::IoError("unsupported checkpoint state version " +
                             std::to_string(version));
    }
    if (!state->fingerprint.empty() && fingerprint != state->fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint fingerprint mismatch: file has '" + fingerprint +
          "', expected '" + state->fingerprint + "'");
    }
  }

  // Stage every bound component; nothing live is touched yet.
  std::vector<StagedStore> staged_stores(state->stores.size());
  for (size_t i = 0; i < state->stores.size(); ++i) {
    const std::string section = StoreSectionName(state->stores[i].first);
    const std::string* payload = find(section);
    if (payload == nullptr) {
      return Status::FailedPrecondition("checkpoint missing section '" +
                                        section + "': " + path);
    }
    TURL_RETURN_IF_ERROR(ParseStoreSection(*payload, state->stores[i].second,
                                           section, &staged_stores[i]));
  }
  std::vector<StagedOptim> staged_optims(state->optims.size());
  for (size_t i = 0; i < state->optims.size(); ++i) {
    const std::string section = OptimSectionName(state->optims[i].first);
    const std::string* payload = find(section);
    if (payload == nullptr) {
      return Status::FailedPrecondition("checkpoint missing section '" +
                                        section + "': " + path);
    }
    TURL_RETURN_IF_ERROR(ParseOptimSection(*payload, state->optims[i].second,
                                           section, &staged_optims[i]));
  }
  Rng::State staged_rng;
  if (state->rng != nullptr) {
    const std::string* payload = find(kRngSection);
    if (payload == nullptr) {
      return Status::FailedPrecondition("checkpoint missing rng section: " +
                                        path);
    }
    TURL_RETURN_IF_ERROR(ParseRngSection(*payload, &staged_rng));
  }
  TrainState staged_cursor;
  bool have_cursor = false;
  if (require_all_sections) {
    const std::string* payload = find(kCursorSection);
    if (payload == nullptr) {
      return Status::FailedPrecondition("checkpoint missing cursor section: " +
                                        path);
    }
    TURL_RETURN_IF_ERROR(ParseCursorSection(*payload, &staged_cursor));
    have_cursor = true;
    if (!by_name.empty()) {
      return Status::FailedPrecondition("checkpoint has unexpected section '" +
                                        by_name.begin()->first + "': " + path);
    }
  }

  // Everything verified — commit. None of these can fail any more.
  for (StagedStore& ss : staged_stores) {
    for (size_t i = 0; i < ss.targets.size(); ++i) {
      std::memcpy(ss.targets[i].data(), ss.data[i].data(),
                  ss.data[i].size() * sizeof(float));
    }
  }
  for (StagedOptim& so : staged_optims) {
    TURL_CHECK_OK(
        so.adam->SetState(std::move(so.m), std::move(so.v), so.step));
  }
  if (state->rng != nullptr) state->rng->SetState(staged_rng);
  if (have_cursor) {
    state->epoch = staged_cursor.epoch;
    state->step_in_epoch = staged_cursor.step_in_epoch;
    state->global_step = staged_cursor.global_step;
    state->order = std::move(staged_cursor.order);
    state->counters = std::move(staged_cursor.counters);
    state->accumulators = std::move(staged_cursor.accumulators);
    state->eval_curve = std::move(staged_cursor.eval_curve);
  }
  return Status::OK();
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? int64_t(st.st_size) : 0;
}

}  // namespace

Status SaveTrainState(const TrainState& state, const std::string& path) {
  obs::TraceSpan span("ckpt.save");
  WallTimer timer;
  const Status s = WriteCheckpointFile(path, BuildSections(state));
  if (s.ok()) {
    const int64_t bytes = FileSize(path);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    reg.GetHistogram("ckpt.save_ms", obs::Histogram::DefaultLatencyBucketsMs())
        ->Observe(timer.ElapsedMillis());
    reg.GetCounter("ckpt.bytes")->Inc(bytes);
    reg.GetCounter("ckpt.saves")->Inc();
    if (span.traced()) {
      span.Annotate("step", state.global_step);
      span.Annotate("bytes", bytes);
    }
  }
  return s;
}

Status LoadTrainState(TrainState* state, const std::string& path) {
  obs::TraceSpan span("ckpt.load");
  WallTimer timer;
  const Status s = LoadInto(state, path, /*require_all_sections=*/true);
  if (s.ok()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    reg.GetHistogram("ckpt.load_ms", obs::Histogram::DefaultLatencyBucketsMs())
        ->Observe(timer.ElapsedMillis());
    reg.GetCounter("ckpt.loads")->Inc();
  }
  return s;
}

Status SaveModel(const nn::ParamStore& store, const std::string& path,
                 const std::string& fingerprint) {
  TrainState state;
  // SaveTrainState only reads through the pointer; the const_cast never
  // leads to a mutation.
  state.stores.emplace_back("model", const_cast<nn::ParamStore*>(&store));
  state.fingerprint = fingerprint;
  return SaveTrainState(state, path);
}

Status LoadModel(nn::ParamStore* store, const std::string& path,
                 const std::string& expected_fingerprint) {
  const uint32_t version = PeekCheckpointVersion(path);
  if (version == 1) {
    // Legacy v1 stream — still loadable, read-only.
    obs::TraceSpan span("ckpt.load");
    return nn::LoadCheckpoint(store, path);
  }
  TrainState state;
  state.stores.emplace_back("model", store);
  state.fingerprint = expected_fingerprint;
  obs::TraceSpan span("ckpt.load");
  return LoadInto(&state, path, /*require_all_sections=*/false);
}

CheckpointManager::CheckpointManager(Options options)
    : options_(std::move(options)) {
  TURL_CHECK(!options_.dir.empty()) << "CheckpointManager needs a directory";
  TURL_CHECK_GE(options_.keep_last, 1);
}

Status CheckpointManager::Save(const TrainState& state) {
  TURL_RETURN_IF_ERROR(MakeDirs(options_.dir));
  char name[64];
  std::snprintf(name, sizeof(name), "%s%012lld%s", kCheckpointPrefix,
                static_cast<long long>(state.global_step), kCheckpointSuffix);
  const std::string path = options_.dir + "/" + name;
  TURL_RETURN_IF_ERROR(SaveTrainState(state, path));
  // The checkpoint is durable; only now may LATEST advance to it.
  TURL_RETURN_IF_ERROR(
      WritePointerFile(options_.dir + "/" + kLatestFile, name));
  // Retention: keep the newest keep_last files (the one LATEST references is
  // by construction the newest, so it always survives).
  std::vector<std::string> retained = ListCheckpoints();
  const size_t keep = size_t(options_.keep_last);
  if (retained.size() > keep) {
    for (size_t i = 0; i + keep < retained.size(); ++i) {
      ::unlink(retained[i].c_str());
    }
  }
  return Status::OK();
}

Status CheckpointManager::LoadLatest(TrainState* state) {
  std::vector<std::string> candidates;
  const std::string latest = LatestPath();
  if (!latest.empty()) candidates.push_back(latest);
  std::vector<std::string> retained = ListCheckpoints();
  for (auto it = retained.rbegin(); it != retained.rend(); ++it) {
    if (*it != latest) candidates.push_back(*it);
  }
  if (candidates.empty()) {
    return Status::NotFound("no checkpoints in " + options_.dir);
  }
  Status last_error = Status::OK();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Status s = LoadTrainState(state, candidates[i]);
    if (s.ok()) return s;
    last_error = s;
    obs::MetricsRegistry::Get().GetCounter("ckpt.corrupt_fallbacks")->Inc();
    TURL_LOG(Warning) << "checkpoint " << candidates[i]
                      << " failed to load (" << s.ToString()
                      << "); falling back to an older one";
    obs::TrainRecord record;
    record.phase = "ckpt";
    record.warning = "corrupt checkpoint " + candidates[i] + ": " +
                     s.ToString();
    obs::EmitRecord(record);
  }
  return last_error;
}

std::string CheckpointManager::LatestPath() const {
  std::string name;
  if (!ReadPointerFile(options_.dir + "/" + kLatestFile, &name).ok()) {
    return "";
  }
  // The pointer holds a bare filename; anything else is tampering and is
  // treated as absent (LoadLatest then scans the retained files).
  if (name.empty() || name.find('/') != std::string::npos) return "";
  return options_.dir + "/" + name;
}

std::vector<std::string> CheckpointManager::ListCheckpoints() const {
  std::vector<std::string> names;
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return {};
  const std::string prefix = kCheckpointPrefix;
  const std::string suffix = kCheckpointSuffix;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    names.push_back(name);
  }
  ::closedir(dir);
  // Zero-padded step numbers make lexicographic order chronological.
  std::sort(names.begin(), names.end());
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const std::string& name : names) {
    paths.push_back(options_.dir + "/" + name);
  }
  return paths;
}

}  // namespace ckpt
}  // namespace turl
