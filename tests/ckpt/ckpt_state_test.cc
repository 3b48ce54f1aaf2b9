// TrainState save/load: bit-exact round trips of parameters, Adam moments,
// RNG stream and data cursor; the untouched-on-failure guarantee for every
// failure path (fingerprint, shape, missing/extra sections, corruption,
// truncation); model-only checkpoints including v1 compatibility; and the
// CheckpointManager's retention, LATEST pointer, and corruption fallback.

#include "ckpt/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/format.h"
#include "gtest/gtest.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "util/serialize.h"
#include "v1_checkpoint_writer.h"

namespace turl {
namespace ckpt {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A miniature training loop: a two-parameter store, its Adam optimizer, and
/// an RNG mid-stream (with a Box–Muller spare cached), so checkpoints carry
/// non-trivial values in every section.
struct Loop {
  nn::ParamStore store;
  std::unique_ptr<nn::Adam> adam;
  Rng rng;

  explicit Loop(uint64_t seed) : rng(seed) {
    store.CreateNormal("enc.w", {3, 4}, 0.5f, &rng);
    store.CreateNormal("enc.b", {4}, 0.5f, &rng);
    adam = std::make_unique<nn::Adam>(&store, nn::AdamConfig{.lr = 0.05f});
  }

  /// Runs `n` optimizer steps on sum-of-squares loss and advances the RNG an
  /// odd number of Normal() draws so the spare is populated.
  void Advance(int n) {
    for (int i = 0; i < n; ++i) {
      store.ZeroGrad();
      nn::Tensor loss;
      bool first = true;
      for (const auto& [name, t] : store.params()) {
        nn::Tensor term = nn::SumAll(nn::Mul(t, t));
        loss = first ? term : nn::Add(loss, term);
        first = false;
      }
      loss.Backward();
      adam->Step();
      rng.Normal();
    }
  }
};

ckpt::TrainState Bind(Loop* loop, const std::string& fingerprint) {
  TrainState st;
  st.stores.emplace_back("model", &loop->store);
  st.optims.emplace_back("adam", loop->adam.get());
  st.rng = &loop->rng;
  st.fingerprint = fingerprint;
  return st;
}

void FillCursor(TrainState* st) {
  st->epoch = 2;
  st->step_in_epoch = 5;
  st->global_step = 37;
  st->order = {4, 2, 0, 3, 1};
  st->counters = {11, 22, 33};
  st->accumulators = {0.25, -1.5};
  st->eval_curve = {{10, 0.5}, {20, 0.75}};
}

/// Everything observable about a loop, captured for bit-exact comparison.
struct Snapshot {
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
  int64_t step = 0;
  Rng::State rng;
};

Snapshot Capture(const Loop& loop) {
  Snapshot s;
  for (const auto& [name, t] : loop.store.params()) {
    s.params.push_back(t.ToVector());
  }
  s.m = loop.adam->first_moments();
  s.v = loop.adam->second_moments();
  s.step = loop.adam->step_count();
  s.rng = loop.rng.GetState();
  return s;
}

void ExpectIdentical(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i], b.params[i]) << "param " << i;
  }
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.step, b.step);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  EXPECT_EQ(a.rng.has_spare_normal, b.rng.has_spare_normal);
  EXPECT_EQ(a.rng.spare_normal, b.rng.spare_normal);
}

void CorruptByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(std::streamoff(offset));
  char c = 0;
  f.read(&c, 1);
  c = char(c ^ 0x20);
  f.seekp(std::streamoff(offset));
  f.write(&c, 1);
}

TEST(TrainStateTest, RoundTripIsBitExact) {
  const std::string path = TempPath("state_roundtrip.turl");
  Loop a(1);
  a.Advance(3);
  TrainState sa = Bind(&a, "cfg-A");
  FillCursor(&sa);
  ASSERT_TRUE(SaveTrainState(sa, path).ok());
  const Snapshot want = Capture(a);

  Loop b(99);  // Same layout, different values everywhere.
  b.Advance(1);
  TrainState sb = Bind(&b, "cfg-A");
  ASSERT_TRUE(LoadTrainState(&sb, path).ok());
  ExpectIdentical(want, Capture(b));

  EXPECT_EQ(sb.epoch, sa.epoch);
  EXPECT_EQ(sb.step_in_epoch, sa.step_in_epoch);
  EXPECT_EQ(sb.global_step, sa.global_step);
  EXPECT_EQ(sb.order, sa.order);
  EXPECT_EQ(sb.counters, sa.counters);
  EXPECT_EQ(sb.accumulators, sa.accumulators);
  EXPECT_EQ(sb.eval_curve, sa.eval_curve);

  // The restored RNG replays the exact same stream.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.rng.Next(), b.rng.Next());
  EXPECT_EQ(a.rng.Normal(), b.rng.Normal());
  std::remove(path.c_str());
}

TEST(TrainStateTest, FingerprintMismatchLeavesEverythingUntouched) {
  const std::string path = TempPath("state_fp.turl");
  Loop a(1);
  a.Advance(2);
  TrainState sa = Bind(&a, "config-one");
  ASSERT_TRUE(SaveTrainState(sa, path).ok());

  Loop b(2);
  b.Advance(1);
  const Snapshot before = Capture(b);
  TrainState sb = Bind(&b, "config-two");
  FillCursor(&sb);
  const Status s = LoadTrainState(&sb, path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  ExpectIdentical(before, Capture(b));
  EXPECT_EQ(sb.global_step, 37);  // Cursor untouched too.
  std::remove(path.c_str());
}

TEST(TrainStateTest, ShapeMismatchLeavesStoreUntouched) {
  const std::string path = TempPath("state_shape.turl");
  Loop a(1);
  ASSERT_TRUE(SaveTrainState(Bind(&a, ""), path).ok());

  // Same names, transposed first parameter.
  nn::ParamStore store;
  Rng rng(3);
  store.CreateNormal("enc.w", {4, 3}, 0.5f, &rng);
  store.CreateNormal("enc.b", {4}, 0.5f, &rng);
  nn::Adam adam(&store, nn::AdamConfig{});
  std::vector<std::vector<float>> before;
  for (const auto& [name, t] : store.params()) before.push_back(t.ToVector());

  TrainState st;
  st.stores.emplace_back("model", &store);
  st.optims.emplace_back("adam", &adam);
  st.rng = &rng;
  EXPECT_EQ(LoadTrainState(&st, path).code(),
            StatusCode::kFailedPrecondition);
  size_t i = 0;
  for (const auto& [name, t] : store.params()) {
    EXPECT_EQ(t.ToVector(), before[i++]);
  }
  std::remove(path.c_str());
}

TEST(TrainStateTest, MissingSectionFails) {
  const std::string path = TempPath("state_missing.turl");
  Loop a(1);
  TrainState sa = Bind(&a, "");
  sa.rng = nullptr;  // Save without an RNG stream.
  ASSERT_TRUE(SaveTrainState(sa, path).ok());

  Loop b(2);
  const Snapshot before = Capture(b);
  TrainState sb = Bind(&b, "");  // Load *with* an RNG bound.
  EXPECT_EQ(LoadTrainState(&sb, path).code(),
            StatusCode::kFailedPrecondition);
  ExpectIdentical(before, Capture(b));
  std::remove(path.c_str());
}

TEST(TrainStateTest, UnexpectedExtraSectionFails) {
  const std::string path = TempPath("state_extra.turl");
  Loop a(1);
  ASSERT_TRUE(SaveTrainState(Bind(&a, ""), path).ok());

  Loop b(2);
  TrainState sb = Bind(&b, "");
  sb.rng = nullptr;  // The file's rng section now has no consumer.
  const Snapshot before = Capture(b);
  EXPECT_EQ(LoadTrainState(&sb, path).code(),
            StatusCode::kFailedPrecondition);
  ExpectIdentical(before, Capture(b));
  std::remove(path.c_str());
}

TEST(TrainStateTest, CorruptAndTruncatedFilesLeaveStateUntouched) {
  const std::string path = TempPath("state_corrupt.turl");
  Loop a(1);
  a.Advance(2);
  ASSERT_TRUE(SaveTrainState(Bind(&a, ""), path).ok());

  // Bit flip in the middle of the file.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const size_t size = size_t(in.tellg());
  in.close();
  CorruptByteAt(path, size / 2);

  Loop b(2);
  Snapshot before = Capture(b);
  TrainState sb = Bind(&b, "");
  EXPECT_FALSE(LoadTrainState(&sb, path).ok());
  ExpectIdentical(before, Capture(b));

  // Rewrite valid, then truncate to half.
  ASSERT_TRUE(SaveTrainState(Bind(&a, ""), path).ok());
  {
    std::ifstream full(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(full)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size() / 2));
  }
  before = Capture(b);
  EXPECT_FALSE(LoadTrainState(&sb, path).ok());
  ExpectIdentical(before, Capture(b));
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, RoundTripAndFingerprintGuard) {
  const std::string path = TempPath("model_v2.turl");
  Loop a(1);
  a.Advance(1);
  ASSERT_TRUE(SaveModel(a.store, path, "tag-1").ok());

  Loop b(9);
  ASSERT_TRUE(LoadModel(&b.store, path, "tag-1").ok());
  for (size_t i = 0; i < a.store.params().size(); ++i) {
    EXPECT_EQ(a.store.params()[i].second.ToVector(),
              b.store.params()[i].second.ToVector());
  }

  Loop c(10);
  std::vector<std::vector<float>> before;
  for (const auto& [name, t] : c.store.params()) before.push_back(t.ToVector());
  EXPECT_EQ(LoadModel(&c.store, path, "other-tag").code(),
            StatusCode::kFailedPrecondition);
  size_t i = 0;
  for (const auto& [name, t] : c.store.params()) {
    EXPECT_EQ(t.ToVector(), before[i++]);  // Untouched on mismatch.
  }
  // An empty expected fingerprint accepts any file.
  EXPECT_TRUE(LoadModel(&c.store, path, "").ok());
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, LoadsParamsFromFullTrainingCheckpoint) {
  // Warm-start path: a full training checkpoint (optim + rng + cursor
  // sections) still yields its parameters to a model-only load.
  const std::string path = TempPath("model_from_train.turl");
  Loop a(1);
  a.Advance(2);
  TrainState sa = Bind(&a, "pretrain|x");
  FillCursor(&sa);
  ASSERT_TRUE(SaveTrainState(sa, path).ok());

  Loop b(7);
  ASSERT_TRUE(LoadModel(&b.store, path, "pretrain|x").ok());
  for (size_t i = 0; i < a.store.params().size(); ++i) {
    EXPECT_EQ(a.store.params()[i].second.ToVector(),
              b.store.params()[i].second.ToVector());
  }
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, ReadsLegacyV1Files) {
  const std::string path = TempPath("model_v1.bin");
  Loop a(1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a.store, path).ok());
  Loop b(5);
  ASSERT_TRUE(LoadModel(&b.store, path).ok());
  for (size_t i = 0; i < a.store.params().size(); ++i) {
    EXPECT_EQ(a.store.params()[i].second.ToVector(),
              b.store.params()[i].second.ToVector());
  }
  std::remove(path.c_str());
}

TEST(CheckpointManagerTest, RetentionPrunesOldestAndLatestPoints) {
  const std::string dir = TempPath("mgr_retention");
  CheckpointManager manager({dir, /*keep_last=*/2});
  Loop a(1);
  for (int64_t step : {5, 10, 15}) {
    TrainState st = Bind(&a, "fp");
    st.global_step = step;
    a.Advance(1);
    ASSERT_TRUE(manager.Save(st).ok());
  }
  const std::vector<std::string> kept = manager.ListCheckpoints();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_NE(kept[0].find("ckpt-000000000010.turl"), std::string::npos);
  EXPECT_NE(kept[1].find("ckpt-000000000015.turl"), std::string::npos);
  EXPECT_EQ(manager.LatestPath(), kept[1]);

  Loop b(4);
  TrainState sb = Bind(&b, "fp");
  ASSERT_TRUE(manager.LoadLatest(&sb).ok());
  EXPECT_EQ(sb.global_step, 15);
}

TEST(CheckpointManagerTest, FallsBackPastCorruptNewestAndCountsIt) {
  const std::string dir = TempPath("mgr_fallback");
  CheckpointManager manager({dir, /*keep_last=*/3});
  Loop a(1);
  TrainState st = Bind(&a, "fp");
  st.global_step = 1;
  ASSERT_TRUE(manager.Save(st).ok());
  const Snapshot at_step1 = Capture(a);
  a.Advance(2);
  st.global_step = 2;
  ASSERT_TRUE(manager.Save(st).ok());

  // Corrupt the newest checkpoint (the one LATEST references).
  CorruptByteAt(manager.LatestPath(), 40);

  obs::Counter* fallbacks =
      obs::MetricsRegistry::Get().GetCounter("ckpt.corrupt_fallbacks");
  const int64_t before = fallbacks->Value();
  Loop b(9);
  TrainState sb = Bind(&b, "fp");
  ASSERT_TRUE(manager.LoadLatest(&sb).ok());
  EXPECT_EQ(sb.global_step, 1);  // Landed on the older, valid file.
  ExpectIdentical(at_step1, Capture(b));
  EXPECT_GE(fallbacks->Value(), before + 1);
}

TEST(CheckpointManagerTest, AllCorruptReturnsError) {
  const std::string dir = TempPath("mgr_all_corrupt");
  CheckpointManager manager({dir, /*keep_last=*/3});
  Loop a(1);
  TrainState st = Bind(&a, "fp");
  st.global_step = 1;
  ASSERT_TRUE(manager.Save(st).ok());
  CorruptByteAt(manager.LatestPath(), 30);

  Loop b(2);
  const Snapshot before = Capture(b);
  TrainState sb = Bind(&b, "fp");
  EXPECT_FALSE(manager.LoadLatest(&sb).ok());
  ExpectIdentical(before, Capture(b));
}

TEST(CheckpointManagerTest, TamperedPointerIsIgnored) {
  const std::string dir = TempPath("mgr_tamper");
  CheckpointManager manager({dir, /*keep_last=*/3});
  Loop a(1);
  TrainState st = Bind(&a, "fp");
  st.global_step = 7;
  ASSERT_TRUE(manager.Save(st).ok());

  // A pointer escaping the directory must be treated as absent.
  ASSERT_TRUE(WritePointerFile(dir + "/LATEST", "../../etc/passwd").ok());
  EXPECT_EQ(manager.LatestPath(), "");

  Loop b(3);
  TrainState sb = Bind(&b, "fp");
  ASSERT_TRUE(manager.LoadLatest(&sb).ok());  // Fallback scan still works.
  EXPECT_EQ(sb.global_step, 7);
}

TEST(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  CheckpointManager manager({TempPath("mgr_empty_never_created"), 3});
  Loop a(1);
  TrainState st = Bind(&a, "");
  EXPECT_EQ(manager.LoadLatest(&st).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ckpt
}  // namespace turl
