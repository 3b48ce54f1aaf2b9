#include "nn/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include "gtest/gtest.h"
#include "v1_checkpoint_writer.h"

namespace turl {
namespace nn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void BuildStore(ParamStore* store, uint64_t seed) {
  Rng rng(seed);
  store->CreateNormal("enc.w", {3, 4}, 0.5f, &rng);
  store->CreateNormal("enc.b", {4}, 0.5f, &rng);
  store->CreateFull("ln.gamma", {4}, 1.f);
}

std::vector<std::vector<float>> SnapshotStore(const ParamStore& store) {
  std::vector<std::vector<float>> out;
  for (const auto& [name, t] : store.params()) out.push_back(t.ToVector());
  return out;
}

void ExpectUntouched(const ParamStore& store,
                     const std::vector<std::vector<float>>& before) {
  ASSERT_EQ(store.params().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(store.params()[i].second.ToVector(), before[i])
        << "param '" << store.params()[i].first
        << "' was modified by a failed load";
  }
}

TEST(CheckpointTest, RoundTripRestoresValues) {
  const std::string path = TempPath("ckpt.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());

  ParamStore b;
  BuildStore(&b, 99);  // Different init values.
  ASSERT_TRUE(LoadCheckpoint(&b, path).ok());
  for (size_t i = 0; i < a.params().size(); ++i) {
    const Tensor& ta = a.params()[i].second;
    const Tensor& tb = b.params()[i].second;
    ASSERT_EQ(ta.numel(), tb.numel());
    for (int64_t j = 0; j < ta.numel(); ++j)
      EXPECT_FLOAT_EQ(ta.at(j), tb.at(j));
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  ParamStore s;
  BuildStore(&s, 1);
  EXPECT_FALSE(LoadCheckpoint(&s, TempPath("does_not_exist.bin")).ok());
}

TEST(CheckpointTest, ParamCountMismatchFails) {
  const std::string path = TempPath("ckpt_count.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());
  ParamStore b;
  Rng rng(2);
  b.CreateNormal("only_one", {2}, 0.1f, &rng);
  EXPECT_EQ(LoadCheckpoint(&b, path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchFails) {
  const std::string path = TempPath("ckpt_shape.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());
  ParamStore b;
  Rng rng(3);
  b.CreateNormal("enc.w", {4, 3}, 0.1f, &rng);  // Transposed shape.
  b.CreateNormal("enc.b", {4}, 0.1f, &rng);
  b.CreateFull("ln.gamma", {4}, 1.f);
  EXPECT_EQ(LoadCheckpoint(&b, path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, NameMismatchFails) {
  const std::string path = TempPath("ckpt_name.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());
  ParamStore b;
  Rng rng(4);
  b.CreateNormal("renamed.w", {3, 4}, 0.1f, &rng);
  b.CreateNormal("enc.b", {4}, 0.1f, &rng);
  b.CreateFull("ln.gamma", {4}, 1.f);
  EXPECT_FALSE(LoadCheckpoint(&b, path).ok());
  std::remove(path.c_str());
}

// Regression tests for the in-place loading bug: LoadCheckpoint used to
// write parameters as it read them, so a file that failed at param k left
// params 0..k-1 overwritten. Every failure path must now leave the store
// bit-identical to its pre-load state.

TEST(CheckpointTest, TruncatedFileLeavesStoreUntouched) {
  const std::string path = TempPath("ckpt_trunc.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());
  // Cut the file mid-way through the last parameter: the first params parse
  // cleanly, which is exactly the case the old loader corrupted.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size() - 6));
  }

  ParamStore b;
  BuildStore(&b, 99);
  const std::vector<std::vector<float>> before = SnapshotStore(b);
  EXPECT_FALSE(LoadCheckpoint(&b, path).ok());
  ExpectUntouched(b, before);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchLeavesStoreUntouched) {
  const std::string path = TempPath("ckpt_shape_untouched.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());

  // First two params match; the third has a different shape, so the file
  // parses well past the point where the old loader started writing.
  ParamStore b;
  Rng rng(5);
  b.CreateNormal("enc.w", {3, 4}, 0.1f, &rng);
  b.CreateNormal("enc.b", {4}, 0.1f, &rng);
  b.CreateFull("ln.gamma", {8}, 1.f);
  const std::vector<std::vector<float>> before = SnapshotStore(b);
  EXPECT_EQ(LoadCheckpoint(&b, path).code(), StatusCode::kFailedPrecondition);
  ExpectUntouched(b, before);
  std::remove(path.c_str());
}

TEST(CheckpointTest, NameMismatchLeavesStoreUntouched) {
  const std::string path = TempPath("ckpt_name_untouched.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());

  ParamStore b;
  Rng rng(6);
  b.CreateNormal("enc.w", {3, 4}, 0.1f, &rng);
  b.CreateNormal("enc.b", {4}, 0.1f, &rng);
  b.CreateFull("other.name", {4}, 1.f);
  const std::vector<std::vector<float>> before = SnapshotStore(b);
  EXPECT_FALSE(LoadCheckpoint(&b, path).ok());
  ExpectUntouched(b, before);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingBytesLeaveStoreUntouched) {
  const std::string path = TempPath("ckpt_trailing.bin");
  ParamStore a;
  BuildStore(&a, 1);
  ASSERT_TRUE(testing_util::SaveV1Checkpoint(a, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("junk", 4);
  }
  ParamStore b;
  BuildStore(&b, 99);
  const std::vector<std::vector<float>> before = SnapshotStore(b);
  EXPECT_FALSE(LoadCheckpoint(&b, path).ok());
  ExpectUntouched(b, before);
  std::remove(path.c_str());
}

TEST(CheckpointTest, GarbageFileFails) {
  const std::string path = TempPath("garbage.bin");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("not a checkpoint", f);
    fclose(f);
  }
  ParamStore s;
  BuildStore(&s, 1);
  EXPECT_FALSE(LoadCheckpoint(&s, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nn
}  // namespace turl
