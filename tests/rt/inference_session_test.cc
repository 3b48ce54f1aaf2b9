// EncodeBatch must be indistinguishable from the historical sequential
// evaluation loop: exact float equality per table at 1 thread and at N
// threads, for a mixed-shape workload.

#include "rt/inference_session.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/table_encoding.h"
#include "gtest/gtest.h"

namespace turl {
namespace rt {
namespace {

const core::TurlContext& Ctx() {
  static core::TurlContext* ctx = [] {
    core::ContextConfig config;
    config.corpus.num_tables = 150;
    config.seed = 42;
    return new core::TurlContext(core::BuildContext(config));
  }();
  return *ctx;
}

core::TurlConfig SmallConfig() {
  core::TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

const core::TurlModel& Model() {
  static core::TurlModel* model = new core::TurlModel(
      SmallConfig(), Ctx().vocab.size(), Ctx().entity_vocab.size(),
      /*seed=*/11);
  return *model;
}

// 16 held-out tables, deliberately encoded at varying row caps so the batch
// really is mixed-shape (corpus tables can otherwise all hit the same cap).
const std::vector<core::EncodedTable>& Workload() {
  static std::vector<core::EncodedTable>* tables = [] {
    auto* out = new std::vector<core::EncodedTable>;
    const text::WordPieceTokenizer tokenizer = Ctx().MakeTokenizer();
    const std::vector<size_t>& valid = Ctx().corpus.valid;
    // Cycle through the held-out tables until we have 16 encodings; repeated
    // tables still differ in shape because of the varying row cap.
    for (size_t pass = 0; out->size() < 16 && pass < 16; ++pass) {
      for (size_t idx : valid) {
        core::EncodeOptions options;
        options.max_rows = 2 + int(out->size());  // 2..17 rows in the batch.
        core::EncodedTable t = core::EncodeTable(
            Ctx().corpus.tables[idx], tokenizer, Ctx().entity_vocab, options);
        if (t.total() > 0) out->push_back(std::move(t));
        if (out->size() >= 16) break;
      }
    }
    return out;
  }();
  return *tables;
}

std::vector<std::vector<float>> SequentialReference() {
  std::vector<std::vector<float>> ref;
  for (const core::EncodedTable& t : Workload()) {
    ref.push_back(Model().Encode(t, /*training=*/false).ToVector());
  }
  return ref;
}

TEST(InferenceSessionTest, WorkloadIsMixedShape) {
  const auto& tables = Workload();
  ASSERT_EQ(tables.size(), 16u);
  int64_t min_total = tables[0].total(), max_total = tables[0].total();
  for (const auto& t : tables) {
    min_total = std::min<int64_t>(min_total, t.total());
    max_total = std::max<int64_t>(max_total, t.total());
  }
  EXPECT_LT(min_total, max_total) << "workload should not be uniform";
}

TEST(InferenceSessionTest, SingleThreadMatchesSequentialExactly) {
  InferenceSession session(Model(), SessionOptions{.num_threads = 1});
  EXPECT_EQ(session.num_threads(), 1);
  const auto ref = SequentialReference();
  std::vector<nn::Tensor> batched =
      session.EncodeBatch(std::span<const core::EncodedTable>(Workload()));
  ASSERT_EQ(batched.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(batched[i].ToVector(), ref[i]) << "table " << i;
  }
}

TEST(InferenceSessionTest, MultiThreadMatchesSequentialExactly) {
  InferenceSession session(Model(), SessionOptions{.num_threads = 4});
  EXPECT_EQ(session.num_threads(), 4);
  const auto ref = SequentialReference();
  std::vector<nn::Tensor> batched =
      session.EncodeBatch(std::span<const core::EncodedTable>(Workload()));
  ASSERT_EQ(batched.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(batched[i].ToVector(), ref[i]) << "table " << i;
  }
}

TEST(InferenceSessionTest, PointerBatchMatchesContiguousBatch) {
  InferenceSession session(Model(), SessionOptions{.num_threads = 4});
  std::vector<const core::EncodedTable*> ptrs;
  for (const auto& t : Workload()) ptrs.push_back(&t);
  std::vector<nn::Tensor> by_ptr = session.EncodeBatch(
      std::span<const core::EncodedTable* const>(ptrs));
  const auto ref = SequentialReference();
  ASSERT_EQ(by_ptr.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(by_ptr[i].ToVector(), ref[i]) << "table " << i;
  }
}

TEST(InferenceSessionTest, EncodeMatchesModelEncode) {
  InferenceSession session(Model(), SessionOptions{.num_threads = 2});
  const core::EncodedTable& t = Workload()[0];
  EXPECT_EQ(session.Encode(t).ToVector(),
            Model().Encode(t, /*training=*/false).ToVector());
}

TEST(InferenceSessionTest, EmptyBatchIsFine) {
  InferenceSession session(Model(), SessionOptions{.num_threads = 2});
  EXPECT_TRUE(
      session.EncodeBatch(std::span<const core::EncodedTable>()).empty());
}

}  // namespace
}  // namespace rt
}  // namespace turl
