// Tests for the TURL model: shapes, ablation behaviours, gradient flow,
// the MLM/MER heads, checkpointing, and a small end-to-end pre-training run
// that must improve validation accuracy (the system's core claim).

#include "core/model.h"

#include "core/model_cache.h"
#include "core/pretrain.h"
#include "gtest/gtest.h"
#include <cstdio>
#include <cstring>

#include "nn/checkpoint.h"

namespace turl {
namespace core {
namespace {

const TurlContext& Ctx() {
  static TurlContext* ctx = [] {
    ContextConfig config;
    config.corpus.num_tables = 300;
    config.seed = 42;
    return new TurlContext(BuildContext(config));
  }();
  return *ctx;
}

TurlConfig SmallConfig() {
  TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

EncodedTable EncodeTrainTable(size_t i = 0) {
  const text::WordPieceTokenizer tok = Ctx().MakeTokenizer();
  return EncodeTable(Ctx().corpus.tables[Ctx().corpus.train[i]], tok,
                     Ctx().entity_vocab);
}

TEST(TurlModelTest, EncodeShape) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  EncodedTable e = EncodeTrainTable();
  Rng rng(0);
  nn::Tensor hidden = model.Encode(e, false, &rng);
  EXPECT_EQ(hidden.dim(0), e.total());
  EXPECT_EQ(hidden.dim(1), SmallConfig().d_model);
}

TEST(TurlModelTest, EncodeTokensOnlyAndEntitiesOnly) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  const text::WordPieceTokenizer tok = Ctx().MakeTokenizer();
  Rng rng(0);

  EncodeOptions meta_only;
  meta_only.include_entities = false;
  meta_only.include_topic_entity = false;
  EncodedTable m = EncodeTable(Ctx().corpus.tables[Ctx().corpus.train[0]],
                               tok, Ctx().entity_vocab, meta_only);
  EXPECT_EQ(model.Encode(m, false, &rng).dim(0), m.num_tokens());

  EncodeOptions ents_only;
  ents_only.include_metadata = false;
  EncodedTable e = EncodeTable(Ctx().corpus.tables[Ctx().corpus.train[0]],
                               tok, Ctx().entity_vocab, ents_only);
  EXPECT_EQ(model.Encode(e, false, &rng).dim(0), e.num_entities());
}

TEST(TurlModelTest, EvalDeterministic) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  EncodedTable e = EncodeTrainTable();
  Rng rng(0);
  nn::Tensor a = model.Encode(e, false, &rng);
  nn::Tensor b = model.Encode(e, false, &rng);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(TurlModelTest, SameSeedSameInit) {
  TurlModel a(SmallConfig(), Ctx().vocab.size(), Ctx().entity_vocab.size(), 9);
  TurlModel b(SmallConfig(), Ctx().vocab.size(), Ctx().entity_vocab.size(), 9);
  EXPECT_EQ(a.params()->TotalParameters(), b.params()->TotalParameters());
  const nn::Tensor wa = a.word_embedding().weight();
  const nn::Tensor wb = b.word_embedding().weight();
  for (int64_t i = 0; i < std::min<int64_t>(wa.numel(), 200); ++i) {
    EXPECT_FLOAT_EQ(wa.at(i), wb.at(i));
  }
}

TEST(TurlModelTest, VisibilityMatrixChangesOutput) {
  TurlConfig vis_config = SmallConfig();
  TurlConfig novis_config = SmallConfig();
  novis_config.use_visibility_matrix = false;
  TurlModel vis(vis_config, Ctx().vocab.size(), Ctx().entity_vocab.size(), 1);
  TurlModel novis(novis_config, Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  EncodedTable e = EncodeTrainTable();
  Rng rng(0);
  nn::Tensor a = vis.Encode(e, false, &rng);
  nn::Tensor b = novis.Encode(e, false, &rng);
  // Same init (same seed), different masks -> different outputs.
  int diffs = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    diffs += std::abs(a.at(i) - b.at(i)) > 1e-6f;
  }
  EXPECT_GT(diffs, 0);
}

// Inference records no tape and runs every attention head through one
// n x n buffer; neither may move a bit. With dropout 0 a training forward
// runs the same kernels on the same inputs, so the two match by memcmp.
TEST(TurlModelTest, TapeFreeEncodeIsBitIdenticalToTrainingEncode) {
  const text::WordPieceTokenizer tok = Ctx().MakeTokenizer();
  const data::Table& table = Ctx().corpus.tables[Ctx().corpus.train[0]];
  EncodeOptions tokens_only;
  tokens_only.include_entities = false;
  tokens_only.include_topic_entity = false;
  EncodeOptions entities_only;
  entities_only.include_metadata = false;
  const std::vector<EncodedTable> inputs = {
      EncodeTable(table, tok, Ctx().entity_vocab),
      EncodeTable(table, tok, Ctx().entity_vocab, tokens_only),
      EncodeTable(table, tok, Ctx().entity_vocab, entities_only)};
  ASSERT_GT(inputs[0].num_tokens(), 0);
  ASSERT_GT(inputs[0].num_entities(), 0);
  ASSERT_EQ(inputs[1].num_entities(), 0);
  ASSERT_EQ(inputs[2].num_tokens(), 0);
  for (bool visibility : {true, false}) {
    TurlConfig config = SmallConfig();
    config.num_heads = 4;
    config.dropout = 0.f;
    config.use_visibility_matrix = visibility;
    TurlModel model(config, Ctx().vocab.size(), Ctx().entity_vocab.size(), 3);
    for (size_t k = 0; k < inputs.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "input " << k << ", visibility "
                                        << visibility);
      Rng rng(7);
      const nn::Tensor taped = model.Encode(inputs[k], true, &rng);
      const nn::Tensor tape_free = model.Encode(inputs[k], false);
      EXPECT_FALSE(taped.impl()->parents.empty());
      EXPECT_TRUE(tape_free.impl()->parents.empty());
      EXPECT_TRUE(tape_free.impl()->tape_free);
      ASSERT_EQ(taped.shape(), tape_free.shape());
      EXPECT_EQ(std::memcmp(taped.data(), tape_free.data(),
                            sizeof(float) * size_t(taped.numel())),
                0);
    }
  }
}

TEST(TurlModelTest, ValidateInputAcceptsEveryEncodedTable) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  const text::WordPieceTokenizer tok = Ctx().MakeTokenizer();
  EncodeOptions entities_only;
  entities_only.include_metadata = false;
  int checked = 0;
  for (const data::Table& table : Ctx().corpus.tables) {
    for (const EncodeOptions& options : {EncodeOptions(), entities_only}) {
      const EncodedTable e = EncodeTable(table, tok, Ctx().entity_vocab,
                                         options);
      if (e.total() == 0) continue;
      const Status s = model.ValidateInput(e);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 300);
  EXPECT_FALSE(model.ValidateInput(EncodedTable()).ok());
}

TEST(TurlModelTest, MlmLogitsShape) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  EncodedTable e = EncodeTrainTable();
  ASSERT_GT(e.num_tokens(), 2);
  Rng rng(0);
  nn::Tensor hidden = model.Encode(e, false, &rng);
  nn::Tensor logits = model.MlmLogits(hidden, {0, 1});
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), Ctx().vocab.size());
}

TEST(TurlModelTest, MerLogitsShape) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  EncodedTable e = EncodeTrainTable();
  ASSERT_GT(e.num_entities(), 0);
  Rng rng(0);
  nn::Tensor hidden = model.Encode(e, false, &rng);
  std::vector<int> candidates = {2, 3, 4, 5};
  nn::Tensor logits = model.MerLogits(
      hidden, {TurlModel::EntityHiddenRow(e, 0)}, candidates);
  EXPECT_EQ(logits.dim(0), 1);
  EXPECT_EQ(logits.dim(1), 4);
}

TEST(TurlModelTest, GradientsFlowToAllParameterGroups) {
  TurlModel model(SmallConfig(), Ctx().vocab.size(),
                  Ctx().entity_vocab.size(), 1);
  EncodedTable e = EncodeTrainTable();
  Rng rng(0);
  model.params()->ZeroGrad();
  nn::Tensor hidden = model.Encode(e, true, &rng);
  nn::Tensor loss = nn::SumAll(hidden);
  loss.Backward();
  for (const char* name :
       {"emb.word.weight", "emb.entity.weight", "emb.role.weight",
        "emb.fuse.weight", "encoder.layer0.attn.wq.weight",
        "encoder.layer0.ff.fc1.weight", "emb.norm.gamma"}) {
    nn::Tensor p = model.params()->Get(name);
    double sum = 0;
    for (float g : p.grad_vector()) sum += std::abs(g);
    EXPECT_GT(sum, 0.0) << name;
  }
}

TEST(TurlModelTest, CheckpointRoundTripThroughCache) {
  const std::string dir = ::testing::TempDir() + "/turl_cache_test";
  TurlConfig config = SmallConfig();
  config.pretrain_epochs = 1;
  // TempDir persists between runs; clear any stale checkpoint first.
  std::remove((dir + "/" + config.CacheTag() + ".ckpt").c_str());
  TurlModel model(config, Ctx().vocab.size(), Ctx().entity_vocab.size(), 1);
  Pretrainer::Options opts;
  opts.epochs = 1;
  opts.max_train_tables = 20;
  opts.max_eval_tables = 5;
  PretrainResult first = GetOrTrainModel(&model, Ctx(), opts, dir);
  EXPECT_GT(first.steps, 0);

  TurlModel reloaded(config, Ctx().vocab.size(), Ctx().entity_vocab.size(),
                     99);  // Different init seed.
  PretrainResult second = GetOrTrainModel(&reloaded, Ctx(), opts, dir);
  EXPECT_EQ(second.steps, 0);  // Loaded from cache, no training.
  const nn::Tensor wa = model.word_embedding().weight();
  const nn::Tensor wb = reloaded.word_embedding().weight();
  for (int64_t i = 0; i < std::min<int64_t>(wa.numel(), 200); ++i) {
    EXPECT_FLOAT_EQ(wa.at(i), wb.at(i));
  }
}

TEST(PretrainerTest, LossDecreasesAndAccuracyImproves) {
  TurlConfig config = SmallConfig();
  config.learning_rate = 1e-3f;
  TurlModel model(config, Ctx().vocab.size(), Ctx().entity_vocab.size(), 1);
  Pretrainer pretrainer(&model, &Ctx());

  Rng eval_rng(100);
  const double acc_before =
      pretrainer.EvaluateObjectPrediction(30, 2, &eval_rng);

  Pretrainer::Options opts;
  opts.epochs = 6;
  opts.max_train_tables = 200;
  opts.max_eval_tables = 30;
  opts.max_eval_cells_per_table = 2;
  PretrainResult result = pretrainer.Train(opts);
  // A handful of tables may yield no masked targets and are skipped.
  EXPECT_GE(result.steps, 6 * 200 - 20);
  EXPECT_LE(result.steps, 6 * 200);
  EXPECT_GT(result.final_accuracy, acc_before + 0.03)
      << "pre-training must beat the untrained model";
  EXPECT_LT(result.final_loss, 12.0);
}

TEST(PretrainerTest, EvalCurveRecorded) {
  TurlConfig config = SmallConfig();
  TurlModel model(config, Ctx().vocab.size(), Ctx().entity_vocab.size(), 1);
  Pretrainer pretrainer(&model, &Ctx());
  Pretrainer::Options opts;
  opts.epochs = 1;
  opts.max_train_tables = 60;
  opts.eval_every = 20;
  opts.max_eval_tables = 10;
  PretrainResult result = pretrainer.Train(opts);
  // 3 periodic evals + the final one.
  EXPECT_EQ(result.eval_curve.size(), 4u);
  EXPECT_EQ(result.eval_curve[0].first, 20);
  EXPECT_EQ(result.eval_curve.back().first, 60);
}

}  // namespace
}  // namespace core
}  // namespace turl
