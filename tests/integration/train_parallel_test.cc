// End-to-end determinism of task-graph parallel training: pretraining and
// every fine-tuning head must be bit-identical at TURL_TRAIN_THREADS=4 and
// =1, with and without sharded gradient accumulation, and a sharded run
// killed mid-flight must resume bit-identically on a different thread count.
// This is the acceptance suite for the parallel training executor
// (`ctest -L train`).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/row_population.h"
#include "core/context.h"
#include "core/model.h"
#include "core/pretrain.h"
#include "gtest/gtest.h"
#include "kb/lookup.h"
#include "nn/train_parallel.h"
#include "tasks/column_type.h"
#include "tasks/entity_linking.h"
#include "tasks/relation_extraction.h"
#include "tasks/row_population.h"
#include "tasks/schema_augmentation.h"

namespace turl {
namespace {

/// Restores the sequential default on scope exit so no test (or failure)
/// leaks a thread count into its neighbors.
struct ThreadGuard {
  ~ThreadGuard() { nn::SetTrainThreads(1); }
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

const core::TurlContext& Ctx() {
  static core::TurlContext* ctx = [] {
    core::ContextConfig config;
    config.corpus.num_tables = 150;
    config.seed = 42;
    return new core::TurlContext(core::BuildContext(config));
  }();
  return *ctx;
}

core::TurlConfig TinyConfig() {
  core::TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

core::Pretrainer::Options BaseOptions() {
  core::Pretrainer::Options opts;
  opts.epochs = 2;
  opts.max_train_tables = 12;
  opts.eval_every = 6;
  opts.max_eval_tables = 4;
  opts.max_eval_cells_per_table = 2;
  opts.seed = 7;
  return opts;
}

std::vector<std::vector<float>> ParamsOf(const core::TurlModel& model) {
  std::vector<std::vector<float>> out;
  for (const auto& [name, t] : model.params().params()) {
    out.push_back(t.ToVector());
  }
  return out;
}

void ExpectBitIdentical(const std::vector<std::vector<float>>& a,
                        const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "param " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i][j], b[i][j])
          << "weight divergence at param " << i << " element " << j;
    }
  }
}

struct PretrainRun {
  core::PretrainResult result;
  std::vector<std::vector<float>> params;
};

PretrainRun RunPretrain(const core::Pretrainer::Options& opts, int threads,
                        const core::TurlConfig& config = TinyConfig()) {
  nn::SetTrainThreads(threads);
  core::TurlModel model(config, Ctx().vocab.size(), Ctx().entity_vocab.size(),
                        1);
  core::Pretrainer pretrainer(&model, &Ctx());
  PretrainRun run{pretrainer.Train(opts), ParamsOf(model)};
  nn::SetTrainThreads(1);
  return run;
}

void ExpectSameResult(const core::PretrainResult& a,
                      const core::PretrainResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  ASSERT_EQ(a.eval_curve.size(), b.eval_curve.size());
  for (size_t i = 0; i < a.eval_curve.size(); ++i) {
    EXPECT_EQ(a.eval_curve[i].first, b.eval_curve[i].first);
    EXPECT_DOUBLE_EQ(a.eval_curve[i].second, b.eval_curve[i].second);
  }
}

TEST(PretrainParallelTest, ClassicPathBitIdenticalAcrossThreadCounts) {
  // grad_accum_tables = 1: the per-table tape itself runs on the task-graph
  // executor at 4 threads; weights, loss and the eval curve must not move
  // by a single bit.
  ThreadGuard guard;
  const PretrainRun seq = RunPretrain(BaseOptions(), /*threads=*/1);
  const PretrainRun par = RunPretrain(BaseOptions(), /*threads=*/4);
  ExpectSameResult(seq.result, par.result);
  ExpectBitIdentical(seq.params, par.params);
}

TEST(PretrainParallelTest, ClassicPathBitIdenticalAtReproScale) {
  // The case above at repro scale: the default model (2 layers, 4 heads) and
  // 48 tables give the K=1 tape executor far more independent tasks per step
  // than the tiny model. A missing ordering edge between tape tasks need not
  // change the bits on every run, so four parallel runs face one sequential
  // run.
  ThreadGuard guard;
  core::Pretrainer::Options opts;
  opts.epochs = 1;
  opts.max_train_tables = 48;
  opts.eval_every = 0;
  const core::TurlConfig config;  // Repro-scale defaults.
  const PretrainRun seq = RunPretrain(opts, /*threads=*/1, config);
  for (int run = 0; run < 4; ++run) {
    const PretrainRun par = RunPretrain(opts, /*threads=*/4, config);
    ExpectSameResult(seq.result, par.result);
    ExpectBitIdentical(seq.params, par.params);
  }
}

TEST(PretrainParallelTest, ShardedPathBitIdenticalAcrossThreadCounts) {
  // grad_accum_tables = 3: concurrent per-shard tapes + fixed-order
  // reduction. The 1-thread run executes shards inline in ascending order;
  // the 4-thread run overlaps them — identical bits either way.
  ThreadGuard guard;
  core::Pretrainer::Options opts = BaseOptions();
  opts.grad_accum_tables = 3;
  const PretrainRun seq = RunPretrain(opts, /*threads=*/1);
  const PretrainRun par = RunPretrain(opts, /*threads=*/4);
  EXPECT_GT(seq.result.steps, 0);
  ExpectSameResult(seq.result, par.result);
  ExpectBitIdentical(seq.params, par.params);
}

TEST(PretrainParallelTest, ShardedKillResumeMatchesUninterruptedAnyThreads) {
  // A sharded 4-thread run killed mid-epoch must resume from its periodic
  // checkpoint and land exactly on the uninterrupted 1-thread run: the
  // checkpoint fingerprint and the shard RNG streams are thread-agnostic.
  ThreadGuard guard;
  core::Pretrainer::Options opts = BaseOptions();
  opts.grad_accum_tables = 3;  // 12 tables / 3 -> 4 steps per epoch.
  const PretrainRun reference = RunPretrain(opts, /*threads=*/1);
  ASSERT_GE(reference.result.steps, 6) << "kill point unreachable";

  opts.ckpt_dir = FreshDir("train_parallel_resume");
  opts.save_every = 2;
  {
    nn::SetTrainThreads(4);
    core::TurlModel model(TinyConfig(), Ctx().vocab.size(),
                          Ctx().entity_vocab.size(), 1);
    core::Pretrainer pretrainer(&model, &Ctx());
    core::Pretrainer::Options killed = opts;
    killed.max_steps = 5;  // Mid-save-interval, inside epoch 1.
    const core::PretrainResult partial = pretrainer.Train(killed);
    nn::SetTrainThreads(1);
    ASSERT_EQ(partial.steps, 5) << "kill point was never reached";
  }
  const PretrainRun resumed = RunPretrain(opts, /*threads=*/4);
  ExpectSameResult(reference.result, resumed.result);
  ExpectBitIdentical(reference.params, resumed.params);
}

// ---------------------------------------------------------------------------
// Fine-tuning heads: each must produce bit-identical model weights AND head
// scores at 1 and 4 threads (head parameters are private to the task, so
// probe scores pin them down). Cell filling has no fine-tuning loop — its
// scoring path is covered by the pretraining identity above.
// ---------------------------------------------------------------------------

tasks::FinetuneOptions QuickFinetune() {
  tasks::FinetuneOptions ft;
  ft.epochs = 1;
  ft.max_tables = 12;
  return ft;
}

std::unique_ptr<core::TurlModel> FreshModel() {
  return std::make_unique<core::TurlModel>(
      TinyConfig(), Ctx().vocab.size(), Ctx().entity_vocab.size(), 11);
}

void ExpectScoresBitIdentical(const std::vector<std::vector<float>>& a,
                              const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "probe " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i][j], b[i][j]) << "probe " << i << " score " << j;
    }
  }
}

/// Fine-tunes one head at `threads` and returns (model params, probe
/// scores). `run` owns building the task object and returning probe scores.
template <typename RunFn>
std::pair<std::vector<std::vector<float>>, std::vector<std::vector<float>>>
FinetuneAt(int threads, const RunFn& run) {
  nn::SetTrainThreads(threads);
  auto model = FreshModel();
  std::vector<std::vector<float>> scores = run(model.get());
  nn::SetTrainThreads(1);
  return {ParamsOf(*model), std::move(scores)};
}

template <typename RunFn>
void ExpectFinetuneBitIdentical(const RunFn& run) {
  ThreadGuard guard;
  const auto seq = FinetuneAt(1, run);
  const auto par = FinetuneAt(4, run);
  ExpectBitIdentical(seq.first, par.first);
  ExpectScoresBitIdentical(seq.second, par.second);
}

TEST(FinetuneParallelTest, SchemaAugmentationBitIdentical) {
  tasks::HeaderVocab vocab = tasks::BuildHeaderVocab(Ctx());
  const auto train = tasks::BuildSchemaAugInstances(
      Ctx(), vocab, Ctx().corpus.train, 0, 30);
  const auto probe = tasks::BuildSchemaAugInstances(
      Ctx(), vocab, Ctx().corpus.valid, 0, 4);
  ASSERT_FALSE(train.empty());
  ASSERT_FALSE(probe.empty());
  ExpectFinetuneBitIdentical([&](core::TurlModel* model) {
    tasks::TurlSchemaAugmenter augmenter(model, &Ctx(), &vocab, 31);
    augmenter.Finetune(train, QuickFinetune());
    std::vector<std::vector<float>> scores;
    for (const auto& inst : probe) scores.push_back(augmenter.Scores(inst));
    return scores;
  });
}

TEST(FinetuneParallelTest, ColumnTypeBitIdentical) {
  static const tasks::ColumnTypeDataset& dataset =
      *new tasks::ColumnTypeDataset(tasks::BuildColumnTypeDataset(Ctx()));
  ASSERT_FALSE(dataset.train.empty());
  ASSERT_FALSE(dataset.valid.empty());
  const size_t probes = std::min<size_t>(dataset.valid.size(), 4);
  ExpectFinetuneBitIdentical([&](core::TurlModel* model) {
    tasks::TurlColumnTyper typer(model, &Ctx(), &dataset,
                                 tasks::InputVariant::Full(), 31);
    typer.Finetune(QuickFinetune());
    std::vector<std::vector<float>> scores;
    for (size_t i = 0; i < probes; ++i) {
      scores.push_back(typer.Scores(dataset.valid[i]));
    }
    return scores;
  });
}

TEST(FinetuneParallelTest, RelationExtractionBitIdentical) {
  static const tasks::RelationDataset& dataset =
      *new tasks::RelationDataset(tasks::BuildRelationDataset(Ctx()));
  ASSERT_FALSE(dataset.train.empty());
  ASSERT_FALSE(dataset.valid.empty());
  const size_t probes = std::min<size_t>(dataset.valid.size(), 4);
  ExpectFinetuneBitIdentical([&](core::TurlModel* model) {
    tasks::TurlRelationExtractor extractor(model, &Ctx(), &dataset,
                                           tasks::InputVariant::Full(), 31);
    extractor.Finetune(QuickFinetune());
    std::vector<std::vector<float>> scores;
    for (size_t i = 0; i < probes; ++i) {
      scores.push_back(extractor.Scores(dataset.valid[i]));
    }
    return scores;
  });
}

TEST(FinetuneParallelTest, EntityLinkingBitIdentical) {
  static kb::LookupService& lookup =
      *new kb::LookupService(&Ctx().world.kb);
  static const tasks::ElDataset& train = *new tasks::ElDataset(
      tasks::BuildElDataset(Ctx(), lookup, Ctx().corpus.train, 20,
                            /*drop_unreachable=*/true, 60));
  static const tasks::ElDataset& probe = *new tasks::ElDataset(
      tasks::BuildElDataset(Ctx(), lookup, Ctx().corpus.valid, 20, false, 6));
  ASSERT_FALSE(train.instances.empty());
  ASSERT_FALSE(probe.instances.empty());
  ExpectFinetuneBitIdentical([&](core::TurlModel* model) {
    tasks::TurlEntityLinker linker(model, &Ctx(), {true, true}, 31);
    linker.Finetune(train, QuickFinetune());
    std::vector<std::vector<float>> scores;
    for (const auto& inst : probe.instances) {
      scores.push_back(linker.Scores(inst));
    }
    return scores;
  });
}

TEST(FinetuneParallelTest, RowPopulationBitIdentical) {
  static const baselines::RowPopCandidateGenerator& gen =
      *new baselines::RowPopCandidateGenerator(Ctx().corpus,
                                               Ctx().corpus.train);
  static const std::vector<tasks::RowPopInstance>& train =
      *new std::vector<tasks::RowPopInstance>(
          tasks::BuildRowPopInstances(Ctx(), gen, Ctx().corpus.train, 1, 4,
                                      30));
  static const std::vector<tasks::RowPopInstance>& probe =
      *new std::vector<tasks::RowPopInstance>(
          tasks::BuildRowPopInstances(Ctx(), gen, Ctx().corpus.valid, 1, 6,
                                      4));
  ASSERT_FALSE(train.empty());
  ASSERT_FALSE(probe.empty());
  ExpectFinetuneBitIdentical([&](core::TurlModel* model) {
    tasks::TurlRowPopulator populator(model, &Ctx());
    populator.Finetune(train, QuickFinetune());
    std::vector<std::vector<float>> scores;
    for (const auto& inst : probe) scores.push_back(populator.Scores(inst));
    return scores;
  });
}

}  // namespace
}  // namespace turl
