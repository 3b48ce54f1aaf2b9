// The two bulk workloads. bulk_heads: repeated tasks::BulkScores jobs, one
// full micro-batch each, cycling through the six task heads on small
// held-out tables. bulk_wide: encode-only jobs through BatchScheduler ->
// InferenceSession::EncodeBatch over tall tables.
#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>

#include "common.h"
#include "kb/lookup.h"
#include "nn/train_parallel.h"
#include "obs/eventlog.h"
#include "rt/batch_scheduler.h"
#include "rt/inference_session.h"
#include "tasks/cell_filling.h"
#include "tasks/column_type.h"
#include "tasks/entity_linking.h"
#include "tasks/relation_extraction.h"
#include "tasks/row_population.h"
#include "tasks/schema_augmentation.h"
#include "tasks/task_head.h"
#include "util/logging.h"
#include "util/rng.h"

namespace turl {
namespace perfbench {
namespace {

constexpr int kCorpusTables = 3000;
/// Items per job: one full micro-batch of this many tables (the default
/// BatchSchedulerOptions::max_batch_tables for bulk_heads).
constexpr int kHeadJobItems = 32;
constexpr int kWideJobItems = 4;


rt::BatchSchedulerOptions JobBatch(int items) {
  rt::BatchSchedulerOptions options;
  options.max_batch_tables = items;
  options.max_batch_budget = int64_t(1) << 30;  // One batch per job.
  return options;
}

/// Every held-out table: the valid+test splits.
std::vector<size_t> HeldOut(const core::TurlContext& ctx) {
  std::vector<size_t> all = ctx.corpus.valid;
  all.insert(all.end(), ctx.corpus.test.begin(), ctx.corpus.test.end());
  return all;
}

/// Wraps a task head so BulkScores times its Encode and ScoresFrom calls
/// from outside (the traced run's tasks.* spans).
template <typename Head>
struct TimedHead {
  const Head* head;
  Spans* spans;
  std::string encode_span;
  std::string score_span;

  template <typename Instance>
  core::EncodedTable Encode(const Instance& instance) const {
    SpanTimer timer(spans, encode_span);
    return head->Encode(instance);
  }
  template <typename Instance>
  std::vector<float> ScoresFrom(const nn::Tensor& hidden,
                                const core::EncodedTable& encoded,
                                const Instance& instance) const {
    SpanTimer timer(spans, score_span);
    return head->ScoresFrom(hidden, encoded, instance);
  }
};

/// One task head's jobs, type-erased: `run(job, session, spans)` scores one
/// job's instances; `reference` holds the 1-thread scores per instance.
struct HeadJobs {
  std::string name;
  size_t jobs = 0;
  std::function<std::vector<std::vector<float>>(
      size_t, const rt::InferenceSession&, Spans*)>
      run;
  std::function<std::vector<std::vector<float>>(const rt::InferenceSession&)>
      run_all;
  std::vector<size_t> gold;  ///< Gold option index per instance.
  std::vector<std::vector<float>> reference;
  uint64_t digest = 0;
};

/// The head's pool: one instance per table of `tables`, with the gold
/// option from `gold_of` (instances without one are skipped), in an order
/// drawn from `seed`, cut into full jobs. The seed decides which instances
/// share a job and which are left over; the instance set is the same for
/// every seed, so the cost of a pass over the pool barely moves with it.
template <typename Head, typename Instance>
HeadJobs MakeHeadJobs(const std::string& name, const Head* head,
                      const std::set<size_t>& tables,
                      const std::vector<Instance>& candidates,
                      const std::function<int(const Instance&)>& gold_of,
                      uint64_t seed) {
  std::vector<Instance> found;
  std::vector<size_t> found_gold;
  std::set<size_t> used_tables;
  for (const Instance& inst : candidates) {
    // One instance per held-out table spreads each pool over the split.
    if (!tables.count(inst.table_index) ||
        !used_tables.insert(inst.table_index).second) {
      continue;
    }
    const int gold = gold_of(inst);
    if (gold < 0) continue;
    found.push_back(inst);
    found_gold.push_back(size_t(gold));
  }
  std::vector<size_t> order(found.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  rng.Shuffle(&order);

  HeadJobs out;
  out.name = name;
  out.jobs = found.size() / kHeadJobItems;
  TURL_CHECK_GT(out.jobs, 0u) << name << ": too few instances";
  order.resize(out.jobs * kHeadJobItems);
  auto pool = std::make_shared<std::vector<Instance>>();
  out.digest = 0xCBF29CE484222325ull;
  for (size_t i : order) {
    pool->push_back(found[i]);
    out.gold.push_back(found_gold[i]);
    out.digest = DigestTable(out.digest, head->Encode(found[i]));
  }
  auto chunks = std::make_shared<std::vector<std::vector<Instance>>>();
  for (size_t j = 0; j < out.jobs; ++j) {
    chunks->emplace_back(pool->begin() + j * kHeadJobItems,
                         pool->begin() + (j + 1) * kHeadJobItems);
  }
  out.run = [head, chunks, name](size_t job,
                                 const rt::InferenceSession& session,
                                 Spans* spans) {
    if (spans == nullptr) {
      return tasks::BulkScores(*head, (*chunks)[job], session, JobBatch(kHeadJobItems));
    }
    const TimedHead<Head> timed{head, spans, "tasks.encode_input_ms." + name,
                                "tasks.score_ms." + name};
    return tasks::BulkScores(timed, (*chunks)[job], session, JobBatch(kHeadJobItems));
  };
  out.run_all = [head, pool](const rt::InferenceSession& session) {
    return tasks::BulkScores(*head, *pool, session);
  };
  return out;
}

/// rt-layer metrics from the scheduler's own wide events since `since_ms`
/// (BatchScheduler::NowMs clock): BulkRun's scheduler emits one per request.
void RtEventLayers(double since_ms, MetricMap* out) {
  std::vector<double> queue, batch, encode;
  for (const obs::WideEvent& e : obs::EventLog::Get().Snapshot()) {
    if (e.origin == nullptr || std::strcmp(e.origin, "rt") != 0 ||
        e.end_ms < since_ms) {
      continue;
    }
    queue.push_back(e.queue_wait_us / 1e3);
    batch.push_back(double(e.batch_size));
    encode.push_back(e.encode_us / 1e3);
  }
  if (queue.empty()) return;
  (*out)["rt.queue_wait_ms"] = {Mean(queue), "ms"};
  (*out)["rt.batch_size"] = {Mean(batch), "requests"};
  (*out)["rt.encode_batch_ms"] = {Mean(encode), "ms"};
}

class BulkHeads final : public Workload {
 public:
  explicit BulkHeads(const Options& options) : options_(options) {}

  void Setup() override {
    nn::SetTrainThreads(1);
    core::ContextConfig config;
    config.corpus.num_tables = kCorpusTables;
    config.seed = kWorldSeed;
    ctx_ = core::BuildContext(config);
    model_ = BuildAndLoadModel(ctx_, options_.scratch_dir, "bulk_heads");
    core::TurlModel* model = model_.model.get();
    const std::vector<size_t> held_out = HeldOut(ctx_);
    const std::set<size_t> tables(held_out.begin(), held_out.end());
    const uint64_t head_seed = 5;
    uint64_t order_stream = 10;  // One job-order stream per head.

    lookup_ = std::make_unique<kb::LookupService>(&ctx_.world.kb);
    // Entity linking looks up every cell; a few per table suffice.
    std::vector<tasks::ElInstance> el;
    for (size_t idx : held_out) {
      const tasks::ElDataset one = tasks::BuildElDataset(
          ctx_, *lookup_, {idx}, /*candidate_k=*/50,
          /*drop_unreachable=*/true, /*max_instances=*/4);
      el.insert(el.end(), one.instances.begin(), one.instances.end());
    }
    linker_ = std::make_unique<tasks::TurlEntityLinker>(
        model, &ctx_, tasks::ElRepresentation{}, head_seed);
    heads_.push_back(MakeHeadJobs<tasks::TurlEntityLinker, tasks::ElInstance>(
        "entity_linking", linker_.get(), tables, el,
        [](const tasks::ElInstance& i) {
          auto it = std::find(i.candidates.begin(), i.candidates.end(), i.gold);
          return it == i.candidates.end() ? -1
                                          : int(it - i.candidates.begin());
        },
        MixSeed(options_.seed, order_stream++)));

    column_types_ = tasks::BuildColumnTypeDataset(ctx_);
    typer_ = std::make_unique<tasks::TurlColumnTyper>(
        model, &ctx_, &column_types_, tasks::InputVariant::Full(), head_seed);
    heads_.push_back(
        MakeHeadJobs<tasks::TurlColumnTyper, tasks::ColumnTypeInstance>(
            "column_type", typer_.get(), tables,
            Concat(column_types_.valid, column_types_.test),
            [](const tasks::ColumnTypeInstance& i) {
              return i.labels.empty() ? -1 : i.labels.front();
            },
            MixSeed(options_.seed, order_stream++)));

    relations_ = tasks::BuildRelationDataset(ctx_);
    extractor_ = std::make_unique<tasks::TurlRelationExtractor>(
        model, &ctx_, &relations_, tasks::InputVariant::Full(), head_seed);
    heads_.push_back(
        MakeHeadJobs<tasks::TurlRelationExtractor, tasks::RelationInstance>(
            "relation_extraction", extractor_.get(), tables,
            Concat(relations_.valid, relations_.test),
            [](const tasks::RelationInstance& i) { return i.label; },
            MixSeed(options_.seed, order_stream++)));

    row_candidates_ = std::make_unique<baselines::RowPopCandidateGenerator>(
        ctx_.corpus, ctx_.corpus.train);
    populator_ = std::make_unique<tasks::TurlRowPopulator>(model, &ctx_);
    heads_.push_back(MakeHeadJobs<tasks::TurlRowPopulator,
                                  tasks::RowPopInstance>(
        "row_population", populator_.get(), tables,
        tasks::BuildRowPopInstances(ctx_, *row_candidates_, held_out,
                                    /*num_seeds=*/1, /*min_subjects=*/3),
        [this](const tasks::RowPopInstance& i) {
          // Out-of-vocabulary candidates are pushed below every other one;
          // the gold option is the first in-vocabulary gold candidate.
          for (kb::EntityId g : i.gold) {
            if (!ctx_.entity_vocab.Contains(g)) continue;
            auto it = std::find(i.candidates.begin(), i.candidates.end(), g);
            if (it != i.candidates.end()) return int(it - i.candidates.begin());
          }
          return -1;
        },
        MixSeed(options_.seed, order_stream++)));

    cell_index_ = std::make_unique<baselines::CellFillingIndex>(
        ctx_.corpus, ctx_.corpus.train);
    filler_ = std::make_unique<tasks::TurlCellFiller>(model, &ctx_);
    heads_.push_back(
        MakeHeadJobs<tasks::TurlCellFiller, tasks::CellFillInstance>(
            "cell_filling", filler_.get(), tables,
            tasks::BuildCellFillInstances(ctx_, *cell_index_, held_out),
            [this](const tasks::CellFillInstance& i) {
              if (!ctx_.entity_vocab.Contains(i.gold)) return -1;
              for (size_t k = 0; k < i.candidates.size(); ++k) {
                if (i.candidates[k].entity == i.gold) return int(k);
              }
              return -1;
            },
            MixSeed(options_.seed, order_stream++)));

    headers_ = tasks::BuildHeaderVocab(ctx_);
    augmenter_ = std::make_unique<tasks::TurlSchemaAugmenter>(
        model, &ctx_, &headers_, head_seed);
    heads_.push_back(MakeHeadJobs<tasks::TurlSchemaAugmenter,
                                  tasks::SchemaAugInstance>(
        "schema_augmentation", augmenter_.get(), tables,
        tasks::BuildSchemaAugInstances(ctx_, headers_, held_out,
                                       /*num_seeds=*/1),
        [](const tasks::SchemaAugInstance& i) {
          return i.gold_headers.empty() ? -1 : i.gold_headers.front();
        },
        MixSeed(options_.seed, order_stream++)));

    session_ = std::make_unique<rt::InferenceSession>(
        *model, rt::SessionOptions{.num_threads = ComputeThreads()});
    // Warm-up: two jobs of every head, so its shapes have been allocated
    // before; the unmeasured run before each window covers the rest.
    for (HeadJobs& h : heads_) {
      for (size_t j = 0; j < std::min<size_t>(2, h.jobs); ++j) {
        (void)h.run(j, *session_, nullptr);
      }
    }
  }

  std::string ThreadReport() const override {
    std::ostringstream os;
    os << "bulk_heads threads: compute " << ComputeThreads()
       << " (session pool, caller included; kernel pool inline) + generator "
          "0 = "
       << ComputeThreads() << " of " << Cores() << " cores";
    return os.str();
  }

  Window Run(double seconds, Spans* spans) override {
    Reference();
    Window w;
    w.seconds = seconds;
    const double since_ms = rt::BatchScheduler::NowMs();
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (size_t job = 0; Clock::now() < stop; ++job) {
      HeadJobs& h = heads_[job % heads_.size()];
      const size_t j = (job / heads_.size()) % h.jobs;
      const Clock::time_point t0 = Clock::now();
      const std::vector<std::vector<float>> scores =
          h.run(j, *session_, spans);
      const Clock::time_point t1 = Clock::now();
      // Verification, outside the job's timed interval.
      Sample sample{SecondsBetween(start, t1), MsBetween(t0, t1), 0};
      w.attempted += kHeadJobItems;
      for (size_t k = 0; k < size_t(kHeadJobItems); ++k) {
        const bool ok = k < scores.size() &&
                        SameBits(scores[k], h.reference[j * kHeadJobItems + k]);
        if (ok) {
          ++sample.items;
        } else {
          ++w.failed;
        }
      }
      w.samples.push_back(sample);
    }
    if (spans != nullptr) {
      RtEventLayers(since_ms, &w.layers);
      for (const HeadJobs& h : heads_) {
        for (const std::string& span :
             {"tasks.encode_input_ms." + h.name, "tasks.score_ms." + h.name}) {
          double ms = 0.0;
          if (spans->MeanMs(span, &ms)) w.layers[span] = {ms, "ms"};
        }
      }
    }
    return w;
  }

  double LossNats() override {
    Reference();
    // Every head weighs the same, whatever its pool size.
    double sum = 0.0;
    for (const HeadJobs& h : heads_) {
      double head_sum = 0.0;
      for (size_t i = 0; i < h.reference.size(); ++i) {
        head_sum += NegLogSoftmax(h.reference[i], h.gold[i]);
      }
      sum += head_sum / double(h.reference.size());
    }
    return sum / double(heads_.size());
  }

  uint64_t InputDigest() const override {
    uint64_t d = 0;
    for (const HeadJobs& h : heads_) d = d * 31 + h.digest;
    return d;
  }

  void CoreProbe(MetricMap* out) override {
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    std::vector<core::EncodedTable> tables;
    double ms = 0.0;
    for (size_t idx : ctx_.corpus.valid) {
      const Clock::time_point t0 = Clock::now();
      tables.push_back(core::EncodeTable(ctx_.corpus.tables[idx], tokenizer,
                                         ctx_.entity_vocab));
      ms += MsBetween(t0, Clock::now());
    }
    if (!tables.empty()) {
      (*out)["core.encode_table_ms"] = {ms / double(tables.size()), "ms"};
    }
    CoreProbeOver(*model_.model, tables, options_.seed, out);
  }

  double LoadMs() const override { return model_.load_ms; }

 private:
  template <typename T>
  static std::vector<T> Concat(const std::vector<T>& a,
                               const std::vector<T>& b) {
    std::vector<T> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  /// The 1-thread in-process reference scores, computed once, outside
  /// every timed window.
  void Reference() {
    if (!heads_.empty() && !heads_.front().reference.empty()) return;
    const rt::InferenceSession reference_session(
        *model_.model, rt::SessionOptions{.num_threads = 1});
    for (HeadJobs& h : heads_) {
      h.reference = h.run_all(reference_session);
      if (options_.corrupt_reference) {
        for (std::vector<float>& r : h.reference) CorruptInPlace(&r);
      }
    }
  }

  Options options_;
  core::TurlContext ctx_;
  LoadedModel model_;
  std::unique_ptr<kb::LookupService> lookup_;
  tasks::ColumnTypeDataset column_types_;
  tasks::RelationDataset relations_;
  tasks::HeaderVocab headers_;
  std::unique_ptr<baselines::RowPopCandidateGenerator> row_candidates_;
  std::unique_ptr<baselines::CellFillingIndex> cell_index_;
  std::unique_ptr<tasks::TurlEntityLinker> linker_;
  std::unique_ptr<tasks::TurlColumnTyper> typer_;
  std::unique_ptr<tasks::TurlRelationExtractor> extractor_;
  std::unique_ptr<tasks::TurlRowPopulator> populator_;
  std::unique_ptr<tasks::TurlCellFiller> filler_;
  std::unique_ptr<tasks::TurlSchemaAugmenter> augmenter_;
  std::unique_ptr<rt::InferenceSession> session_;
  std::vector<HeadJobs> heads_;
};

// --- bulk_wide ------------------------------------------------------------

constexpr int kWideCorpusTables = 300;
constexpr int kWidePoolTables = 60;
constexpr int kWideMinElements = 200;
constexpr int kWideMaxElements = 250;

class BulkWide final : public Workload {
 public:
  explicit BulkWide(const Options& options) : options_(options) {}

  void Setup() override {
    nn::SetTrainThreads(1);
    ctx_ = core::BuildContext(WideConfig());
    model_ = BuildAndLoadModel(ctx_, options_.scratch_dir, "bulk_wide");
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    std::vector<core::EncodedTable> band;
    std::vector<size_t> band_index;
    for (size_t i = 0; i < ctx_.corpus.tables.size(); ++i) {
      core::EncodedTable t = core::EncodeTable(
          ctx_.corpus.tables[i], tokenizer, ctx_.entity_vocab, Encoding());
      // A narrow size band keeps the per-table cost, and so the figures,
      // independent of which tables a seed happens to draw.
      if (t.total() >= kWideMinElements && t.total() < kWideMaxElements) {
        band_index.push_back(band.size());
        band.push_back(std::move(t));
        pool_source_.push_back(&ctx_.corpus.tables[i]);
      }
    }
    const std::vector<size_t> picked = SampleSeeded(
        band_index, size_t(kWidePoolTables), MixSeed(options_.seed, 2));
    TURL_CHECK_EQ(picked.size(), size_t(kWidePoolTables));
    std::vector<const data::Table*> sources;
    for (size_t i : picked) {
      pool_.push_back(std::move(band[i]));
      sources.push_back(pool_source_[i]);
    }
    pool_source_ = std::move(sources);
    session_ = std::make_unique<rt::InferenceSession>(
        *model_.model, rt::SessionOptions{.num_threads = ComputeThreads()});
    // Warm-up: every job once, so each shape has been allocated before.
    for (size_t j = 0; j < pool_.size() / kWideJobItems; ++j) {
      (void)RunJob(j);
    }
  }

  std::string ThreadReport() const override {
    std::ostringstream os;
    os << "bulk_wide threads: compute " << ComputeThreads()
       << " (session pool, caller included; kernel pool inline) + generator "
          "0 = "
       << ComputeThreads() << " of " << Cores() << " cores";
    return os.str();
  }

  Window Run(double seconds, Spans* spans) override {
    Reference();
    Window w;
    w.seconds = seconds;
    const size_t jobs = pool_.size() / kWideJobItems;
    std::vector<double> queue, batch, encode;
    double single_ms = 0.0, batch_wall_ms = 0.0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (size_t job = 0; Clock::now() < stop; ++job) {
      const size_t j = job % jobs;
      const Clock::time_point t0 = Clock::now();
      std::vector<rt::Response> responses = RunJob(j);
      const Clock::time_point t1 = Clock::now();
      Sample sample{SecondsBetween(start, t1), MsBetween(t0, t1), 0};
      w.attempted += kWideJobItems;
      for (size_t k = 0; k < responses.size(); ++k) {
        const rt::Response& r = responses[k];
        const size_t table = j * kWideJobItems + k;
        const bool ok =
            r.status == rt::ResponseStatus::kOk && r.hidden.defined() &&
            SameBits(r.hidden.data(), size_t(r.hidden.numel()),
                     reference_[table]);
        if (ok) {
          ++sample.items;
        } else {
          ++w.failed;
        }
        queue.push_back(r.queue_wait_ms);
        batch.push_back(double(r.batch_size));
        encode.push_back(r.encode_ms);
        single_ms += single_ms_[table];
      }
      w.failed += kWideJobItems - int64_t(responses.size());
      w.samples.push_back(sample);
      if (!responses.empty()) batch_wall_ms += responses.front().encode_ms;
    }
    if (spans != nullptr && !queue.empty()) {
      w.layers["rt.queue_wait_ms"] = {Mean(queue), "ms"};
      w.layers["rt.batch_size"] = {Mean(batch), "requests"};
      w.layers["rt.encode_batch_ms"] = {Mean(encode), "ms"};
      w.layers["rt.parallel_eff"] = {
          single_ms / (double(session_->num_threads()) * batch_wall_ms),
          "ratio"};
    }
    return w;
  }

  double LossNats() override {
    Reference();
    double sum = 0.0;
    int64_t rows = 0;
    for (size_t j = 0; j < pool_.size(); ++j) {
      MlmTokenLoss(*model_.model, pool_[j], reference_[j], &sum, &rows);
    }
    return rows > 0 ? sum / double(rows) : 0.0;
  }

  uint64_t InputDigest() const override {
    uint64_t h = 0xCBF29CE484222325ull;
    for (const core::EncodedTable& t : pool_) h = DigestTable(h, t);
    return h;
  }

  void CoreProbe(MetricMap* out) override {
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    double ms = 0.0;
    for (const data::Table* table : pool_source_) {
      const Clock::time_point t0 = Clock::now();
      (void)core::EncodeTable(*table, tokenizer, ctx_.entity_vocab,
                              Encoding());
      ms += MsBetween(t0, Clock::now());
    }
    (*out)["core.encode_table_ms"] = {ms / double(pool_.size()), "ms"};
    CoreProbeOver(*model_.model, pool_, options_.seed, out);
  }

  double LoadMs() const override { return model_.load_ms; }

 private:
  /// Tall tables: a larger KB gives every group enough subjects for the
  /// raised row bounds.
  static core::ContextConfig WideConfig() {
    core::ContextConfig config;
    config.corpus.num_tables = kWideCorpusTables;
    config.corpus.min_rows = 40;
    config.corpus.max_rows = 100;
    config.kb.num_athletes = 2000;
    config.seed = kWorldSeed;
    return config;
  }
  static core::EncodeOptions Encoding() {
    core::EncodeOptions options;
    options.max_rows = 100;
    return options;
  }

  /// One job: a full micro-batch through the scheduler.
  std::vector<rt::Response> RunJob(size_t job) {
    std::vector<rt::Response> responses;
    responses.reserve(kWideJobItems);
    rt::BatchScheduler scheduler(session_.get(), JobBatch(kWideJobItems));
    for (size_t k = 0; k < size_t(kWideJobItems); ++k) {
      rt::Request request;
      request.table = &pool_[job * kWideJobItems + k];
      request.request_id = k;
      request.done = [&responses](rt::Response r) {
        responses.push_back(std::move(r));
      };
      scheduler.Submit(std::move(request));
    }
    scheduler.Flush();
    return responses;
  }

  /// 1-thread reference encodes and single-table times, outside every
  /// timed window.
  void Reference() {
    if (!reference_.empty()) return;
    const rt::InferenceSession reference_session(
        *model_.model, rt::SessionOptions{.num_threads = 1});
    for (const core::EncodedTable& t : pool_) {
      const Clock::time_point t0 = Clock::now();
      nn::Tensor hidden = reference_session.Encode(t);
      single_ms_.push_back(MsBetween(t0, Clock::now()));
      reference_.push_back(hidden.ToVector());
      if (options_.corrupt_reference) CorruptInPlace(&reference_.back());
    }
  }

  Options options_;
  core::TurlContext ctx_;
  LoadedModel model_;
  std::vector<core::EncodedTable> pool_;
  std::vector<const data::Table*> pool_source_;
  std::unique_ptr<rt::InferenceSession> session_;
  std::vector<std::vector<float>> reference_;
  std::vector<double> single_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeBulkHeads(const Options& options) {
  return std::make_unique<BulkHeads>(options);
}

std::unique_ptr<Workload> MakeBulkWide(const Options& options) {
  return std::make_unique<BulkWide>(options);
}

}  // namespace perfbench
}  // namespace turl
