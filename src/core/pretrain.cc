#include "core/pretrain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>

#include "ckpt/checkpoint.h"
#include "nn/train_parallel.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/server/handlers.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "rt/thread_pool.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/timer.h"

namespace turl {
namespace core {

namespace {

/// Configuration guard for pretraining checkpoints: everything the resumed
/// run must share with the saved one for bit-identical continuation. Epochs
/// and tables-per-epoch pin the LR schedule's total_steps; the seed pins the
/// RNG stream the checkpoint's saved state belongs to.
std::string PretrainFingerprint(const TurlConfig& cfg, uint64_t seed,
                                int epochs, size_t tables_per_epoch,
                                int grad_accum_tables) {
  std::string fp = "pretrain|" + cfg.CacheTag() + "|seed" +
                   std::to_string(seed) + "|ep" + std::to_string(epochs) +
                   "|tpe" + std::to_string(tables_per_epoch);
  // Only stamped when sharding changes the step sequence, so grad_accum == 1
  // keeps accepting every pre-sharding checkpoint.
  if (grad_accum_tables > 1) fp += "|ga" + std::to_string(grad_accum_tables);
  return fp;
}

}  // namespace

Pretrainer::Pretrainer(TurlModel* model, const TurlContext* ctx)
    : model_(model), ctx_(ctx) {
  TURL_CHECK(model != nullptr);
  TURL_CHECK(ctx != nullptr);
  TURL_TRACE_SCOPE("pretrain.encode_corpus");
  const text::WordPieceTokenizer tokenizer = ctx->MakeTokenizer();
  EncodeOptions opts;
  train_encoded_.reserve(ctx->corpus.train.size());
  for (size_t idx : ctx->corpus.train) {
    train_encoded_.push_back(
        EncodeTable(ctx->corpus.tables[idx], tokenizer, ctx->entity_vocab,
                    opts));
  }
  valid_encoded_.reserve(ctx->corpus.valid.size());
  for (size_t idx : ctx->corpus.valid) {
    valid_encoded_.push_back(
        EncodeTable(ctx->corpus.tables[idx], tokenizer, ctx->entity_vocab,
                    opts));
  }
  cooc_ = CooccurrenceIndex::Build(ctx->corpus, ctx->corpus.train,
                                   ctx->entity_vocab);
}

nn::Tensor Pretrainer::InstanceLoss(const PretrainInstance& instance,
                                    const EncodedTable& clean, Rng* rng,
                                    double* mlm_item, double* mer_item) const {
  const TurlConfig& cfg = model_->config();
  nn::Tensor hidden;
  {
    TURL_TRACE_SCOPE("train.encode");
    hidden = model_->Encode(instance.input, /*training=*/true, rng);
  }

  // MLM loss over selected token positions.
  std::vector<int> mlm_rows, mlm_targets;
  for (int i = 0; i < instance.input.num_tokens(); ++i) {
    if (instance.mlm_targets[size_t(i)] >= 0) {
      mlm_rows.push_back(i);
      mlm_targets.push_back(instance.mlm_targets[size_t(i)]);
    }
  }

  // MER loss over selected entity positions against the candidate set.
  std::vector<int> mer_rows, mer_target_ids;
  for (int i = 0; i < instance.input.num_entities(); ++i) {
    if (instance.mer_targets[size_t(i)] >= 0) {
      mer_rows.push_back(TurlModel::EntityHiddenRow(instance.input, i));
      mer_target_ids.push_back(instance.mer_targets[size_t(i)]);
    }
  }

  nn::Tensor loss;
  if (!mlm_rows.empty()) {
    TURL_TRACE_SCOPE("train.mlm");
    nn::Tensor mlm_loss = nn::SoftmaxCrossEntropy(
        model_->MlmLogits(hidden, mlm_rows), mlm_targets);
    if (mlm_item != nullptr) *mlm_item = double(mlm_loss.item());
    loss = mlm_loss;
  }
  if (!mer_rows.empty()) {
    TURL_TRACE_SCOPE("train.mer");
    std::vector<int> candidates =
        BuildMerCandidates(clean, cooc_, model_->entity_vocab_size(),
                           cfg.mer_max_candidates,
                           cfg.mer_min_random_negatives, rng);
    // Map each target to its index in the candidate list.
    std::vector<int> targets;
    targets.reserve(mer_target_ids.size());
    for (int id : mer_target_ids) {
      auto it = std::find(candidates.begin(), candidates.end(), id);
      TURL_CHECK(it != candidates.end())
          << "MER target missing from candidate set";
      targets.push_back(static_cast<int>(it - candidates.begin()));
    }
    nn::Tensor mer_loss = nn::SoftmaxCrossEntropy(
        model_->MerLogits(hidden, mer_rows, candidates), targets);
    if (mer_item != nullptr) *mer_item = double(mer_loss.item());
    loss = loss.defined() ? nn::Add(loss, mer_loss) : mer_loss;
  }
  return loss;
}

/// /healthz probe while a checkpointed run is live: readiness means "a save
/// would succeed right now", checked by touching a scratch file in the
/// checkpoint directory.
bool CkptDirWritable(const std::string& dir, std::string* detail) {
  const std::string probe_path = dir + "/.obs_probe";
  {
    std::ofstream out(probe_path, std::ios::trunc);
    out << "probe";
    if (!out.good()) {
      *detail = dir + " not writable";
      return false;
    }
  }
  std::remove(probe_path.c_str());
  *detail = dir;
  return true;
}

PretrainResult Pretrainer::Train(const Options& options) {
  TURL_TRACE_SCOPE("pretrain.train");
  // Pretraining is a long-running entry point: expose the live plane when
  // TURL_OBS_PORT asks for it (no-op otherwise).
  obs::server::StartFromEnv();
  PretrainResult result;
  const TurlConfig& cfg = model_->config();
  const int epochs = options.epochs > 0 ? options.epochs : cfg.pretrain_epochs;
  Rng rng(options.seed);

  size_t tables_per_epoch = train_encoded_.size();
  if (options.max_train_tables > 0) {
    tables_per_epoch = std::min(
        tables_per_epoch, static_cast<size_t>(options.max_train_tables));
  }
  const int grad_accum = std::max(1, options.grad_accum_tables);
  // One optimizer step consumes `grad_accum` tables, so the LR schedule's
  // horizon shrinks accordingly (identical to before at grad_accum == 1).
  const int64_t steps_per_epoch =
      (static_cast<int64_t>(tables_per_epoch) + grad_accum - 1) / grad_accum;
  const int64_t total_steps = steps_per_epoch * epochs;
  TURL_CHECK_GT(total_steps, 0);

  nn::Adam adam(model_->params(), nn::AdamConfig{.lr = cfg.learning_rate});
  nn::LinearDecaySchedule schedule(total_steps, /*final_fraction=*/0.05f);

  std::vector<size_t> order(train_encoded_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Telemetry window: sums since the last emitted record.
  obs::Counter* steps_counter =
      obs::MetricsRegistry::Get().GetCounter("pretrain.steps");
  WallTimer timer;
  double window_loss = 0.0, window_mlm = 0.0, window_mer = 0.0;
  int64_t window_steps = 0, window_mlm_n = 0, window_mer_n = 0;
  const auto emit_window = [&](int64_t step, int epoch, double eval_acc) {
    obs::TrainRecord record;
    record.phase = "pretrain";
    record.step = step;
    record.epoch = epoch;
    if (window_steps > 0) record.loss = window_loss / double(window_steps);
    if (window_mlm_n > 0) record.mlm_loss = window_mlm / double(window_mlm_n);
    if (window_mer_n > 0) record.mer_loss = window_mer / double(window_mer_n);
    if (!std::isnan(eval_acc)) {
      record.eval_metric = "object_prediction_acc";
      record.eval_value = eval_acc;
    }
    const double lap_sec = timer.LapMillis() / 1e3;
    if (window_steps > 0 && lap_sec > 0) {
      record.tables_per_sec = double(window_steps) / lap_sec;
    }
    record.elapsed_sec = timer.ElapsedSeconds();
    obs::EmitRecord(record, options.sink);
    window_loss = window_mlm = window_mer = 0.0;
    window_steps = window_mlm_n = window_mer_n = 0;
  };

  int64_t step = 0;
  double recent_loss = 0.0;
  int64_t recent_count = 0;
  int start_epoch = 0;
  size_t start_oi = 0;
  bool resumed_mid_epoch = false;

  std::unique_ptr<ckpt::CheckpointManager> manager;
  std::unique_ptr<obs::server::ScopedReadinessProbe> ckpt_probe;
  if (!options.ckpt_dir.empty()) {
    manager = std::make_unique<ckpt::CheckpointManager>(
        ckpt::CheckpointManager::Options{options.ckpt_dir,
                                         options.keep_last});
    ckpt_probe = std::make_unique<obs::server::ScopedReadinessProbe>(
        "ckpt_dir_writable", [dir = options.ckpt_dir](std::string* detail) {
          return CkptDirWritable(dir, detail);
        });
  }
  const std::string fingerprint = PretrainFingerprint(
      cfg, options.seed, epochs, tables_per_epoch, grad_accum);
  const auto bind = [&](ckpt::TrainState* st) {
    st->stores.emplace_back("model", model_->params());
    st->optims.emplace_back("adam", &adam);
    st->rng = &rng;
    st->fingerprint = fingerprint;
  };
  // `next_oi` is the position in `order` the resumed run continues from.
  const auto save_checkpoint = [&](int epoch, size_t next_oi) {
    ckpt::TrainState st;
    bind(&st);
    st.epoch = epoch;
    st.step_in_epoch = int64_t(next_oi);
    st.global_step = step;
    st.order.assign(order.begin(), order.end());
    st.counters = {recent_count, window_steps, window_mlm_n, window_mer_n};
    st.accumulators = {recent_loss, window_loss, window_mlm, window_mer};
    st.eval_curve = result.eval_curve;
    const Status s = manager->Save(st);
    if (!s.ok()) {
      TURL_LOG(Warning) << "pretrain checkpoint save failed: "
                        << s.ToString();
    }
  };

  if (manager != nullptr && options.resume) {
    ckpt::TrainState st;
    bind(&st);
    const Status s = manager->LoadLatest(&st);
    if (s.ok()) {
      TURL_CHECK_EQ(st.order.size(), order.size())
          << "checkpoint order covers a different corpus";
      TURL_CHECK_EQ(st.counters.size(), size_t(4));
      TURL_CHECK_EQ(st.accumulators.size(), size_t(4));
      start_epoch = int(st.epoch);
      start_oi = size_t(st.step_in_epoch);
      step = st.global_step;
      for (size_t i = 0; i < order.size(); ++i) order[i] = size_t(st.order[i]);
      recent_count = st.counters[0];
      window_steps = st.counters[1];
      window_mlm_n = st.counters[2];
      window_mer_n = st.counters[3];
      recent_loss = st.accumulators[0];
      window_loss = st.accumulators[1];
      window_mlm = st.accumulators[2];
      window_mer = st.accumulators[3];
      result.eval_curve = st.eval_curve;
      resumed_mid_epoch = true;
      TURL_LOG(Info) << "resumed pretraining at step " << step << " (epoch "
                     << start_epoch << ", position " << start_oi << ")";
    } else if (s.code() != StatusCode::kNotFound) {
      TURL_LOG(Warning) << "no usable checkpoint in " << options.ckpt_dir
                        << " (" << s.ToString() << "); starting fresh";
    }
  }

  // Shard gradient sinks for grad_accum > 1, built lazily and reused across
  // steps (Reset zeroes only what a shard touched).
  std::vector<std::unique_ptr<nn::GradShard>> shards;

  for (int epoch = start_epoch; epoch < epochs; ++epoch) {
    size_t oi_begin = 0;
    if (resumed_mid_epoch && epoch == start_epoch) {
      // The restored RNG already consumed this epoch's shuffle and `order`
      // carries its result; shuffling again would diverge from the
      // uninterrupted run.
      oi_begin = start_oi;
    } else {
      rng.Shuffle(&order);
    }
    // `oi` advances in the body: by 1 in the classic path, by the group size
    // in the sharded path — so `oi` always names the resume position and a
    // checkpoint saved after any step restarts on a group boundary.
    for (size_t oi = oi_begin; oi < tables_per_epoch;) {
      const auto step_start_tp = std::chrono::steady_clock::now();
      // Each step is its own trace (sampled), so a slow step decomposes into
      // encode / mlm / mer / backward / optimizer in the Chrome export.
      obs::TraceSpan step_trace(obs::kNewTrace, "train.step");
      double loss_item = 0.0;
      double grad_norm = 0.0;
      double mlm_sum = 0.0, mer_sum = 0.0;
      int64_t mlm_n = 0, mer_n = 0;
      if (grad_accum == 1) {
        const EncodedTable& clean = train_encoded_[order[oi]];
        ++oi;
        if (clean.total() == 0) continue;
        if (step_trace.traced()) {
          step_trace.Annotate("step", step);
          step_trace.Annotate("total", int64_t(clean.total()));
        }
        PretrainInstance instance;
        {
          TURL_TRACE_SCOPE("train.make_instance");
          instance = MakePretrainInstance(clean, cfg,
                                          model_->word_vocab_size(),
                                          model_->entity_vocab_size(), &rng);
        }
        double mlm_item = std::numeric_limits<double>::quiet_NaN();
        double mer_item = std::numeric_limits<double>::quiet_NaN();
        nn::Tensor loss =
            InstanceLoss(instance, clean, &rng, &mlm_item, &mer_item);
        if (!loss.defined()) continue;
        {
          TURL_TRACE_SCOPE("train.backward");
          model_->params()->ZeroGrad();
          loss.Backward();
        }
        {
          TURL_TRACE_SCOPE("train.optimizer");
          grad_norm = double(adam.Step(schedule.Scale(step), cfg.grad_clip));
        }
        loss_item = loss.item();
        if (!std::isnan(mlm_item)) {
          mlm_sum = mlm_item;
          mlm_n = 1;
        }
        if (!std::isnan(mer_item)) {
          mer_sum = mer_item;
          mer_n = 1;
        }
      } else {
        const size_t group =
            std::min<size_t>(size_t(grad_accum), tables_per_epoch - oi);
        if (step_trace.traced()) {
          step_trace.Annotate("step", step);
          step_trace.Annotate("shards", int64_t(group));
        }
        while (shards.size() < group) {
          shards.push_back(std::make_unique<nn::GradShard>(
              std::vector<const nn::ParamStore*>{model_->params()}));
        }
        struct ShardOut {
          bool defined = false;
          double loss = 0.0;
          double mlm = std::numeric_limits<double>::quiet_NaN();
          double mer = std::numeric_limits<double>::quiet_NaN();
        };
        std::vector<ShardOut> outs(group);
        const auto run_shard = [&](int64_t s) {
          nn::GradShard* shard = shards[size_t(s)].get();
          {
            // Before any early-out: stale dirt must not reduce.
            TURL_TRACE_SCOPE("train.shard_reset");
            shard->Reset();
          }
          const EncodedTable& clean = train_encoded_[order[oi + size_t(s)]];
          if (clean.total() == 0) return;
          nn::ScopedGradShard guard(shard);
          // The shard RNG stream depends only on (seed, step, shard) — not
          // on the main RNG, the thread, or the schedule — so every thread
          // count replays the identical instance sequence.
          Rng shard_rng(nn::ShardStreamSeed(options.seed, step, s));
          PretrainInstance instance;
          {
            TURL_TRACE_SCOPE("train.make_instance");
            instance = MakePretrainInstance(clean, cfg,
                                            model_->word_vocab_size(),
                                            model_->entity_vocab_size(),
                                            &shard_rng);
          }
          ShardOut& out = outs[size_t(s)];
          nn::Tensor loss =
              InstanceLoss(instance, clean, &shard_rng, &out.mlm, &out.mer);
          if (!loss.defined()) return;
          loss.Backward();  // Leaf-param grads land in the shard's buffers.
          out.loss = loss.item();
          out.defined = true;
        };
        {
          TURL_TRACE_SCOPE("train.backward");
          rt::ThreadPool* pool = nn::TrainPool();
          if (pool != nullptr) {
            pool->ParallelFor(0, int64_t(group), /*grain=*/1, run_shard);
          } else {
            for (int64_t s = 0; s < int64_t(group); ++s) run_shard(s);
          }
        }
        oi += group;
        int64_t defined_n = 0;
        for (const ShardOut& out : outs) {
          if (!out.defined) continue;
          ++defined_n;
          loss_item += out.loss;
          if (!std::isnan(out.mlm)) {
            mlm_sum += out.mlm;
            ++mlm_n;
          }
          if (!std::isnan(out.mer)) {
            mer_sum += out.mer;
            ++mer_n;
          }
        }
        if (defined_n == 0) continue;  // Nothing to step on this group.
        loss_item /= double(defined_n);
        {
          TURL_TRACE_SCOPE("train.optimizer");
          std::vector<nn::GradShard*> group_shards;
          group_shards.reserve(group);
          for (size_t s = 0; s < group; ++s) {
            group_shards.push_back(shards[s].get());
          }
          // Overwrites every gradient with the shards' fixed-order sum.
          grad_norm = double(
              adam.Step(schedule.Scale(step), cfg.grad_clip, group_shards));
        }
      }
      obs::RecordTrainHealth("pretrain", step + 1, loss_item, grad_norm,
                             options.sink);
      recent_loss += loss_item;
      ++recent_count;
      ++step;
      steps_counter->Inc();
      if (obs::EventLog::Enabled() || obs::SliEngine::Enabled()) {
        // Training gets the same windowed health view as serving: one wide
        // event per step, and a "train" SLI stream whose availability dips
        // when losses go non-finite.
        const auto step_end_tp = std::chrono::steady_clock::now();
        obs::WideEvent event;
        event.origin = "train";
        event.task = "train.step";
        event.status = std::isfinite(loss_item) ? "ok" : "error";
        event.request_id = static_cast<uint64_t>(step);
        if (step_trace.traced()) event.trace_id = step_trace.context().trace_id;
        event.end_ms = std::chrono::duration<double, std::milli>(
                           step_end_tp.time_since_epoch())
                           .count();
        event.total_us = std::chrono::duration<double, std::micro>(
                             step_end_tp - step_start_tp)
                             .count();
        event.batch_size = grad_accum;
        if (obs::EventLog::Enabled()) obs::EventLog::Get().Append(event);
        obs::SliEngine::Get().Record("train",
                                     obs::OutcomeFromStatusName(event.status),
                                     event.total_us / 1000.0, event.trace_id);
      }
      window_loss += loss_item;
      ++window_steps;
      window_mlm += mlm_sum;
      window_mlm_n += mlm_n;
      window_mer += mer_sum;
      window_mer_n += mer_n;
      if (options.eval_every > 0 && step % options.eval_every == 0) {
        TURL_TRACE_SCOPE("pretrain.eval");
        Rng eval_rng(options.seed + 1);  // Fixed eval set across calls.
        const double acc = EvaluateObjectPrediction(
            options.max_eval_tables, options.max_eval_cells_per_table,
            &eval_rng);
        result.eval_curve.emplace_back(step, acc);
        emit_window(step, epoch, acc);
      } else if (options.telemetry_every > 0 &&
                 step % options.telemetry_every == 0) {
        emit_window(step, epoch,
                    std::numeric_limits<double>::quiet_NaN());
      }
      if (manager != nullptr && options.save_every > 0 &&
          step % options.save_every == 0) {
        save_checkpoint(epoch, oi);
      }
      if (options.max_steps > 0 && step >= options.max_steps) {
        // Simulated kill: return immediately without saving or evaluating —
        // resume must come from the last *periodic* checkpoint.
        result.steps = step;
        return result;
      }
    }
  }

  result.steps = step;
  result.final_loss = recent_count > 0 ? recent_loss / double(recent_count)
                                       : 0.0;
  {
    TURL_TRACE_SCOPE("pretrain.eval");
    Rng final_eval_rng(options.seed + 1);
    result.final_accuracy = EvaluateObjectPrediction(
        options.max_eval_tables, options.max_eval_cells_per_table,
        &final_eval_rng);
  }
  result.eval_curve.emplace_back(step, result.final_accuracy);
  emit_window(step, epochs - 1, result.final_accuracy);
  return result;
}

double Pretrainer::EvaluateObjectPrediction(int max_tables,
                                            int max_cells_per_table,
                                            Rng* rng) const {
  // Eval runs interleaved with training steps: drop any int8 pack built
  // from earlier weights before scoring with Scoring::kServe below.
  model_->InvalidateQuantizedScoring();
  int64_t correct = 0, total = 0;
  const size_t n_tables =
      std::min(valid_encoded_.size(), static_cast<size_t>(max_tables));
  for (size_t ti = 0; ti < n_tables; ++ti) {
    const EncodedTable& clean = valid_encoded_[ti];
    // Object-column cells that are linked and in vocabulary.
    std::vector<int> cells;
    for (int i : MaskableEntityPositions(clean)) {
      if (clean.entity_role[size_t(i)] == kRoleObject) cells.push_back(i);
    }
    if (cells.empty()) continue;
    rng->Shuffle(&cells);
    if (static_cast<int>(cells.size()) > max_cells_per_table) {
      cells.resize(static_cast<size_t>(max_cells_per_table));
    }
    std::vector<int> candidates =
        BuildMerCandidates(clean, cooc_, model_->entity_vocab_size(),
                           model_->config().mer_max_candidates,
                           model_->config().mer_min_random_negatives, rng);
    for (int cell : cells) {
      EncodedTable masked = clean;
      MaskEntityCell(&masked, cell, /*mask_mention=*/true);
      nn::Tensor hidden = model_->Encode(masked, /*training=*/false, rng);
      nn::Tensor logits = model_->MerLogits(
          hidden, {TurlModel::EntityHiddenRow(masked, cell)}, candidates,
          Scoring::kServe);
      const size_t best = ArgMax(logits.ToVector());
      const int target = clean.entity_ids[size_t(cell)];
      correct += (candidates[best] == target);
      ++total;
    }
  }
  return total == 0 ? 0.0 : double(correct) / double(total);
}

}  // namespace core
}  // namespace turl
