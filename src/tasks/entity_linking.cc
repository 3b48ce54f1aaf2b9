#include "tasks/entity_linking.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "nn/optim.h"
#include "obs/trace.h"
#include "tasks/task_head.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace turl {
namespace tasks {

ElDataset BuildElDataset(const core::TurlContext& ctx,
                         const kb::LookupService& lookup,
                         const std::vector<size_t>& table_indices,
                         int candidate_k, bool drop_unreachable,
                         int max_instances) {
  ElDataset dataset;
  for (size_t idx : table_indices) {
    const data::Table& t = ctx.corpus.tables[idx];
    for (int c = 0; c < t.num_columns(); ++c) {
      const data::Column& col = t.columns[size_t(c)];
      if (!col.is_entity_column) continue;
      for (int r = 0; r < t.num_rows(); ++r) {
        const data::EntityCell& cell = col.cells[size_t(r)];
        if (!cell.linked()) continue;  // No gold label to score against.
        ElInstance inst;
        inst.table_index = idx;
        inst.column = c;
        inst.row = r;
        inst.gold = cell.entity;
        for (const kb::LookupCandidate& cand :
             lookup.Lookup(cell.mention, candidate_k)) {
          inst.candidates.push_back(cand.entity);
        }
        const bool reachable =
            std::find(inst.candidates.begin(), inst.candidates.end(),
                      inst.gold) != inst.candidates.end();
        if (!reachable) {
          ++dataset.gold_missing;
          if (drop_unreachable) continue;
        }
        dataset.instances.push_back(std::move(inst));
        if (max_instances > 0 &&
            static_cast<int>(dataset.instances.size()) >= max_instances) {
          return dataset;
        }
      }
    }
  }
  return dataset;
}

TurlEntityLinker::TurlEntityLinker(core::TurlModel* model,
                                   const core::TurlContext* ctx,
                                   ElRepresentation representation,
                                   uint64_t seed)
    : model_(model), ctx_(ctx), representation_(representation) {
  TURL_CHECK(model != nullptr);
  Rng rng(seed);
  const int64_t d = model->config().d_model;
  match_ = std::make_unique<nn::Linear>(&head_params_, "el_match", d, 3 * d,
                                        &rng);
  type_emb_ = std::make_unique<nn::Embedding>(
      &head_params_, "el_type_emb", ctx->world.kb.num_types(), d, &rng);
}

core::EncodedTable TurlEntityLinker::EncodeTableIndex(
    size_t table_index) const {
  const text::WordPieceTokenizer tokenizer = ctx_->MakeTokenizer();
  core::EncodedTable encoded = core::EncodeTable(
      ctx_->corpus.tables[table_index], tokenizer, ctx_->entity_vocab);
  // The goal is linking against a target KB, not recovering pre-training
  // entities, so the pre-trained entity embeddings are not used (§6.2).
  StripEntityIds(&encoded);
  return encoded;
}

int TurlEntityLinker::EntityIndexOf(const core::EncodedTable& encoded,
                                    int column, int row) {
  for (int i = 0; i < encoded.num_entities(); ++i) {
    if (encoded.entity_column[size_t(i)] == column &&
        encoded.entity_row[size_t(i)] == row) {
      return i;
    }
  }
  return -1;
}

nn::Tensor TurlEntityLinker::CandidateReps(
    const std::vector<kb::EntityId>& candidates) const {
  const text::WordPieceTokenizer tokenizer = ctx_->MakeTokenizer();
  std::vector<std::vector<int>> name_bags, desc_bags, type_bags;
  for (kb::EntityId e : candidates) {
    const kb::Entity& ent = ctx_->world.kb.entity(e);
    name_bags.push_back(tokenizer.Encode(ent.name));
    desc_bags.push_back(representation_.use_description
                            ? tokenizer.Encode(ent.description)
                            : std::vector<int>{});
    std::vector<int> types;
    if (representation_.use_type) {
      for (kb::TypeId t : ctx_->world.kb.ExpandedTypes(e)) {
        types.push_back(static_cast<int>(t));
      }
    }
    type_bags.push_back(std::move(types));
  }
  nn::Tensor name_rep = nn::BagMean(model_->word_embedding().weight(),
                                    name_bags);
  nn::Tensor desc_rep = nn::BagMean(model_->word_embedding().weight(),
                                    desc_bags);
  nn::Tensor type_rep = nn::BagMean(type_emb_->weight(), type_bags);
  return nn::ConcatCols(nn::ConcatCols(name_rep, desc_rep), type_rep);
}

nn::Tensor TurlEntityLinker::InstanceLogits(
    const nn::Tensor& hidden, const core::EncodedTable& encoded,
    const ElInstance& instance) const {
  const int entity_index =
      EntityIndexOf(encoded, instance.column, instance.row);
  TURL_CHECK_GE(entity_index, 0) << "cell not present in encoding";
  nn::Tensor projected = match_->Forward(nn::SelectRows(
      hidden, {core::TurlModel::EntityHiddenRow(encoded, entity_index)}));
  return nn::MatMulNT(projected, CandidateReps(instance.candidates));
}

void TurlEntityLinker::Finetune(const ElDataset& train,
                                const FinetuneOptions& options) {
  std::map<size_t, std::vector<const ElInstance*>> by_table;
  for (const ElInstance& inst : train.instances) {
    if (inst.candidates.empty()) continue;
    by_table[inst.table_index].push_back(&inst);
  }
  std::vector<size_t> tables;
  for (const auto& [idx, insts] : by_table) tables.push_back(idx);

  Rng rng(options.seed);
  nn::Adam model_adam(model_->params(), nn::AdamConfig{.lr = options.lr});
  nn::Adam head_adam(&head_params_, nn::AdamConfig{.lr = options.lr});
  obs::FinetuneTelemetry telemetry("finetune.entity_linking", options.sink);
  FinetuneCheckpointer ckptr(
      options, "entity_linking",
      {{"model", model_->params()}, {"head", &head_params_}},
      {{"model_adam", &model_adam}, {"head_adam", &head_adam}}, &rng,
      &tables);
  const int start_epoch = ckptr.Resume();
  // Resume may have swapped in checkpointed weights, and the loop below
  // trains the model store: any model-level int8 pack is stale.
  model_->InvalidateQuantizedScoring();

  for (int epoch = start_epoch; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&tables);
    size_t limit = tables.size();
    if (options.max_tables > 0) {
      limit = std::min(limit, static_cast<size_t>(options.max_tables));
    }
    for (size_t ti = 0; ti < limit; ++ti) {
      core::EncodedTable encoded = EncodeTableIndex(tables[ti]);
      if (encoded.total() == 0) continue;
      nn::Tensor hidden = model_->Encode(encoded, /*training=*/true, &rng);
      nn::Tensor loss;
      for (const ElInstance* inst : by_table[tables[ti]]) {
        auto it = std::find(inst->candidates.begin(), inst->candidates.end(),
                            inst->gold);
        if (it == inst->candidates.end()) continue;  // Unreachable gold.
        const int target = static_cast<int>(it - inst->candidates.begin());
        nn::Tensor ce = nn::SoftmaxCrossEntropy(
            InstanceLogits(hidden, encoded, *inst), {target});
        loss = loss.defined() ? nn::Add(loss, ce) : ce;
      }
      if (!loss.defined()) continue;
      // Model and head params are clipped separately, but health-wise the
      // step has one global norm: the Euclidean combination of the two.
      const double grad_norm = FinetuneStep(
          loss, options.grad_clip,
          {{model_->params(), &model_adam}, {&head_params_, &head_adam}});
      telemetry.Step(loss.item(), grad_norm);
    }
    telemetry.EndEpoch(epoch);
    ckptr.OnEpochEnd(epoch);
  }
  model_->InvalidateQuantizedScoring();
}

core::EncodedTable TurlEntityLinker::Encode(const ElInstance& instance) const {
  return EncodeTableIndex(instance.table_index);
}

std::vector<float> TurlEntityLinker::ScoresFrom(
    const nn::Tensor& hidden, const core::EncodedTable& encoded,
    const ElInstance& instance) const {
  if (instance.candidates.empty()) return {};
  obs::TraceSpan trace("task.score");
  if (trace.traced()) trace.Annotate("head", "entity_linking");
  if (nn::kernels::QuantScoringEnabled()) {
    // The candidate reps are per-instance (built from KB descriptions), so
    // this is a one-shot pack rather than a cached one — still a win: the
    // quantize pass is O(n*3d) against the O(n*3d) dot products it speeds
    // up, and candidate sets are small.
    const int entity_index =
        EntityIndexOf(encoded, instance.column, instance.row);
    TURL_CHECK_GE(entity_index, 0) << "cell not present in encoding";
    nn::Tensor projected = match_->Forward(nn::SelectRows(
        hidden, {core::TurlModel::EntityHiddenRow(encoded, entity_index)}));
    nn::Tensor reps = CandidateReps(instance.candidates);
    const nn::kernels::QuantizedMatrix q = nn::kernels::QuantizeRows(
        reps.data(), reps.dim(0), reps.dim(1), reps.dim(1), 1);
    std::vector<float> out(static_cast<size_t>(reps.dim(0)));
    nn::kernels::QuantizedScore(q, projected.data(), out.data());
    return out;
  }
  return InstanceLogits(hidden, encoded, instance).ToVector();
}

std::vector<float> TurlEntityLinker::Scores(const ElInstance& instance) const {
  if (instance.candidates.empty()) return {};
  core::EncodedTable encoded = Encode(instance);
  nn::Tensor hidden = model_->Encode(encoded, /*training=*/false);
  return ScoresFrom(hidden, encoded, instance);
}

kb::EntityId TurlEntityLinker::PredictFrom(const nn::Tensor& hidden,
                                           const core::EncodedTable& encoded,
                                           const ElInstance& instance) const {
  if (instance.candidates.empty()) return kb::kInvalidEntity;
  return instance.candidates[ArgMax(ScoresFrom(hidden, encoded, instance))];
}

kb::EntityId TurlEntityLinker::Predict(const ElInstance& instance) const {
  if (instance.candidates.empty()) return kb::kInvalidEntity;
  core::EncodedTable encoded = Encode(instance);
  nn::Tensor hidden = model_->Encode(encoded, /*training=*/false);
  return PredictFrom(hidden, encoded, instance);
}

eval::Prf TurlEntityLinker::Evaluate(
    const ElDataset& dataset, const rt::InferenceSession* session) const {
  std::vector<kb::EntityId> predictions;
  if (session != nullptr) {
    predictions =
        BulkPredict<kb::EntityId>(*this, dataset.instances, *session);
  } else {
    predictions.reserve(dataset.instances.size());
    for (const ElInstance& inst : dataset.instances) {
      predictions.push_back(Predict(inst));
    }
  }
  return EvaluateElPredictions(dataset, predictions);
}

eval::Prf EvaluateElPredictions(const ElDataset& dataset,
                                const std::vector<kb::EntityId>& predictions) {
  TURL_CHECK_EQ(predictions.size(), dataset.instances.size());
  int64_t tp = 0, fp = 0, no_pred = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == kb::kInvalidEntity) {
      ++no_pred;
    } else if (predictions[i] == dataset.instances[i].gold) {
      ++tp;
    } else {
      ++fp;
    }
  }
  // Recall denominator: every gold mention; fn = mentions not correctly
  // linked (wrong or no prediction).
  const int64_t fn = static_cast<int64_t>(predictions.size()) - tp;
  eval::Prf prf = eval::ComputePrf(tp, fp, /*fn=*/fn);
  return prf;
}

eval::Prf EvaluateElOracle(const ElDataset& dataset) {
  std::vector<kb::EntityId> predictions;
  for (const ElInstance& inst : dataset.instances) {
    const bool reachable =
        std::find(inst.candidates.begin(), inst.candidates.end(), inst.gold) !=
        inst.candidates.end();
    predictions.push_back(reachable
                              ? inst.gold
                              : (inst.candidates.empty()
                                     ? kb::kInvalidEntity
                                     : inst.candidates.front()));
  }
  return EvaluateElPredictions(dataset, predictions);
}

}  // namespace tasks
}  // namespace turl
