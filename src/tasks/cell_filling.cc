#include "tasks/cell_filling.h"

#include <algorithm>

#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tasks/task_head.h"
#include "text/vocab.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace turl {
namespace tasks {

std::vector<CellFillInstance> BuildCellFillInstances(
    const core::TurlContext& ctx, const baselines::CellFillingIndex& index,
    const std::vector<size_t>& table_indices, int min_valid_pairs,
    int max_instances, bool filter_by_header) {
  std::vector<CellFillInstance> out;
  for (size_t idx : table_indices) {
    const data::Table& t = ctx.corpus.tables[idx];
    if (t.columns.empty() || !t.columns[0].is_entity_column) continue;
    for (int c = 1; c < t.num_columns(); ++c) {
      const data::Column& col = t.columns[size_t(c)];
      if (!col.is_entity_column) continue;
      // Count valid (subject, object) pairs in this column pair.
      std::vector<int> valid_rows;
      for (int r = 0; r < t.num_rows(); ++r) {
        if (t.columns[0].cells[size_t(r)].linked() &&
            col.cells[size_t(r)].linked()) {
          valid_rows.push_back(r);
        }
      }
      if (static_cast<int>(valid_rows.size()) < min_valid_pairs) continue;
      for (int r : valid_rows) {
        CellFillInstance inst;
        inst.table_index = idx;
        inst.object_column = c;
        inst.row = r;
        inst.subject = t.columns[0].cells[size_t(r)].entity;
        inst.gold = col.cells[size_t(r)].entity;
        inst.candidates = filter_by_header
                              ? index.CandidatesFor(inst.subject, col.header)
                              : index.CandidatesFor(inst.subject);
        out.push_back(std::move(inst));
        if (max_instances > 0 &&
            static_cast<int>(out.size()) >= max_instances) {
          return out;
        }
      }
    }
  }
  return out;
}

CellFillCandidateStats ComputeCandidateStats(
    const std::vector<CellFillInstance>& instances) {
  CellFillCandidateStats stats;
  stats.num_instances = static_cast<int64_t>(instances.size());
  if (instances.empty()) return stats;
  int64_t reachable = 0;
  double total_candidates = 0;
  for (const CellFillInstance& inst : instances) {
    total_candidates += double(inst.candidates.size());
    for (const baselines::CellCandidate& cand : inst.candidates) {
      if (cand.entity == inst.gold) {
        ++reachable;
        break;
      }
    }
  }
  stats.recall = double(reachable) / double(instances.size());
  stats.avg_candidates = total_candidates / double(instances.size());
  return stats;
}

CellFillResult EvaluateCellFilling(
    const std::vector<CellFillInstance>& instances,
    const std::vector<std::vector<double>>& scores) {
  TURL_CHECK_EQ(instances.size(), scores.size());
  CellFillResult result;
  std::vector<double> p1, p3, p5, p10;
  for (size_t i = 0; i < instances.size(); ++i) {
    const CellFillInstance& inst = instances[i];
    TURL_CHECK_EQ(scores[i].size(), inst.candidates.size());
    bool reachable = false;
    for (const auto& cand : inst.candidates) {
      if (cand.entity == inst.gold) {
        reachable = true;
        break;
      }
    }
    if (!reachable) continue;  // Paper evaluates reachable instances only.
    std::vector<size_t> order(inst.candidates.size());
    for (size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return scores[i][a] > scores[i][b];
    });
    std::vector<bool> relevant(order.size());
    for (size_t rank = 0; rank < order.size(); ++rank) {
      relevant[rank] = inst.candidates[order[rank]].entity == inst.gold;
    }
    p1.push_back(eval::HitAtK(relevant, 1));
    p3.push_back(eval::HitAtK(relevant, 3));
    p5.push_back(eval::HitAtK(relevant, 5));
    p10.push_back(eval::HitAtK(relevant, 10));
  }
  result.evaluated = static_cast<int64_t>(p1.size());
  result.p_at_1 = eval::MeanOf(p1);
  result.p_at_3 = eval::MeanOf(p3);
  result.p_at_5 = eval::MeanOf(p5);
  result.p_at_10 = eval::MeanOf(p10);
  return result;
}

TurlCellFiller::TurlCellFiller(core::TurlModel* model,
                               const core::TurlContext* ctx)
    : model_(model), ctx_(ctx) {
  TURL_CHECK(model != nullptr);
}

core::EncodedTable TurlCellFiller::Encode(
    const CellFillInstance& instance) const {
  const data::Table& full = ctx_->corpus.tables[instance.table_index];
  // Partial table per Definition 6.5: metadata, the full subject column,
  // and the queried object column header with a [MASK] in the queried row.
  data::Table partial;
  partial.caption = full.caption;
  partial.topic_entity = full.topic_entity;
  partial.topic_mention = full.topic_mention;
  partial.columns.push_back(full.columns[0]);
  data::Column object;
  object.header = full.columns[size_t(instance.object_column)].header;
  object.is_entity_column = true;
  object.cells.assign(full.columns[0].cells.size(), data::EntityCell{});
  partial.columns.push_back(std::move(object));

  const text::WordPieceTokenizer tokenizer = ctx_->MakeTokenizer();
  core::EncodedTable encoded =
      core::EncodeTable(partial, tokenizer, ctx_->entity_vocab);
  // Every to-be-filled object cell is presented as a [MASK] entity — the
  // same distribution MER pre-training produces when it masks most of a
  // column. ScoresFrom finds the queried row's [MASK] by (column, row).
  for (int i = 0; i < encoded.num_entities(); ++i) {
    if (encoded.entity_column[size_t(i)] != 1) continue;
    encoded.entity_ids[size_t(i)] = data::EntityVocab::kMaskEntity;
    encoded.entity_mentions[size_t(i)] = {text::kMaskId};
  }
  return encoded;
}

std::vector<float> TurlCellFiller::ScoresFrom(
    const nn::Tensor& hidden, const core::EncodedTable& encoded,
    const CellFillInstance& instance) const {
  obs::TraceSpan trace("task.score");
  if (trace.traced()) trace.Annotate("head", "cell_filling");
  static obs::Counter* queries =
      obs::MetricsRegistry::Get().GetCounter("cellfill.queries");
  queries->Inc();
  int mask_index = -1;
  for (int i = 0; i < encoded.num_entities(); ++i) {
    if (encoded.entity_column[size_t(i)] == 1 &&
        encoded.entity_row[size_t(i)] == instance.row) {
      mask_index = i;
      break;
    }
  }
  TURL_CHECK_GE(mask_index, 0);

  std::vector<int> candidate_ids;
  for (const baselines::CellCandidate& cand : instance.candidates) {
    candidate_ids.push_back(ctx_->entity_vocab.Id(cand.entity));
  }
  if (candidate_ids.empty()) return {};

  nn::Tensor logits = model_->MerLogits(
      hidden, {core::TurlModel::EntityHiddenRow(encoded, mask_index)},
      candidate_ids, core::Scoring::kServe);
  std::vector<float> out;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    const bool oov = candidate_ids[size_t(i)] == data::EntityVocab::kUnkEntity;
    out.push_back(logits.at(i) - (oov ? 1e3f : 0.f));
  }
  return out;
}

std::vector<float> TurlCellFiller::Scores(
    const CellFillInstance& instance) const {
  if (instance.candidates.empty()) return {};
  core::EncodedTable encoded = Encode(instance);
  nn::Tensor hidden = model_->Encode(encoded, /*training=*/false);
  return ScoresFrom(hidden, encoded, instance);
}

std::vector<size_t> TurlCellFiller::PredictFrom(
    const nn::Tensor& hidden, const core::EncodedTable& encoded,
    const CellFillInstance& instance) const {
  std::vector<float> scores = ScoresFrom(hidden, encoded, instance);
  return TopK(scores, scores.size());
}

std::vector<size_t> TurlCellFiller::Predict(
    const CellFillInstance& instance) const {
  if (instance.candidates.empty()) return {};
  core::EncodedTable encoded = Encode(instance);
  nn::Tensor hidden = model_->Encode(encoded, /*training=*/false);
  return PredictFrom(hidden, encoded, instance);
}

CellFillResult TurlCellFiller::Evaluate(
    const std::vector<CellFillInstance>& instances,
    const rt::InferenceSession* session) const {
  std::vector<std::vector<float>> scores;
  if (session != nullptr) {
    scores = BulkScores(*this, instances, *session);
  } else {
    scores.reserve(instances.size());
    for (const CellFillInstance& inst : instances) {
      scores.push_back(Scores(inst));
    }
  }
  return EvaluateCellFilling(instances, AsDouble(scores));
}

}  // namespace tasks
}  // namespace turl
