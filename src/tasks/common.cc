#include "tasks/common.h"

#include <cmath>

#include "data/entity_vocab.h"
#include "util/logging.h"
#include "util/status.h"

namespace turl {
namespace tasks {

double FinetuneStep(
    nn::Tensor loss, float grad_clip,
    std::initializer_list<std::pair<nn::ParamStore*, nn::Adam*>> items) {
  for (const auto& item : items) item.first->ZeroGrad();
  loss.Backward();
  // The stores are disjoint, so clipping and stepping one store at a time
  // gives the values clipping every store first would.
  double norm_sq = 0.0;
  for (const auto& item : items) {
    const double g = double(item.second->Step(1.f, grad_clip));
    norm_sq += g * g;
  }
  return std::sqrt(norm_sq);
}

FinetuneCheckpointer::FinetuneCheckpointer(
    const FinetuneOptions& options, const std::string& phase,
    std::vector<std::pair<std::string, nn::ParamStore*>> stores,
    std::vector<std::pair<std::string, nn::Adam*>> optims, Rng* rng,
    std::vector<size_t>* order)
    : stores_(std::move(stores)),
      optims_(std::move(optims)),
      rng_(rng),
      order_(order),
      save_every_(options.save_every),
      resume_(options.resume) {
  if (options.ckpt_dir.empty()) return;
  manager_ = std::make_unique<ckpt::CheckpointManager>(
      ckpt::CheckpointManager::Options{options.ckpt_dir, options.keep_last});
  // Deliberately excludes `epochs`: per-step behavior does not depend on the
  // epoch budget (no LR schedule here), so a finished epochs=N run may be
  // extended by resuming with a larger budget.
  fingerprint_ = "finetune." + phase + "|seed" + std::to_string(options.seed) +
                 "|lr" + std::to_string(options.lr) + "|mt" +
                 std::to_string(options.max_tables) + "|gc" +
                 std::to_string(options.grad_clip);
}

FinetuneCheckpointer::~FinetuneCheckpointer() = default;

ckpt::TrainState FinetuneCheckpointer::Bind() const {
  ckpt::TrainState st;
  st.stores = stores_;
  st.optims = optims_;
  st.rng = rng_;
  st.fingerprint = fingerprint_;
  return st;
}

int FinetuneCheckpointer::Resume(int64_t* global_step) {
  if (manager_ == nullptr || !resume_) return 0;
  ckpt::TrainState st = Bind();
  const Status s = manager_->LoadLatest(&st);
  if (!s.ok()) {
    if (s.code() != StatusCode::kNotFound) {
      TURL_LOG(Warning) << "no usable finetune checkpoint ("
                        << s.ToString() << "); starting fresh";
    }
    return 0;
  }
  if (order_ != nullptr) {
    TURL_CHECK_EQ(st.order.size(), order_->size())
        << "checkpoint order covers a different dataset";
    for (size_t i = 0; i < order_->size(); ++i) {
      (*order_)[i] = size_t(st.order[i]);
    }
  }
  if (global_step != nullptr) *global_step = st.global_step;
  TURL_LOG(Info) << "resumed fine-tuning at epoch " << st.epoch << " (step "
                 << st.global_step << ")";
  return int(st.epoch);
}

void FinetuneCheckpointer::OnEpochEnd(int completed_epoch,
                                      int64_t global_step) {
  if (manager_ == nullptr || save_every_ <= 0) return;
  if ((completed_epoch + 1) % save_every_ != 0) return;
  ckpt::TrainState st = Bind();
  st.epoch = completed_epoch + 1;  // The epoch a resumed run starts at.
  st.global_step = global_step;
  if (order_ != nullptr) st.order.assign(order_->begin(), order_->end());
  const Status s = manager_->Save(st);
  if (!s.ok()) {
    TURL_LOG(Warning) << "finetune checkpoint save failed: " << s.ToString();
  }
}

void StripEntityIds(core::EncodedTable* table) {
  for (int& id : table->entity_ids) id = data::EntityVocab::kUnkEntity;
}

void StripMentions(core::EncodedTable* table) {
  for (auto& mention : table->entity_mentions) mention.clear();
}

void ApplyVariant(const InputVariant& variant, core::EncodedTable* table) {
  if (!variant.use_metadata) TURL_CHECK_EQ(table->num_tokens(), 0);
  if (!variant.use_entities) TURL_CHECK_EQ(table->num_entities(), 0);
  if (!variant.use_entity_ids) StripEntityIds(table);
  if (!variant.use_mentions) StripMentions(table);
}

core::EncodeOptions EncodeOptionsFor(const InputVariant& variant) {
  core::EncodeOptions opts;
  opts.include_metadata = variant.use_metadata;
  opts.include_entities = variant.use_entities;
  opts.include_topic_entity = variant.use_entities;
  return opts;
}

nn::Tensor ColumnHidden(const nn::Tensor& hidden,
                        const core::EncodedTable& encoded, int column,
                        int64_t d_model) {
  std::vector<int> header_rows;
  for (int i = 0; i < encoded.num_tokens(); ++i) {
    if (encoded.token_segment[size_t(i)] == core::kSegmentHeader &&
        encoded.token_column[size_t(i)] == column) {
      header_rows.push_back(i);
    }
  }
  std::vector<int> entity_rows;
  for (int i = 0; i < encoded.num_entities(); ++i) {
    if (encoded.entity_column[size_t(i)] == column) {
      entity_rows.push_back(core::TurlModel::EntityHiddenRow(encoded, i));
    }
  }
  nn::Tensor header_part = header_rows.empty()
                               ? nn::Tensor::Zeros({1, d_model})
                               : nn::RowsMean(hidden, header_rows);
  nn::Tensor entity_part = entity_rows.empty()
                               ? nn::Tensor::Zeros({1, d_model})
                               : nn::RowsMean(hidden, entity_rows);
  return nn::ConcatCols(header_part, entity_part);
}

std::vector<float> QuantizedHeadLogits(nn::kernels::QuantCache* cache,
                                       const nn::Linear& head,
                                       const nn::Tensor& features) {
  const nn::Tensor& w = head.weight();
  const int64_t in = w.dim(0);
  const int64_t out = w.dim(1);
  TURL_CHECK_EQ(features.dim(1), in);
  const nn::kernels::QuantizedMatrix& q = cache->Get(w.data(), out, in,
                                                     /*row_stride=*/1,
                                                     /*col_stride=*/out);
  std::vector<float> y(static_cast<size_t>(out));
  nn::kernels::QuantizedScore(q, features.data(), y.data());
  const float* b = head.bias().data();
  for (int64_t l = 0; l < out; ++l) y[static_cast<size_t>(l)] += b[l];
  return y;
}

std::vector<float> QuantizedEmbeddingScores(nn::kernels::QuantCache* cache,
                                            const nn::Tensor& table,
                                            const nn::Tensor& x) {
  const int64_t n = table.dim(0);
  const int64_t d = table.dim(1);
  TURL_CHECK_EQ(x.dim(1), d);
  const nn::kernels::QuantizedMatrix& q =
      cache->Get(table.data(), n, d, /*row_stride=*/d, /*col_stride=*/1);
  std::vector<float> y(static_cast<size_t>(n));
  nn::kernels::QuantizedScore(q, x.data(), y.data());
  return y;
}

}  // namespace tasks
}  // namespace turl
