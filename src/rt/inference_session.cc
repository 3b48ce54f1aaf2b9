#include "rt/inference_session.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace rt {

namespace {

/// Per-table forward work is coarse (a full Transformer stack), so one table
/// per dispatch is the right grain.
constexpr int64_t kEncodeGrain = 1;

obs::Counter* EncodeCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("rt.encodes");
  return c;
}

obs::Counter* BatchCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("rt.encode_batches");
  return c;
}

obs::Histogram* BatchSizeHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "rt.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

}  // namespace

InferenceSession::InferenceSession(const core::TurlModel& model,
                                   SessionOptions options)
    : model_(model), pool_(std::make_unique<ThreadPool>(options.num_threads)) {}

nn::Tensor InferenceSession::Encode(const core::EncodedTable& table) const {
  obs::TraceSpan trace("rt.encode");
  if (trace.traced()) {
    trace.Annotate("worker", int64_t(pool_->WorkerIndex()));
    trace.Annotate("total", int64_t(table.total()));
  }
  EncodeCounter()->Inc();
  // Inference forward: dropout is inactive, so no Rng is consumed and the
  // result is a pure function of (table, weights) — see the class contract.
  return model_.Encode(table, /*training=*/false, /*rng=*/nullptr);
}

std::vector<nn::Tensor> InferenceSession::EncodeBatch(
    std::span<const core::EncodedTable> tables) const {
  std::vector<const core::EncodedTable*> ptrs;
  ptrs.reserve(tables.size());
  for (const core::EncodedTable& t : tables) ptrs.push_back(&t);
  return EncodeBatch(std::span<const core::EncodedTable* const>(ptrs));
}

std::vector<nn::Tensor> InferenceSession::EncodeBatch(
    std::span<const core::EncodedTable* const> tables,
    std::span<const obs::TraceContext> traces) const {
  TURL_TRACE_SCOPE("rt.encode_batch");
  TURL_CHECK(traces.empty() || traces.size() == tables.size());
  BatchCounter()->Inc();
  BatchSizeHistogram()->Observe(static_cast<double>(tables.size()));
  std::vector<nn::Tensor> out(tables.size());
  pool_->ParallelFor(0, static_cast<int64_t>(tables.size()), kEncodeGrain,
                     [&](int64_t i) {
                       // The worker adopts the submitting request's trace
                       // identity for the duration of this table's forward.
                       obs::TraceContextScope trace_scope(
                           traces.empty() ? obs::TraceContext()
                                          : traces[size_t(i)]);
                       out[size_t(i)] = Encode(*tables[i]);
                     });
  return out;
}

}  // namespace rt
}  // namespace turl
