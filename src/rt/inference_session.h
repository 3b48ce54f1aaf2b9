#ifndef TURL_RT_INFERENCE_SESSION_H_
#define TURL_RT_INFERENCE_SESSION_H_

#include <memory>
#include <span>
#include <vector>

#include "core/model.h"
#include "core/table_encoding.h"
#include "nn/tensor.h"
#include "obs/trace.h"
#include "rt/thread_pool.h"

namespace turl {
namespace rt {

/// Knobs for an InferenceSession.
struct SessionOptions {
  /// 0 resolves through $TURL_RT_THREADS, then hardware concurrency.
  int num_threads = 0;
};

/// A shared read-only inference runtime over one pre-trained TurlModel.
///
/// The session owns a fixed-size ThreadPool and runs batches of table
/// forwards across its workers. The model reference is const and every
/// forward is an inference forward (training=false): no dropout, no gradient
/// accumulation, no mutation of shared state — so any number of workers may
/// encode through the same model concurrently.
///
/// Determinism contract: Encode/EncodeBatch outputs are a pure function of
/// the encoded tables and the model weights. Batch results are written by
/// input index, so EncodeBatch(tables)[i] is bit-identical to
/// Encode(tables[i]) regardless of worker count, scheduling, or batch
/// composition. With num_threads == 1 everything runs inline on the caller,
/// matching the historical single-threaded evaluation path exactly.
class InferenceSession {
 public:
  /// The model must outlive the session.
  explicit InferenceSession(const core::TurlModel& model,
                            SessionOptions options = SessionOptions());

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;
  /// Movable so factory helpers can return sessions by value; the moved-from
  /// session is only good for destruction.
  InferenceSession(InferenceSession&&) = default;

  const core::TurlModel& model() const { return model_; }
  int num_threads() const { return pool_->num_threads(); }
  ThreadPool& pool() const { return *pool_; }

  /// One inference forward: contextualized representations
  /// [table.total(), d_model] (see TurlModel::Encode).
  nn::Tensor Encode(const core::EncodedTable& table) const;

  /// Encodes every table across the pool; result i corresponds to tables[i].
  std::vector<nn::Tensor> EncodeBatch(
      std::span<const core::EncodedTable> tables) const;
  /// Pointer-batch variant for heterogeneous requests that are not
  /// contiguous in memory (what BatchScheduler collects). When `traces` is
  /// non-empty it must be parallel to `tables`: the worker encoding table i
  /// adopts traces[i], so its per-worker encode span lands under the
  /// request that submitted the table. Tracing never affects the results.
  std::vector<nn::Tensor> EncodeBatch(
      std::span<const core::EncodedTable* const> tables,
      std::span<const obs::TraceContext> traces = {}) const;

 private:
  const core::TurlModel& model_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace rt
}  // namespace turl

#endif  // TURL_RT_INFERENCE_SESSION_H_
