#ifndef TURL_RT_BULK_H_
#define TURL_RT_BULK_H_

#include <functional>
#include <vector>

#include "nn/tensor.h"
#include "obs/trace.h"
#include "rt/batch_scheduler.h"
#include "rt/inference_session.h"

namespace turl {
namespace rt {

/// Staged bulk evaluation over n independent instances:
///   1. encode:  encoded[i] = encode_fn(i)          (parallel across workers)
///   2. forward: hidden[i] via budget-capped micro-batches (BatchScheduler
///      -> InferenceSession::EncodeBatch, parallel within each batch)
///   3. score:   out[i] = score_fn(i, encoded[i], hidden[i])   (parallel)
///
/// Results are indexed by instance, so the output is identical to the
/// sequential loop `for i: score_fn(i, encode_fn(i), session.Encode(...))`
/// for any worker count or batch composition.
///
/// Nothing here records an autograd tape: the forward stage runs
/// TurlModel::Encode(training=false), and each score_fn call runs inside an
/// nn::NoGradScope opened on the worker that makes it.
///
/// Tracing: each instance is one request. BulkRun opens the per-instance
/// root span ("rt.request", sampled) around all three stages, so a traced
/// instance shows input-encode, queue-wait, batch-assembly, the per-worker
/// model forward and the head's scoring span under one trace id even though
/// the stages run on different pool workers.
template <typename R>
std::vector<R> BulkRun(
    const InferenceSession& session,
    size_t n,
    const std::function<core::EncodedTable(size_t)>& encode_fn,
    const std::function<R(size_t, const core::EncodedTable&,
                          const nn::Tensor&)>& score_fn,
    BatchSchedulerOptions batch_options = BatchSchedulerOptions()) {
  const bool tracing = obs::Tracer::Enabled();
  // Roots are plain ActiveSpans (not RAII) because each one is begun on the
  // worker that encodes the instance and ended on the worker that scores it.
  std::vector<obs::ActiveSpan> roots(tracing ? n : 0);
  std::vector<obs::TraceContext> traces(tracing ? n : 0);

  std::vector<core::EncodedTable> encoded(n);
  session.pool().ParallelFor(
      0, static_cast<int64_t>(n), /*grain=*/1, [&](int64_t i) {
        if (tracing) {
          roots[size_t(i)] = obs::Tracer::Get().BeginTrace("rt.request");
          roots[size_t(i)].Annotate("instance", i);
          traces[size_t(i)] = roots[size_t(i)].context();
        }
        obs::TraceContextScope scope(tracing ? traces[size_t(i)]
                                             : obs::TraceContext());
        TURL_TRACE_SCOPE("task.encode_input");
        encoded[size_t(i)] = encode_fn(size_t(i));
      });

  std::vector<nn::Tensor> hidden(n);
  {
    BatchScheduler scheduler(&session, batch_options);
    for (size_t i = 0; i < n; ++i) {
      Request request;
      request.table = &encoded[i];
      request.request_id = i;
      // BulkRun owns the root span, so the scheduler nests under it instead
      // of opening one per request (untraced context = fully opted out).
      request.caller_owns_trace = true;
      if (tracing) request.trace = traces[i];
      request.done = [&hidden, i](Response response) {
        hidden[i] = std::move(response.hidden);
      };
      scheduler.Submit(std::move(request));
    }
    scheduler.Flush();
  }

  std::vector<R> out(n);
  session.pool().ParallelFor(
      0, static_cast<int64_t>(n), /*grain=*/1, [&](int64_t i) {
        obs::TraceContextScope scope(tracing ? traces[size_t(i)]
                                             : obs::TraceContext());
        nn::NoGradScope no_grad;  // Thread-local: open it on this worker.
        out[size_t(i)] =
            score_fn(size_t(i), encoded[size_t(i)], hidden[size_t(i)]);
        if (tracing) obs::Tracer::Get().End(&roots[size_t(i)]);
      });
  return out;
}

}  // namespace rt
}  // namespace turl

#endif  // TURL_RT_BULK_H_
