// BatchScheduler policy tests: size-cap flush, budget-cap flush,
// submission-order callbacks, result equivalence with per-request
// session.Encode, and concurrent submitters coalescing while a batch runs.

#include "rt/batch_scheduler.h"

#include <atomic>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/table_encoding.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/server/handlers.h"
#include "rt/inference_session.h"

namespace turl {
namespace rt {
namespace {

// The deprecated 2-arg Submit(table, tensor-callback) adapter is gone (it
// was promised for exactly one release); Submit(rt::Request) is the only
// submission entry point.
template <typename S>
concept HasDeprecatedTwoArgSubmit =
    requires(S& s, const core::EncodedTable* t,
             std::function<void(nn::Tensor)> cb) { s.Submit(t, cb); };
static_assert(!HasDeprecatedTwoArgSubmit<BatchScheduler>);

const core::TurlContext& Ctx() {
  static core::TurlContext* ctx = [] {
    core::ContextConfig config;
    config.corpus.num_tables = 150;
    config.seed = 42;
    return new core::TurlContext(core::BuildContext(config));
  }();
  return *ctx;
}

core::TurlConfig SmallConfig() {
  core::TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

const core::TurlModel& Model() {
  static core::TurlModel* model = new core::TurlModel(
      SmallConfig(), Ctx().vocab.size(), Ctx().entity_vocab.size(),
      /*seed=*/11);
  return *model;
}

const InferenceSession& Session() {
  static InferenceSession* session =
      new InferenceSession(Model(), SessionOptions{.num_threads = 1});
  return *session;
}

/// Builds the minimal Request the migrated tests submit: a table plus a
/// callback that only cares about the hidden tensor.
Request Req(const core::EncodedTable* table,
            std::function<void(nn::Tensor)> done) {
  Request request;
  request.table = table;
  request.done = [cb = std::move(done)](Response response) {
    cb(std::move(response.hidden));
  };
  return request;
}

const std::vector<core::EncodedTable>& Tables() {
  static std::vector<core::EncodedTable>* tables = [] {
    auto* out = new std::vector<core::EncodedTable>;
    const text::WordPieceTokenizer tokenizer = Ctx().MakeTokenizer();
    for (size_t idx : Ctx().corpus.valid) {
      core::EncodedTable t = core::EncodeTable(
          Ctx().corpus.tables[idx], tokenizer, Ctx().entity_vocab);
      if (t.total() > 0) out->push_back(std::move(t));
      if (out->size() >= 8) break;
    }
    return out;
  }();
  return *tables;
}

TEST(BatchSchedulerTest, SizeCapFlushes) {
  BatchSchedulerOptions opts;
  opts.max_batch_tables = 2;
  opts.max_batch_budget = 1 << 30;  // Effectively unlimited.
  BatchScheduler scheduler(&Session(), opts);
  int done = 0;
  scheduler.Submit(Req(&Tables()[0], [&](nn::Tensor) { ++done; }));
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(done, 0);
  scheduler.Submit(Req(&Tables()[1], [&](nn::Tensor) { ++done; }));
  EXPECT_EQ(scheduler.pending(), 0u) << "size cap must flush eagerly";
  EXPECT_EQ(done, 2);
}

TEST(BatchSchedulerTest, BudgetCapFlushesBeforeAdmitting) {
  BatchSchedulerOptions opts;
  opts.max_batch_tables = 100;
  // Any single table fills the budget, so each new submit must flush the
  // previously queued request first.
  opts.max_batch_budget = 1;
  BatchScheduler scheduler(&Session(), opts);
  std::vector<int> order;
  scheduler.Submit(Req(&Tables()[0], [&](nn::Tensor) { order.push_back(0); }));
  EXPECT_EQ(scheduler.pending(), 1u)
      << "an oversized request still runs, alone in its own batch";
  scheduler.Submit(Req(&Tables()[1], [&](nn::Tensor) { order.push_back(1); }));
  EXPECT_EQ(order, std::vector<int>({0}));
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.Flush();
  EXPECT_EQ(order, std::vector<int>({0, 1}));
}

TEST(BatchSchedulerTest, CallbacksRunInSubmissionOrderWithExactResults) {
  BatchScheduler scheduler(&Session());
  const auto& tables = Tables();
  std::vector<size_t> order;
  std::vector<nn::Tensor> results(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    scheduler.Submit(Req(&tables[i], [&, i](nn::Tensor h) {
      order.push_back(i);
      results[i] = h;
    }));
  }
  scheduler.Flush();
  std::vector<size_t> expected(tables.size());
  for (size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
  for (size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(results[i].ToVector(), Session().Encode(tables[i]).ToVector())
        << "table " << i;
  }
}

TEST(BatchSchedulerTest, FlushFeedsQueueWaitHistogram) {
  obs::Histogram* wait =
      obs::MetricsRegistry::Get().GetHistogram("rt.scheduler.queue_wait_ms");
  const int64_t before = wait->count();
  BatchScheduler scheduler(&Session());
  int done = 0;
  scheduler.Submit(Req(&Tables()[0], [&](nn::Tensor) { ++done; }));
  scheduler.Submit(Req(&Tables()[1], [&](nn::Tensor) { ++done; }));
  EXPECT_EQ(wait->count(), before);  // Nothing observed while queued.
  scheduler.Flush();
  EXPECT_EQ(done, 2);
  // One observation per drained request, each a non-negative wait.
  EXPECT_EQ(wait->count(), before + 2);
  EXPECT_GE(wait->max(), 0.0);
}

TEST(BatchSchedulerTest, RegistersSchedulerReadinessProbe) {
  const size_t before = obs::server::HealthRegistry::Get().size();
  {
    BatchScheduler scheduler(&Session());
    EXPECT_EQ(obs::server::HealthRegistry::Get().size(), before + 1);
    bool found = false;
    for (const auto& r : obs::server::HealthRegistry::Get().RunAll()) {
      if (r.name == "rt.scheduler") {
        found = true;
        EXPECT_TRUE(r.ok);
        EXPECT_NE(r.detail.find("accepting"), std::string::npos);
      }
    }
    EXPECT_TRUE(found);
  }
  // Probe unregisters with the scheduler.
  EXPECT_EQ(obs::server::HealthRegistry::Get().size(), before);
}

TEST(BatchSchedulerTest, ExpiredDeadlineCompletesWithoutEncoding) {
  double now_ms = 1000.0;
  BatchSchedulerOptions opts;
  opts.max_batch_tables = 100;
  opts.max_batch_budget = 1 << 30;
  BatchScheduler scheduler(&Session(), opts, [&now_ms] { return now_ms; });
  obs::Counter* missed =
      obs::MetricsRegistry::Get().GetCounter("rt.scheduler.deadline_missed");
  const int64_t before = missed->Value();

  std::vector<Response> responses;
  auto submit = [&](size_t table, uint64_t id, double deadline) {
    Request request;
    request.table = &Tables()[table];
    request.request_id = id;
    request.task = TaskKind::kCellFilling;
    request.deadline_ms = deadline;
    request.done = [&](Response r) { responses.push_back(std::move(r)); };
    scheduler.Submit(std::move(request));
  };
  submit(0, 7, /*deadline=*/now_ms + 5.0);   // Will expire before the flush.
  submit(1, 8, /*deadline=*/now_ms + 500.0); // Still live at the flush.
  now_ms += 100.0;
  scheduler.Flush();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].request_id, 7u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kDeadlineExceeded);
  EXPECT_FALSE(responses[0].hidden.defined())
      << "expired requests must not be encoded";
  EXPECT_EQ(responses[1].request_id, 8u);
  EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].task, TaskKind::kCellFilling);
  EXPECT_EQ(responses[1].hidden.ToVector(),
            Session().Encode(Tables()[1]).ToVector());
  EXPECT_GE(responses[1].queue_wait_ms, 0.0);
  EXPECT_EQ(missed->Value(), before + 1);
}

TEST(BatchSchedulerTest, NoDeadlineNeverExpires) {
  double now_ms = 0.0;
  BatchScheduler scheduler(&Session(), BatchSchedulerOptions(),
                           [&now_ms] { return now_ms; });
  ResponseStatus status = ResponseStatus::kOverloaded;
  Request request;
  request.table = &Tables()[0];
  request.done = [&](Response r) { status = r.status; };
  scheduler.Submit(std::move(request));
  now_ms += 1e9;  // deadline_ms == 0 means no deadline, however late.
  scheduler.Flush();
  EXPECT_EQ(status, ResponseStatus::kOk);
}

TEST(BatchSchedulerTest, DestructorFlushesPendingRequests) {
  int done = 0;
  {
    BatchScheduler scheduler(&Session());
    scheduler.Submit(Req(&Tables()[0], [&](nn::Tensor) { ++done; }));
    EXPECT_EQ(done, 0);
  }
  EXPECT_EQ(done, 1);
}

/// Submits and flushes request 0 on its own thread, with a `done` that
/// holds the batch until `queued` more requests wait behind it; those are
/// submitted and flushed from one thread each. Returns every response in
/// completion order (batches complete one at a time, so a plain vector is
/// race-free).
std::vector<Response> HoldAndQueue(BatchScheduler& scheduler, size_t queued) {
  std::vector<Response> completed;
  std::atomic<bool> holding{false};
  auto submit_and_flush = [&](size_t i) {
    Request request;
    request.table = &Tables()[i];
    request.request_id = i;
    request.done = [&, i](Response r) {
      if (i == 0) {
        holding = true;
        while (scheduler.pending() < queued) std::this_thread::yield();
      }
      completed.push_back(std::move(r));
    };
    scheduler.Submit(std::move(request));
    scheduler.Flush();
  };
  std::vector<std::thread> threads;
  threads.emplace_back(submit_and_flush, 0);
  while (!holding) std::this_thread::yield();
  for (size_t i = 1; i <= queued; ++i) {
    threads.emplace_back(submit_and_flush, i);
  }
  for (std::thread& t : threads) t.join();
  return completed;
}

std::vector<int32_t> BatchSizes(const std::vector<Response>& responses) {
  std::vector<int32_t> sizes;
  for (const Response& r : responses) sizes.push_back(r.batch_size);
  return sizes;
}

TEST(BatchSchedulerTest, ConcurrentSubmittersCoalesceIntoTheNextBatch) {
  BatchScheduler scheduler(&Session());
  const std::vector<Response> responses = HoldAndQueue(scheduler, 2);
  // A runs alone; B and C, queued while A's batch ran, share the next one.
  EXPECT_EQ(BatchSizes(responses), std::vector<int32_t>({1, 2, 2}));
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.request_id;
    EXPECT_EQ(r.hidden.ToVector(),
              Session().Encode(Tables()[r.request_id]).ToVector())
        << "table " << r.request_id;
  }
}

TEST(BatchSchedulerTest, RequestsQueuedDuringARunStillRespectTheSizeCap) {
  BatchSchedulerOptions opts;
  opts.max_batch_tables = 2;
  opts.max_batch_budget = 1 << 30;
  BatchScheduler scheduler(&Session(), opts);
  EXPECT_EQ(BatchSizes(HoldAndQueue(scheduler, 3)),
            std::vector<int32_t>({1, 2, 2, 1}));
}

}  // namespace
}  // namespace rt
}  // namespace turl
