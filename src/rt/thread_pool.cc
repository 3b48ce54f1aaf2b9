#include "rt/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <exception>
#include <string>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace rt {

namespace {

/// Worker index + owning pool for the current thread; 0/null on non-pool
/// threads. Used for nesting detection and per-worker scratch selection.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = 0;

/// Fraction of pool capacity running tasks right now. With several pools in
/// one process (session pool + kernel pool) the gauge is last-write-wins —
/// it reflects whichever pool most recently changed occupancy, which for a
/// scrape-while-loaded reading is the busy one.
obs::Gauge* UtilizationGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Get().GetGauge("rt.pool.utilization");
  return g;
}

/// Tasks whose exception was contained by WorkerLoop (see Enqueue's
/// fire-and-forget contract in the header).
obs::Counter* TaskExceptionCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("rt.pool.task_exceptions");
  return c;
}

}  // namespace

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return EnvInt("TURL_RT_THREADS", hw > 0 ? static_cast<int>(hw) : 1, 1,
                INT_MAX);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  // Worker 0 is the caller thread; only 1..N-1 are real threads.
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::InWorker() const { return tls_pool == this; }

int ThreadPool::WorkerIndex() const {
  return tls_pool == this ? tls_worker_index : 0;
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TURL_CHECK(!stop_) << "Submit on a destroyed ThreadPool";
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  // RAII so the count (and the gauge derived from it) unwinds even when a
  // task throws — a leaked increment would pin rt.pool.utilization above
  // zero forever and skew every later reading.
  struct ActiveGuard {
    ThreadPool* pool;
    explicit ActiveGuard(ThreadPool* p) : pool(p) {
      const int running =
          pool->active_.fetch_add(1, std::memory_order_relaxed) + 1;
      UtilizationGauge()->Set(double(running) / double(pool->num_threads_));
    }
    ~ActiveGuard() {
      const int left =
          pool->active_.fetch_sub(1, std::memory_order_relaxed) - 1;
      UtilizationGauge()->Set(double(left) / double(pool->num_threads_));
    }
  };
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    ActiveGuard guard(this);
    // A directly-Enqueue'd task has no future to carry its exception; letting
    // it escape here would std::terminate the process. Contain it: log,
    // count, keep the worker alive.
    try {
      task();
    } catch (const std::exception& e) {
      TaskExceptionCounter()->Inc();
      TURL_LOG(Warning) << "rt::ThreadPool task threw: " << e.what();
    } catch (...) {
      TaskExceptionCounter()->Inc();
      TURL_LOG(Warning) << "rt::ThreadPool task threw a non-std exception";
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t)>& body) {
  if (begin >= end) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t n = end - begin;
  // Inline when parallelism cannot help: single-threaded pool, a nested call
  // from one of our workers, or fewer indices than one grain. The inline
  // path is the sequential reference semantics everything else must match.
  if (num_threads_ <= 1 || InWorker() || n <= grain) {
    for (int64_t i = begin; i < end; ++i) body(i);
    return;
  }

  struct SharedState {
    std::atomic<int64_t> next{0};
    std::atomic<int> pending{0};
    std::mutex error_mu;
    std::exception_ptr error;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<SharedState>();
  const int64_t num_chunks = (n + grain - 1) / grain;
  // Self-scheduling chunks: each dispatched unit claims the next grain-sized
  // range. One queue entry per worker (not per chunk) keeps queue pressure
  // independent of n.
  const int units =
      static_cast<int>(std::min<int64_t>(num_threads_ - 1, num_chunks));
  auto run_chunks = [state, begin, end, grain, &body] {
    for (;;) {
      const int64_t chunk_begin = begin + state->next.fetch_add(grain);
      if (chunk_begin >= end) break;
      const int64_t chunk_end = std::min(end, chunk_begin + grain);
      try {
        for (int64_t i = chunk_begin; i < chunk_end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->error_mu);
        if (!state->error) state->error = std::current_exception();
        // Keep draining remaining chunks: every index either runs or is
        // claimed, so callers can reason about partial output.
      }
    }
  };
  state->pending.store(units, std::memory_order_relaxed);
  for (int u = 0; u < units; ++u) {
    Enqueue([state, run_chunks] {
      run_chunks();
      if (state->pending.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(state->done_mu);
        state->done_cv.notify_all();
      }
    });
  }
  // The caller is worker 0: it helps until the range is exhausted, then
  // waits for the workers still finishing their last chunk.
  run_chunks();
  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] { return state->pending.load() == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace rt
}  // namespace turl
