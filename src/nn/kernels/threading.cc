#include "nn/kernels/threading.h"

#include <climits>
#include <memory>
#include <mutex>
#include <thread>

#include "rt/thread_pool.h"
#include "util/string_util.h"

namespace turl {
namespace nn {
namespace kernels {

namespace {

// ~2M mul-adds: a 128x128x128 GEMM stays inline, 160^3 and up may fan out.
constexpr int64_t kDefaultParallelMinFlops = int64_t(1) << 21;

std::mutex g_mu;
std::unique_ptr<rt::ThreadPool> g_pool;
int g_threads = 0;  // 0 = not yet resolved.
int64_t g_min_flops_override = 0;

int ResolveFromEnv() {
  const unsigned hw = std::thread::hardware_concurrency();
  return EnvInt("TURL_KERNEL_THREADS", hw > 0 ? static_cast<int>(hw) : 1, 1,
                INT_MAX);
}

int ThreadsLocked() {
  if (g_threads == 0) g_threads = ResolveFromEnv();
  return g_threads;
}

}  // namespace

int KernelThreads() {
  std::lock_guard<std::mutex> lock(g_mu);
  return ThreadsLocked();
}

void SetKernelThreads(int n) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_pool.reset();
  g_threads = n > 0 ? n : ResolveFromEnv();
}

int64_t ParallelMinFlops() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_min_flops_override > 0 ? g_min_flops_override
                                  : kDefaultParallelMinFlops;
}

void SetParallelMinFlopsForTest(int64_t flops) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_min_flops_override = flops;
}

void ParallelPanels(int64_t panels, int64_t flops,
                    const std::function<void(int64_t)>& body) {
  rt::ThreadPool* pool = nullptr;
  if (panels >= 2) {
    std::lock_guard<std::mutex> lock(g_mu);
    const int64_t min_flops = g_min_flops_override > 0
                                  ? g_min_flops_override
                                  : kDefaultParallelMinFlops;
    if (flops >= min_flops && ThreadsLocked() > 1) {
      if (!g_pool) g_pool = std::make_unique<rt::ThreadPool>(g_threads);
      pool = g_pool.get();
    }
  }
  if (pool == nullptr) {
    for (int64_t p = 0; p < panels; ++p) body(p);
    return;
  }
  pool->ParallelFor(0, panels, /*grain=*/1, body);
}

}  // namespace kernels
}  // namespace nn
}  // namespace turl
