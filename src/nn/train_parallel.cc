#include "nn/train_parallel.h"

#include <algorithm>
#include <climits>
#include <memory>
#include <mutex>

#include "rt/thread_pool.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace nn {

namespace {

std::mutex g_mu;
std::unique_ptr<rt::ThreadPool> g_pool;
int g_threads = 0;  // 0 = not yet resolved.

int ResolveFromEnv() {
  // Sequential by default: training parallelism is opt-in, so a plain run
  // behaves exactly like every release before the executor existed.
  return EnvInt("TURL_TRAIN_THREADS", 1, 1, INT_MAX);
}

int ThreadsLocked() {
  if (g_threads == 0) g_threads = ResolveFromEnv();
  return g_threads;
}

thread_local GradShard* tls_shard = nullptr;

}  // namespace

int TrainThreads() {
  std::lock_guard<std::mutex> lock(g_mu);
  return ThreadsLocked();
}

void SetTrainThreads(int n) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_pool.reset();
  g_threads = n > 0 ? n : ResolveFromEnv();
}

rt::ThreadPool* TrainPool() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (ThreadsLocked() <= 1) return nullptr;
  if (!g_pool) g_pool = std::make_unique<rt::ThreadPool>(g_threads);
  return g_pool.get();
}

GradShard::GradShard(const std::vector<const ParamStore*>& stores) {
  for (const ParamStore* store : stores) {
    TURL_CHECK(store != nullptr);
    for (const auto& [name, tensor] : store->params()) {
      TensorImpl* impl = tensor.impl().get();
      const auto [it, inserted] = index_.emplace(impl, slots_.size());
      (void)it;
      TURL_CHECK(inserted) << "parameter registered twice: " << name;
      Slot slot;
      slot.impl = impl;
      slot.buf.assign(impl->data.size(), 0.f);
      slots_.push_back(std::move(slot));
    }
  }
}

float* GradShard::Redirect(const TensorImpl* impl) {
  const auto it = index_.find(impl);
  if (it == index_.end()) return nullptr;
  Slot& slot = slots_[it->second];
  slot.dirty = true;
  return slot.buf.data();
}

void GradShard::Reset() {
  for (Slot& slot : slots_) {
    if (!slot.dirty) continue;
    std::fill(slot.buf.begin(), slot.buf.end(), 0.f);
    slot.dirty = false;
  }
}

const float* GradShard::Touched(const TensorImpl* impl) const {
  const auto it = index_.find(impl);
  if (it == index_.end()) return nullptr;
  const Slot& slot = slots_[it->second];
  return slot.dirty ? slot.buf.data() : nullptr;
}

ScopedGradShard::ScopedGradShard(GradShard* shard) : previous_(tls_shard) {
  tls_shard = shard;
}

ScopedGradShard::~ScopedGradShard() { tls_shard = previous_; }

GradShard* CurrentGradShard() { return tls_shard; }

uint64_t ShardStreamSeed(uint64_t seed, int64_t step, int64_t shard) {
  // splitmix64-style finalizer over (seed, step, shard) so adjacent logical
  // positions land in decorrelated streams.
  uint64_t z = seed;
  z += 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(step) + 1);
  z += 0xBF58476D1CE4E5B9ull * (static_cast<uint64_t>(shard) + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

}  // namespace nn
}  // namespace turl
