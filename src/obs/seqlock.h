#ifndef TURL_OBS_SEQLOCK_H_
#define TURL_OBS_SEQLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "util/string_util.h"

namespace turl {
namespace obs {

/// One slot of a single-producer ring with lock-free concurrent readers —
/// the discipline under SeqlockRing. The payload is stored
/// as relaxed atomic words rather than a plain T so the deliberate
/// cross-thread copy is race-free by construction, not merely
/// benign-under-validation: a reader racing the producer may still observe
/// torn words, but every access is an atomic operation (no undefined
/// behaviour, nothing for TSan to flag) and the sequence check discards the
/// torn copy. This is the standard C++11 seqlock encoding (Boehm, "Can
/// seqlocks get along with programming language memory models?", MSPC'12).
///
/// Sequence protocol: seq == 2n+1 marks logical record n in flight,
/// seq == 2(n+1) marks it complete. A reader accepts a copy only if seq
/// reads exactly 2(n+1) both before and after the word copy — the pre-check
/// rejects lapped/in-flight slots cheaply, the post-check (ordered by an
/// acquire fence) rejects copies the producer overwrote mid-read.
template <typename T>
class SeqlockSlot {
  static_assert(std::is_trivially_copyable<T>::value,
                "seqlock payloads are copied word-by-word");

 public:
  /// Publishes `value` as logical record `n`. Producer thread only.
  void Store(uint64_t n, const T& value) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    seq_.store(2 * n + 1, std::memory_order_relaxed);
    // Order the odd "in flight" mark before the payload stores: a reader
    // that observes any new word also observes the odd seq on its re-check.
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t w = 0; w < kWords; ++w) {
      words_[w].store(words[w], std::memory_order_relaxed);
    }
    seq_.store(2 * (n + 1), std::memory_order_release);
  }

  /// Copies logical record `n` into `*out`; any thread. Returns false
  /// (clobbering *out) when the producer is mid-write or has lapped the
  /// slot.
  bool TryLoad(uint64_t n, T* out) const {
    if (seq_.load(std::memory_order_acquire) != 2 * (n + 1)) return false;
    uint64_t words[kWords];
    for (size_t w = 0; w < kWords; ++w) {
      words[w] = words_[w].load(std::memory_order_relaxed);
    }
    // Order the payload loads before the re-check: a producer that started
    // record n+cap mid-copy shows its odd mark (or a later seq) here.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) != 2 * (n + 1)) return false;
    std::memcpy(out, words, sizeof(T));
    return true;
  }

 private:
  static constexpr size_t kWords =
      (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> words_[kWords] = {};
};

/// Fixed-capacity single-producer ring of T — the storage under both the
/// request tracer (TraceRing) and the wide-event log (EventRing). The
/// owning thread pushes lock-free; when full, the oldest record is
/// overwritten. Any thread may Snapshot concurrently: a slot the producer
/// is rewriting is skipped, never blocked on.
template <typename T>
class SeqlockRing {
 public:
  SeqlockRing(size_t capacity, uint32_t tid)
      : slots_(std::max<size_t>(capacity, 2)), tid_(tid) {}

  /// Producer side; owning thread only.
  void Push(const T& value) {
    const uint64_t n = count_.load(std::memory_order_relaxed);
    slots_[size_t(n % slots_.size())].Store(n, value);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Appends the retained records (oldest first) to `out`. Safe from any
  /// thread; records being overwritten mid-read are skipped.
  void Snapshot(std::vector<T>* out) const {
    const uint64_t n = count_.load(std::memory_order_acquire);
    const uint64_t cap = slots_.size();
    for (uint64_t i = n > cap ? n - cap : 0; i < n; ++i) {
      // Valid only if the slot still holds logical record i (the producer
      // may have lapped us, or be mid-write).
      T copy;
      if (slots_[size_t(i % cap)].TryLoad(i, &copy)) out->push_back(copy);
    }
  }

  uint32_t tid() const { return tid_; }
  size_t capacity() const { return slots_.size(); }
  /// Records overwritten because the ring was full.
  uint64_t dropped() const {
    const uint64_t n = count_.load(std::memory_order_acquire);
    return n > slots_.size() ? n - slots_.size() : 0;
  }
  /// Forgets all records. Test hook; the owning thread must be quiescent.
  /// Stale slot seqs cannot collide: Snapshot only reads logical indices
  /// below the (reset) count, which Push rewrites before they are visible.
  void Reset() { count_.store(0, std::memory_order_release); }

 private:
  std::vector<SeqlockSlot<T>> slots_;
  std::atomic<uint64_t> count_{0};
  uint32_t tid_;
};

/// Ring capacity from the knob `name`: `fallback` when unset or empty, or
/// when the value is not a whole number in [2, 1048576] (with a warning).
inline size_t RingCapacityFromEnv(const char* name, size_t fallback) {
  return size_t(EnvInt(name, int(fallback), 2, 1 << 20));
}

/// One SeqlockRing<T> per thread that ever pushed, drained together.
/// Rings are created on a thread's first push and outlive their threads
/// (pool workers come and go); ring tids are dense in registration order.
/// `Before` orders a cross-ring Snapshot. The calling thread's ring pointer
/// is a thread_local per payload type, so a process holds one registry per
/// T (the tracer's and the wide-event log's).
template <typename T, typename Before>
class RingRegistry {
 public:
  /// Reads the per-thread ring capacity once, from the knob `capacity_env`.
  RingRegistry(const char* capacity_env, size_t default_capacity)
      : ring_capacity_(RingCapacityFromEnv(capacity_env, default_capacity)) {}

  /// The calling thread's ring, created and registered on first use.
  SeqlockRing<T>* ring() {
    if (tls_ring_ != nullptr) return tls_ring_;
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<SeqlockRing<T>>(
        ring_capacity_, static_cast<uint32_t>(rings_.size())));
    tls_ring_ = rings_.back().get();
    return tls_ring_;
  }

  /// All retained records across every ring, sorted by `Before`.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& ring : rings_) ring->Snapshot(&out);
    }
    std::sort(out.begin(), out.end(), Before());
    return out;
  }

  /// Total records overwritten across rings.
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& ring : rings_) total += ring->dropped();
    return total;
  }

  size_t ring_capacity() const { return ring_capacity_; }

  /// Forgets all records (rings stay registered). Test hook; every pushing
  /// thread must be quiescent.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) ring->Reset();
  }

 private:
  static inline thread_local SeqlockRing<T>* tls_ring_ = nullptr;

  size_t ring_capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SeqlockRing<T>>> rings_;
};

}  // namespace obs
}  // namespace turl

#endif  // TURL_OBS_SEQLOCK_H_
