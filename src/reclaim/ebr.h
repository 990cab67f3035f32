// Epoch-based reclamation (EBR).
//
// The paper's pseudocode assumes a garbage collector; in C++ we must decide
// when unlinked nodes can be reused.  Every public SkipTrie operation pins an
// epoch for its whole duration (a Guard).  A node retired in epoch e is only
// handed to its reclaimer once every pinned thread has observed an epoch
// >= e (two grace periods in the classic 3-epoch scheme), so any pointer a
// pinned thread loaded from a live chain stays dereferenceable until it
// unpins.
//
// Stale *guide* pointers (back/prev) can outlive this contract; the skiplist
// layers type-stable arena recycling on top (see reclaim/arena.h and
// DESIGN.md §3.3) so that even those dereferences stay memory-safe.
//
// Threads register implicitly on first use of a domain and may use any
// number of domains; each thread's slot and retired list is its
// PerThread state for the domain (common/per_thread.h, DESIGN.md §3.8).
// Slot scanning is O(max registered threads).  A domain holds at most
// kMaxThreads live threads at once; registering one more aborts with a
// message (a thread's slot is freed when it exits).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/cacheline.h"
#include "common/per_thread.h"

namespace skiptrie {

class EbrDomain;

namespace detail {

struct Retired {
  void* ptr;
  void (*fn)(void*, void*);  // (ptr, ctx)
  void* ctx;
  uint64_t epoch;
};

struct EbrThreadState {
  explicit EbrThreadState(EbrDomain& d);  // takes a slot
  // Hands the pending retirements to the domain's orphans and frees the
  // slot (PerThread runs it at the thread's exit while the domain lives).
  void thread_exit();
  // Publishes retired.size() for pending_retired().
  void publish() { pending.store(retired.size(), std::memory_order_relaxed); }

  EbrDomain* domain;
  uint32_t slot = 0;
  uint32_t pin_depth = 0;
  std::vector<Retired> retired;
  std::atomic<size_t> pending{0};
};

}  // namespace detail

class EbrDomain {
 public:
  static constexpr uint32_t kMaxThreads = 192;
  // Try to advance/reclaim every this many retirements per thread.
  static constexpr size_t kScanThreshold = 64;

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // RAII pinned region; reentrant (nested guards share the outer pin).
  class Guard {
   public:
    explicit Guard(EbrDomain& d) : state_(&d.states_.local(d)) {
      d.pin(state_);
    }
    ~Guard() { state_->domain->unpin(state_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    detail::EbrThreadState* state_;
  };

  // Defer `fn(ptr, ctx)` until the grace period passes.  Must be called with
  // the domain pinned by the calling thread.
  void retire(void* ptr, void (*fn)(void*, void*), void* ctx);

  // Convenience for delete-based reclamation.
  template <typename T>
  void retire_delete(T* ptr) {
    retire(
        ptr, [](void* p, void*) { delete static_cast<T*>(p); }, nullptr);
  }

  // Reclaim everything that is safe to reclaim right now from the calling
  // thread's list and the orphans (test/bench hook).  Registers nothing.
  // Not thread-safe against concurrent pins.
  void drain();

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }
  // Approximate count of callbacks still awaiting their grace period: the
  // orphans of exited threads plus every live thread's retired list.
  size_t pending_retired() const;

 private:
  friend struct detail::EbrThreadState;

  void pin(detail::EbrThreadState* ts);
  void unpin(detail::EbrThreadState* ts);
  void try_advance_and_reclaim(detail::EbrThreadState* ts);
  bool all_quiescent_at(uint64_t epoch) const;
  void reclaim_orphans(uint64_t now);

  std::atomic<uint64_t> global_epoch_{1};
  // Slot value: 0 when unpinned, otherwise (epoch << 1) | 1.
  Padded<std::atomic<uint64_t>> slots_[kMaxThreads];
  std::atomic<uint32_t> slot_watermark_{0};  // highest slot index ever used +1
  std::mutex slot_mu_;
  std::vector<uint32_t> free_slots_;

  std::mutex orphan_mu_;
  std::vector<detail::Retired> orphans_;  // from exited threads
  std::atomic<size_t> orphan_count_{0};

  PerThread<detail::EbrThreadState> states_;
};

}  // namespace skiptrie
