// Type-stable slab arena with per-thread free caches.
//
// Skiplist nodes are allocated here.  Storage handed out by the arena is
// never returned to the OS while the arena lives, so a stale guide pointer
// (back/prev — see DESIGN.md §3.3) always lands on memory that is still a
// valid object of the node type: the worst a reader can observe is a
// poisoned or recycled node, which traversal-level validation detects.
// The x-fast trie's TreeNodes and the split-ordered map's HNodes come from
// two more arenas, as plain pools: EBR already keeps every reader of those
// off a block until it is recycled (DESIGN.md §3.2).
//
// Allocation fast path: pop from the calling thread's cache, its PerThread
// state for the arena (common/per_thread.h, DESIGN.md §3.8; no
// synchronization).  Slow path: grab a batch from the global spill list
// (mutex) or bump-allocate a new slab.  recycle() pushes to the thread's
// cache and spills batches when the cache overflows, so cross-thread
// free/alloc imbalance is bounded.  A thread's exit returns its cache to
// the global list.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/per_thread.h"

namespace skiptrie {

class SlabArena {
 public:
  // block_size: bytes per object (rounded up to alignment).
  // align: object alignment, power of two, >= 8.
  explicit SlabArena(size_t block_size, size_t align = 64,
                     size_t blocks_per_slab = 4096);
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Returns storage of block_size bytes.  Never nullptr: a slab that cannot
  // be allocated aborts with its byte count, in every build.  If fresh is
  // non-null, *fresh is set to true when the block has never been handed
  // out before (callers placement-new only on fresh blocks; recycled blocks
  // still contain a live, poisoned object — see DESIGN.md §3.3).
  void* allocate(bool* fresh = nullptr);

  // Makes the block available for future allocate() calls.  The caller is
  // responsible for having poisoned/destroyed the object first.
  void recycle(void* p);

  // EBR callback for blocks that need no poisoning:
  // ebr.retire(p, &SlabArena::recycle_retired, &arena).
  static void recycle_retired(void* p, void* arena) {
    static_cast<SlabArena*>(arena)->recycle(p);
  }

  size_t block_size() const { return block_size_; }
  // Total bytes reserved from the OS (live + free-cached), for space benches.
  size_t bytes_reserved() const {
    return bytes_reserved_.load(std::memory_order_relaxed);
  }
  // Blocks handed out minus blocks recycled (approximate live count).
  int64_t live_blocks() const {
    return allocated_.load(std::memory_order_relaxed) -
           recycled_.load(std::memory_order_relaxed);
  }

  // One thread's free blocks (public for PerThread's test hook).
  struct ThreadCache {
    explicit ThreadCache(SlabArena* a) : arena(a) {}
    void thread_exit();  // returns the blocks to the global list
    SlabArena* arena;
    std::vector<void*> free_blocks;
  };

 private:
  static constexpr size_t kCacheHigh = 128;  // spill half above this
  static constexpr size_t kBatch = 32;       // refill batch from global

  ThreadCache& cache() { return caches_.local(this); }
  void* slow_allocate(ThreadCache& c, bool* fresh);
  void spill(ThreadCache& c);

  const size_t block_size_;
  const size_t align_;
  const size_t blocks_per_slab_;

  std::mutex mu_;                  // guards slabs_, bump_, global_free_
  std::vector<char*> slabs_;       // owned slab storage
  char* bump_ = nullptr;           // next unallocated byte in current slab
  char* bump_end_ = nullptr;
  std::vector<void*> global_free_;

  std::atomic<size_t> bytes_reserved_{0};
  std::atomic<int64_t> allocated_{0};
  std::atomic<int64_t> recycled_{0};

  PerThread<ThreadCache> caches_;
};

}  // namespace skiptrie
