#include "reclaim/arena.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace skiptrie {

void SlabArena::ThreadCache::thread_exit() {
  // Return everything to the global list so other threads can reuse it.
  std::lock_guard<std::mutex> lk(arena->mu_);
  for (void* p : free_blocks) arena->global_free_.push_back(p);
  free_blocks.clear();
}

SlabArena::SlabArena(size_t block_size, size_t align, size_t blocks_per_slab)
    : block_size_((block_size + align - 1) / align * align),
      align_(align),
      blocks_per_slab_(blocks_per_slab) {
  assert((align & (align - 1)) == 0 && align >= 8);
}

SlabArena::~SlabArena() {
  // Surviving caches name blocks of the slabs freed below.
  caches_.close([](ThreadCache& c) { c.free_blocks.clear(); });
  for (char* s : slabs_) std::free(s);
}

void* SlabArena::allocate(bool* fresh) {
  if (fresh != nullptr) *fresh = false;
  ThreadCache& c = cache();
  if (!c.free_blocks.empty()) {
    void* p = c.free_blocks.back();
    c.free_blocks.pop_back();
    allocated_.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  return slow_allocate(c, fresh);
}

void* SlabArena::slow_allocate(ThreadCache& c, bool* fresh) {
  std::lock_guard<std::mutex> lk(mu_);
  // Refill from the global free list first.
  if (!global_free_.empty()) {
    const size_t take = std::min(kBatch, global_free_.size());
    for (size_t i = 0; i < take; ++i) {
      c.free_blocks.push_back(global_free_.back());
      global_free_.pop_back();
    }
    void* p = c.free_blocks.back();
    c.free_blocks.pop_back();
    allocated_.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  // Bump-allocate; start a new slab when the current one is exhausted.
  if (bump_ == nullptr || bump_ + block_size_ > bump_end_) {
    const size_t bytes = block_size_ * blocks_per_slab_;
    char* slab = static_cast<char*>(std::aligned_alloc(align_, bytes));
    // Checked in every build: allocate() never returns nullptr.
    if (slab == nullptr) {
      std::fprintf(stderr, "SlabArena: cannot allocate a slab of %zu bytes\n",
                   bytes);
      std::abort();
    }
    slabs_.push_back(slab);
    bump_ = slab;
    bump_end_ = slab + bytes;
    bytes_reserved_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void* p = bump_;
  bump_ += block_size_;
  allocated_.fetch_add(1, std::memory_order_relaxed);
  if (fresh != nullptr) *fresh = true;
  return p;
}

void SlabArena::recycle(void* p) {
  ThreadCache& c = cache();
  c.free_blocks.push_back(p);
  recycled_.fetch_add(1, std::memory_order_relaxed);
  if (c.free_blocks.size() > kCacheHigh) spill(c);
}

void SlabArena::spill(ThreadCache& c) {
  std::lock_guard<std::mutex> lk(mu_);
  const size_t keep = kCacheHigh / 2;
  while (c.free_blocks.size() > keep) {
    global_free_.push_back(c.free_blocks.back());
    c.free_blocks.pop_back();
  }
}

}  // namespace skiptrie
