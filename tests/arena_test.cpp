#include "reclaim/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

// ASan and TSan stop an allocation request beyond their own size limit
// before the allocator can return null; ArenaDeathTest needs the null to
// reach the arena's own check.
extern "C" const char* __asan_default_options() {
  return "allocator_may_return_null=1";
}
extern "C" const char* __tsan_default_options() {
  return "allocator_may_return_null=1";
}

namespace skiptrie {
namespace {

TEST(Arena, BlockSizeRoundedToAlignment) {
  SlabArena a(40, 64, 16);
  EXPECT_EQ(a.block_size(), 64u);
  SlabArena b(64, 64, 16);
  EXPECT_EQ(b.block_size(), 64u);
  SlabArena c(65, 64, 16);
  EXPECT_EQ(c.block_size(), 128u);
}

TEST(Arena, FreshFlagOnFirstUseOnly) {
  SlabArena a(64, 64, 16);
  bool fresh = false;
  void* p = a.allocate(&fresh);
  EXPECT_TRUE(fresh);
  a.recycle(p);
  bool fresh2 = true;
  void* q = a.allocate(&fresh2);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(q, p);  // thread cache returns the recycled block
}

TEST(Arena, AlignmentHonored) {
  SlabArena a(64, 64, 16);
  for (int i = 0; i < 100; ++i) {
    void* p = a.allocate();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
  }
}

TEST(Arena, DistinctLiveBlocks) {
  SlabArena a(64, 64, 8);  // small slabs: force multiple slabs
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = a.allocate();
    EXPECT_TRUE(seen.insert(p).second) << "duplicate live block";
  }
  EXPECT_EQ(a.live_blocks(), 1000);
}

TEST(Arena, BytesReservedGrowsBySlab) {
  SlabArena a(64, 64, 8);
  EXPECT_EQ(a.bytes_reserved(), 0u);
  a.allocate();
  EXPECT_EQ(a.bytes_reserved(), 64u * 8u);
  for (int i = 0; i < 8; ++i) a.allocate();
  EXPECT_EQ(a.bytes_reserved(), 2u * 64u * 8u);
}

TEST(Arena, RecycleKeepsStorageMapped) {
  // Type stability: recycled blocks stay readable (the whole point for
  // stale guide pointers).
  SlabArena a(64, 64, 16);
  char* p = static_cast<char*>(a.allocate());
  std::memset(p, 0xAB, 64);
  a.recycle(p);
  // Reading after recycle is defined behavior for the arena (the block is
  // never unmapped while the arena lives).
  EXPECT_EQ(static_cast<unsigned char>(p[0]), 0xAB);
}

TEST(Arena, CrossThreadRecycleIsReusable) {
  SlabArena a(64, 64, 16);
  std::vector<void*> blocks;
  for (int i = 0; i < 400; ++i) blocks.push_back(a.allocate());
  std::thread t([&] {
    for (void* p : blocks) a.recycle(p);  // spills to the global list
  });
  t.join();
  // This thread should be able to reuse spilled blocks without growing the
  // arena (allow one extra slab of slack for cache-residency effects).
  const size_t reserved = a.bytes_reserved();
  for (int i = 0; i < 300; ++i) a.allocate();
  EXPECT_LE(a.bytes_reserved(), reserved + 64u * 16u);
}

TEST(Arena, ConcurrentAllocRecycleStress) {
  SlabArena a(64, 64, 256);
  std::vector<std::thread> ts;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      std::vector<void*> mine;
      for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 64; ++i) {
          void* p = a.allocate();
          if (p == nullptr) failed.store(true);
          mine.push_back(p);
        }
        for (void* p : mine) a.recycle(p);
        mine.clear();
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(a.live_blocks(), 0);
}

// A slab no allocator can give (64-byte blocks x 2^54 = 2^60 bytes) must
// abort with its byte count in every build, not hand out nullptr.
// aligned_alloc fails at once, so the request touches no memory.
TEST(ArenaDeathTest, UnallocatableSlabAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        SlabArena a(64, 64, size_t{1} << 54);
        a.allocate();
      },
      "cannot allocate a slab of 1152921504606846976 bytes");
}

}  // namespace
}  // namespace skiptrie
