// Concurrent stress on the skiplist engine in isolation (below the trie):
// races between raising inserts, claiming deletes and traversals, at a
// small truncation height to maximize tower collisions.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/spin_barrier.h"
#include "skiplist/engine.h"

namespace skiptrie {
namespace {

class EngineConcurrent : public ::testing::Test {
 protected:
  EngineConcurrent()
      : arena_(sizeof(Node), kCacheLine, 4096), eng_(ebr_, arena_, 3) {}

  static uint64_t ik(uint64_t k) { return k + 1; }

  SlabArena arena_;
  EbrDomain ebr_;
  SkipListEngine eng_;
};

TEST_F(EngineConcurrent, InsertEraseSameKeySingleWinnerEachRound) {
  for (int round = 0; round < 150; ++round) {
    std::atomic<int> ins_wins{0};
    SpinBarrier barrier(4);
    std::vector<std::thread> ts;
    for (int w = 0; w < 4; ++w) {
      ts.emplace_back([&, w] {
        EbrDomain::Guard g(ebr_);
        barrier.arrive_and_wait();
        const auto r = eng_.insert(ik(round), eng_.head(3), w % 4u);
        if (r.inserted) ins_wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(ins_wins.load(), 1) << round;
    EbrDomain::Guard g(ebr_);
    auto er = eng_.erase(ik(round), eng_.head(3));
    ASSERT_TRUE(er.erased);
    eng_.retire_owned(er);
  }
}

TEST_F(EngineConcurrent, RaisersVsDeletersNeverStrandTowers) {
  // Two inserters raise full-height towers while two deleters claim them,
  // all over the same 64 keys.  A delete sweeps the tower top-down once
  // after its claim, which finds every tower node only because no raise
  // can link after the claim; a link that did would stay behind as a
  // stranded node, so at the end every level must be empty.
  const int kKeys = 64;
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (uint64_t w = 0; w < 2; ++w) {
    ts.emplace_back([&, w] {
      Xoshiro256 rng(1 + w);
      while (!stop.load(std::memory_order_acquire)) {
        EbrDomain::Guard g(ebr_);
        eng_.insert(ik(rng.next_below(kKeys)), eng_.head(3), 3);
      }
    });
    ts.emplace_back([&, w] {
      Xoshiro256 rng(11 + w);
      while (!stop.load(std::memory_order_acquire)) {
        EbrDomain::Guard g(ebr_);
        auto r = eng_.erase(ik(rng.next_below(kKeys)), eng_.head(3));
        if (r.erased) eng_.retire_owned(r);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  for (auto& th : ts) th.join();

  // Drain the survivors.
  EbrDomain::Guard g(ebr_);
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto r = eng_.erase(ik(k), eng_.head(3));
    if (r.erased) eng_.retire_owned(r);
  }
  for (uint32_t l = 0; l <= 3; ++l) {
    EXPECT_EQ(eng_.first_at(l), nullptr) << "stranded node at level " << l;
  }
}

TEST_F(EngineConcurrent, TraversalsDuringChurnStayBracketed) {
  std::atomic<bool> stop{false};
  // Anchors at multiples of 1000 are immutable.
  {
    EbrDomain::Guard g(ebr_);
    for (uint64_t a = 0; a <= 8; ++a) {
      ASSERT_TRUE(eng_.insert(ik(a * 1000), eng_.head(3), 3).inserted);
    }
  }
  std::thread churn([&] {
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_acquire)) {
      EbrDomain::Guard g(ebr_);
      const uint64_t k = 1 + rng.next_below(7999);
      if (k % 1000 == 0) continue;
      if (rng.next() & 1) {
        eng_.insert(ik(k), eng_.head(3), rng.geometric_height(3));
      } else {
        auto r = eng_.erase(ik(k), eng_.head(3));
        if (r.erased) eng_.retire_owned(r);
      }
    }
  });
  Xoshiro256 rng(6);
  for (int i = 0; i < 30000; ++i) {
    EbrDomain::Guard g(ebr_);
    const uint64_t anchor = rng.next_below(8);
    // Bracket exactly at an anchor: left must be < anchor, right == anchor.
    const auto b = eng_.descend(ik(anchor * 1000), eng_.head(3));
    ASSERT_EQ(b.right->ikey(), ik(anchor * 1000));
    ASSERT_LT(b.left->ikey(), ik(anchor * 1000));
  }
  stop.store(true, std::memory_order_release);
  churn.join();
}

TEST_F(EngineConcurrent, DisjointRangesExactUnderParallelism) {
  SpinBarrier barrier(4);
  std::vector<std::thread> ts;
  for (int w = 0; w < 4; ++w) {
    ts.emplace_back([&, w] {
      EbrDomain::Guard g(ebr_);
      barrier.arrive_and_wait();
      const uint64_t base = static_cast<uint64_t>(w) * 100000;
      Xoshiro256 rng(w);
      for (uint64_t i = 0; i < 1500; ++i) {
        ASSERT_TRUE(
            eng_.insert(ik(base + i), eng_.head(3), rng.geometric_height(3))
                .inserted);
      }
      for (uint64_t i = 0; i < 1500; i += 3) {
        auto r = eng_.erase(ik(base + i), eng_.head(3));
        ASSERT_TRUE(r.erased);
        eng_.retire_owned(r);
      }
      for (uint64_t i = 0; i < 1500; ++i) {
        const auto b = eng_.descend(ik(base + i), eng_.head(3));
        ASSERT_EQ(b.right->ikey() == ik(base + i), i % 3 != 0) << base + i;
      }
    });
  }
  for (auto& th : ts) th.join();
}

}  // namespace
}  // namespace skiptrie
