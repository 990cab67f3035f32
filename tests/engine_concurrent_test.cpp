// Concurrent stress on the skiplist engine in isolation (below the trie):
// races between raising inserts, claiming deletes and traversals, at a
// small truncation height to maximize tower collisions.  Also pins the
// per-thread cursor registry's one-object-per-live-engine contract.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/spin_barrier.h"
#include "skiplist/cursor.h"
#include "skiplist/engine.h"

namespace skiptrie {
namespace {

class EngineConcurrent : public ::testing::TestWithParam<DcssMode> {
 protected:
  EngineConcurrent()
      : arena_(sizeof(Node), kCacheLine, 4096),
        ctx_{&ebr_, GetParam()},
        eng_(ctx_, arena_, 3) {}

  static uint64_t ik(uint64_t k) { return k + 1; }

  SlabArena arena_;
  EbrDomain ebr_;
  DcssContext ctx_;
  SkipListEngine eng_;
};

TEST_P(EngineConcurrent, InsertEraseSameKeySingleWinnerEachRound) {
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

TEST_P(EngineConcurrent, RaisersVsDeletersNeverStrandTowers) {
  // Writers insert full-height towers while deleters chase them; at the
  // end every level must be empty (no orphaned tower nodes), in both DCSS
  // and CAS-fallback modes (the fallback exercises the undo path).
  const int kKeys = 64;
  std::atomic<bool> stop{false};
  std::thread inserter([&] {
    Xoshiro256 rng(1);
    while (!stop.load(std::memory_order_acquire)) {
      EbrDomain::Guard g(ebr_);
      eng_.insert(ik(rng.next_below(kKeys)), eng_.head(3), 3);
    }
  });
  std::thread deleter([&] {
    Xoshiro256 rng(2);
    while (!stop.load(std::memory_order_acquire)) {
      EbrDomain::Guard g(ebr_);
      auto r = eng_.erase(ik(rng.next_below(kKeys)), eng_.head(3));
      if (r.erased) eng_.retire_owned(r);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  inserter.join();
  deleter.join();

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

TEST_P(EngineConcurrent, TraversalsDuringChurnStayBracketed) {
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

TEST_P(EngineConcurrent, DisjointRangesExactUnderParallelism) {
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

// --- Registry aliasing regression (DESIGN.md §3.8) ---------------------------
//
// The first cursor registry held a fixed 4 slots per thread and recycled
// them round-robin, rebinding DescentCursor objects in place, so a thread
// touching more than 4 engines silently retargeted references an outer
// frame still held (aliasing).  These tests pin the replacement contract:
// one stable object per live owner, distinct across owners, swept only when
// the owner's engine is destroyed.

TEST(RegistryAliasingTest, CursorsStayDistinctAndStableAcrossManyOwners) {
  SlabArena arena(sizeof(Node), kCacheLine, 1024);
  EbrDomain ebr;
  DcssContext ctx{&ebr, DcssMode::kDcss};
  constexpr int kEngines = 8;
  std::vector<std::unique_ptr<SkipListEngine>> engines;
  for (int i = 0; i < kEngines; ++i) {
    engines.push_back(std::make_unique<SkipListEngine>(ctx, arena, 3));
  }
  std::thread probe([&] {
    DescentCursor* cursors[kEngines];
    for (int i = 0; i < kEngines; ++i) cursors[i] = &engines[i]->cursor();
    for (int i = 0; i < kEngines; ++i) {
      for (int j = i + 1; j < kEngines; ++j) {
        EXPECT_NE(cursors[i], cursors[j]) << i << "," << j;
      }
    }
    // Visiting the engines round-robin, every revisit must return the
    // engine's own cursor object, not a recycled slot, because an outer
    // frame may still hold a reference to it.  (No bracket state carries
    // between visits: batches drop the rows at every pin.)
    for (int round = 0; round < 3; ++round) {
      for (int i = kEngines - 1; i >= 0; --i) {
        EXPECT_EQ(&engines[i]->cursor(), cursors[i]) << i;
      }
    }
  });
  probe.join();
}

TEST(RegistryAliasingTest, DeadOwnersAreSweptFromTheRegistry) {
  std::thread probe([] {
    const size_t c0 = tls_cursor_registry_size();
    {
      SlabArena arena(sizeof(Node), kCacheLine, 2048);
      EbrDomain ebr;
      DcssContext ctx{&ebr, DcssMode::kDcss};
      std::vector<std::unique_ptr<SkipListEngine>> engines;
      for (int i = 0; i < 6; ++i) {
        engines.push_back(std::make_unique<SkipListEngine>(ctx, arena, 3));
        engines.back()->cursor();
      }
      EXPECT_EQ(tls_cursor_registry_size(), c0 + 6);
    }
    // Engine destructors journaled the owners; the next lookup (which the
    // size hook shares) must have dropped every slot.
    EXPECT_EQ(tls_cursor_registry_size(), c0);
  });
  probe.join();
}

INSTANTIATE_TEST_SUITE_P(BothModes, EngineConcurrent,
                         ::testing::Values(DcssMode::kDcss,
                                           DcssMode::kCasFallback),
                         [](const auto& info) {
                           return info.param == DcssMode::kDcss
                                      ? "Dcss"
                                      : "CasFallback";
                         });

}  // namespace
}  // namespace skiptrie
