// Concurrency stress tests: exactness on disjoint keys, invariant
// preservation under shared-key churn, and query sanity during mutation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/spin_barrier.h"
#include "core/skiptrie.h"
#include "core/validate.h"

namespace skiptrie {
namespace {

Config cfg(uint32_t bits, DcssMode mode = DcssMode::kDcss) {
  Config c;
  c.universe_bits = bits;
  c.dcss_mode = mode;
  return c;
}

unsigned worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : (hw >= 2 ? hw : 2);
}

TEST(SkipTrieConcurrent, DisjointKeyRangesAreExact) {
  SkipTrie t(cfg(24));
  const unsigned kThreads = worker_count();
  const uint64_t kPer = 4000;
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      barrier.arrive_and_wait();
      const uint64_t base = w * 1000000ull;
      // Insert everything, erase the odd ones, re-check.
      for (uint64_t i = 0; i < kPer; ++i) {
        ASSERT_TRUE(t.insert(base + i));
      }
      for (uint64_t i = 1; i < kPer; i += 2) {
        ASSERT_TRUE(t.erase(base + i));
      }
      for (uint64_t i = 0; i < kPer; ++i) {
        ASSERT_EQ(t.contains(base + i), i % 2 == 0) << base + i;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(t.size(), kThreads * (kPer / 2));
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrieConcurrent, InsertRaceExactlyOneWinner) {
  SkipTrie t(cfg(16));
  const unsigned kThreads = worker_count();
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> wins{0};
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < kThreads; ++w) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        if (t.insert(round)) wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
  }
}

TEST(SkipTrieConcurrent, EraseRaceExactlyOneWinner) {
  SkipTrie t(cfg(16));
  const unsigned kThreads = worker_count();
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(t.insert(round));
    std::atomic<int> wins{0};
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < kThreads; ++w) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        if (t.erase(round)) wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
    ASSERT_FALSE(t.contains(round));
  }
}

TEST(SkipTrieConcurrent, InsertEraseSameKeyToggleStress) {
  // Threads hammer the SAME small key set with inserts and erases; the
  // structure must stay valid and every op must report a coherent result.
  SkipTrie t(cfg(16));
  const unsigned kThreads = worker_count();
  std::atomic<int64_t> net{0};
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      Xoshiro256 rng(w + 1);
      int64_t local = 0;
      for (int i = 0; i < 8000; ++i) {
        const uint64_t k = rng.next_below(16);  // extreme contention
        if (rng.next() & 1) {
          if (t.insert(k)) local++;
        } else {
          if (t.erase(k)) local--;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  // Net successful inserts minus erases equals the surviving key count.
  int64_t remaining = 0;
  for (uint64_t k = 0; k < 16; ++k) remaining += t.contains(k) ? 1 : 0;
  EXPECT_EQ(net.load(), remaining);
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrieConcurrent, QueriesDuringChurnReturnSaneAnswers) {
  SkipTrie t(cfg(20));
  // Anchor keys that are never touched: queries between anchors must always
  // see them.
  for (uint64_t a = 0; a <= 10; ++a) ASSERT_TRUE(t.insert(a * 100000));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::thread churn([&] {
    Xoshiro256 rng(404);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t k = rng.next_below(9) * 100000 + 1 + rng.next_below(99998);
      if (rng.next() & 1) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  std::vector<std::thread> readers;
  for (unsigned w = 0; w < worker_count() - 1; ++w) {
    readers.emplace_back([&, w] {
      Xoshiro256 rng(w * 7 + 1);
      for (int i = 0; i < 20000; ++i) {
        const uint64_t anchor = rng.next_below(10);
        // predecessor(anchor*100000 + 0) must be exactly the anchor.
        const auto p = t.predecessor(anchor * 100000);
        ASSERT_TRUE(p.has_value());
        ASSERT_EQ(*p, anchor * 100000);
        // successor just below the next anchor must be <= next anchor and
        // > this anchor.
        const auto s = t.successor(anchor * 100000);
        ASSERT_TRUE(s.has_value());
        ASSERT_GT(*s, anchor * 100000);
        ASSERT_LE(*s, (anchor + 1) * 100000);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_GT(checked.load(), 0u);
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

class ConcurrentModePressure
    : public ::testing::TestWithParam<DcssMode> {};

TEST_P(ConcurrentModePressure, MixedChurnKeepsInvariants) {
  SkipTrie t(cfg(24, GetParam()));
  const unsigned kThreads = worker_count();
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      Xoshiro256 rng(w * 13 + 5);
      for (int i = 0; i < 15000; ++i) {
        const uint64_t k = rng.next_below(1u << 12);
        switch (rng.next_below(4)) {
          case 0: t.insert(k); break;
          case 1: t.erase(k); break;
          case 2: t.contains(k); break;
          default: t.predecessor(k); break;
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty())
      << errors.size() << " violations, first: "
      << (errors.empty() ? "" : errors.front());
  // And the structure still behaves after the storm.
  t.insert(99999);
  EXPECT_TRUE(t.contains(99999));
  EXPECT_EQ(t.predecessor(99999).value(), 99999u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, ConcurrentModePressure,
                         ::testing::Values(DcssMode::kDcss,
                                           DcssMode::kCasFallback),
                         [](const auto& info) {
                           return info.param == DcssMode::kDcss ? "Dcss"
                                                                : "CasFallback";
                         });

TEST(SkipTrieConcurrent, TeardownRunsParkedThreadsRecycles) {
  // A thread that erased top-level keys and then parked, alive and
  // unpinned, still holds their retire callbacks when the structure is
  // destroyed.  ~EbrDomain runs them, recycling skiplist nodes, TreeNodes
  // and HNodes into their pools, so every pool must still be alive then
  // (DESIGN.md §3.2).  ASan reports any pool destroyed first.
  auto t = std::make_unique<SkipTrie>(cfg(16));
  for (uint64_t k = 0; k < 2000; ++k) t->insert(k * 31);
  std::vector<uint64_t> tops;
  {
    EbrDomain::Guard g(t->ebr());
    const uint32_t top = t->engine().top_level();
    for (Node* n = t->engine().first_at(top); n != nullptr;
         n = t->engine().next_at(n)) {
      tops.push_back(n->ikey() - 1);
    }
  }
  ASSERT_FALSE(tops.empty());
  SpinBarrier parked(2);
  std::thread worker([&] {
    // Erasing the last top-level key kills every prefix entry but the
    // root's, so the final operation alone retires TreeNodes and HNodes
    // that no later scan can reclaim.
    for (const uint64_t k : tops) EXPECT_TRUE(t->erase(k));
    parked.arrive_and_wait();  // erases done; stay alive until teardown
    parked.arrive_and_wait();
  });
  parked.arrive_and_wait();
  EXPECT_EQ(t->trie().entry_count(), 1u);  // only the root entry is left
  t.reset();
  parked.arrive_and_wait();
  worker.join();
}

TEST(SkipTrieConcurrent, MemoryIsRecycledUnderChurn) {
  SkipTrie t(cfg(20));
  // Repeated insert/erase of the same keys must not grow the arena without
  // bound: recycled nodes get reused.
  for (uint64_t k = 0; k < 2000; ++k) t.insert(k);
  for (uint64_t k = 0; k < 2000; ++k) t.erase(k);
  const size_t after_warmup = t.structure_stats().arena_bytes;
  for (int round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) t.insert(k);
    for (uint64_t k = 0; k < 2000; ++k) t.erase(k);
  }
  const size_t after_churn = t.structure_stats().arena_bytes;
  EXPECT_LE(after_churn, after_warmup * 3 + (1u << 20));
}

}  // namespace
}  // namespace skiptrie
