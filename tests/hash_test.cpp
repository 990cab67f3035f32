#include "hash/split_ordered.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/marked_ptr.h"
#include "common/random.h"
#include "common/stats.h"

namespace skiptrie {
namespace {

class HashTest : public ::testing::Test {
 protected:
  // Declared before ebr_: ~EbrDomain recycles retired nodes into the pool.
  SlabArena pool_{sizeof(SplitOrderedMap::HNode),
                  alignof(SplitOrderedMap::HNode)};
  EbrDomain ebr_;
};

TEST_F(HashTest, InsertLookup) {
  SplitOrderedMap m(ebr_, pool_);
  EXPECT_TRUE(m.insert(1, 100));
  EXPECT_TRUE(m.insert(2, 200));
  EXPECT_EQ(m.lookup(1).value_or(0), 100u);
  EXPECT_EQ(m.lookup(2).value_or(0), 200u);
  EXPECT_FALSE(m.lookup(3).has_value());
  EXPECT_EQ(m.size(), 2u);
}

TEST_F(HashTest, DuplicateInsertRejected) {
  SplitOrderedMap m(ebr_, pool_);
  EXPECT_TRUE(m.insert(5, 1));
  EXPECT_FALSE(m.insert(5, 2));
  EXPECT_EQ(m.lookup(5).value_or(0), 1u);  // original value kept
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(HashTest, EraseReturnsValue) {
  SplitOrderedMap m(ebr_, pool_);
  m.insert(9, 90);
  EXPECT_EQ(m.erase(9).value_or(0), 90u);
  EXPECT_FALSE(m.lookup(9).has_value());
  EXPECT_FALSE(m.erase(9).has_value());
  EXPECT_EQ(m.size(), 0u);
}

TEST_F(HashTest, ReinsertAfterErase) {
  SplitOrderedMap m(ebr_, pool_);
  m.insert(9, 90);
  m.erase(9);
  EXPECT_TRUE(m.insert(9, 91));
  EXPECT_EQ(m.lookup(9).value_or(0), 91u);
}

TEST_F(HashTest, CompareAndDeleteMatchesValue) {
  SplitOrderedMap m(ebr_, pool_);
  m.insert(7, 70);
  EXPECT_FALSE(m.compare_and_delete(7, 71));  // wrong value
  EXPECT_TRUE(m.lookup(7).has_value());
  EXPECT_TRUE(m.compare_and_delete(7, 70));
  EXPECT_FALSE(m.lookup(7).has_value());
  EXPECT_FALSE(m.compare_and_delete(7, 70));  // already gone
}

TEST_F(HashTest, GuardedInsertSucceedsWhenGuardHolds) {
  SplitOrderedMap m(ebr_, pool_);
  std::atomic<uint64_t> guard{0x40};
  bool guard_failed = false;
  EbrDomain::Guard g(ebr_);
  EXPECT_TRUE(m.insert(11, 110, &guard, 0x40, &guard_failed));
  EXPECT_FALSE(guard_failed);
  EXPECT_EQ(m.lookup(11).value_or(0), 110u);
}

TEST_F(HashTest, GuardedInsertFailsWhenGuardMismatches) {
  SplitOrderedMap m(ebr_, pool_);
  std::atomic<uint64_t> guard{0x40};
  bool guard_failed = false;
  EbrDomain::Guard g(ebr_);
  EXPECT_FALSE(m.insert(11, 110, &guard, 0x48, &guard_failed));
  EXPECT_TRUE(guard_failed);
  EXPECT_FALSE(m.lookup(11).has_value());
}

TEST_F(HashTest, GuardedInsertWithMarkedGuard) {
  // Mirrors the trie's usage: guard on a node's next word being an exact
  // unmarked value; a marked word must abort the insert.
  SplitOrderedMap m(ebr_, pool_);
  std::atomic<uint64_t> next_word{0x1000};
  EbrDomain::Guard g(ebr_);
  EXPECT_TRUE(m.insert(1, 10, &next_word, 0x1000, nullptr));
  next_word.store(0x1000 | kMark);
  bool gf = false;
  EXPECT_FALSE(m.insert(2, 20, &next_word, 0x1000, &gf));
  EXPECT_TRUE(gf);
}

TEST_F(HashTest, GrowsPastInitialBuckets) {
  SplitOrderedMap m(ebr_, pool_);
  const size_t n = 5000;
  for (uint64_t i = 0; i < n; ++i) EXPECT_TRUE(m.insert(i, i * 2));
  EXPECT_GT(m.bucket_count(), 2u);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(m.lookup(i).value_or(~0ull), i * 2) << i;
  }
  EXPECT_EQ(m.size(), n);
}

TEST_F(HashTest, AdversarialKeysSameLowBits) {
  // Keys colliding in the initial buckets must still be found after splits.
  SplitOrderedMap m(ebr_, pool_);
  for (uint64_t i = 0; i < 512; ++i) EXPECT_TRUE(m.insert(i << 20, i));
  for (uint64_t i = 0; i < 512; ++i) {
    ASSERT_EQ(m.lookup(i << 20).value_or(~0ull), i);
  }
}

TEST_F(HashTest, ForEachVisitsLiveEntriesOnly) {
  SplitOrderedMap m(ebr_, pool_);
  for (uint64_t i = 0; i < 100; ++i) m.insert(i, i);
  for (uint64_t i = 0; i < 100; i += 2) m.erase(i);
  std::set<uint64_t> seen;
  m.for_each([&](uint64_t k, uint64_t) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 50u);
  for (uint64_t k : seen) EXPECT_EQ(k % 2, 1u);
}

TEST_F(HashTest, ApproxBytesGrowsWithContent) {
  SplitOrderedMap m(ebr_, pool_);
  const size_t empty = m.approx_bytes();
  for (uint64_t i = 0; i < 1000; ++i) m.insert(i, i);
  EXPECT_GT(m.approx_bytes(), empty + 900 * sizeof(SplitOrderedMap::HNode));
}

TEST_F(HashTest, ConcurrentDisjointInserts) {
  SplitOrderedMap m(ebr_, pool_);
  const int kThreads = 4;
  const uint64_t kPer = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPer; ++i) {
        const uint64_t k = static_cast<uint64_t>(t) * kPer + i;
        ASSERT_TRUE(m.insert(k, k + 1));
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(m.size(), kThreads * kPer);
  for (uint64_t k = 0; k < kThreads * kPer; ++k) {
    ASSERT_EQ(m.lookup(k).value_or(0), k + 1);
  }
}

TEST_F(HashTest, ConcurrentSameKeyInsertExactlyOneWins) {
  SplitOrderedMap m(ebr_, pool_);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> wins{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&, t] {
        if (m.insert(round, 1000 + t)) wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
  }
}

TEST_F(HashTest, ConcurrentInsertEraseMixedStress) {
  SplitOrderedMap m(ebr_, pool_);
  const int kThreads = 4;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < 20000; ++i) {
        const uint64_t k = rng.next_below(512);
        if (rng.next() & 1) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // Invariant: whatever remains is self-consistent.
  size_t n = 0;
  m.for_each([&](uint64_t k, uint64_t v) {
    EXPECT_EQ(k, v);
    EXPECT_LT(k, 512u);
    ++n;
  });
  EXPECT_EQ(n, m.size());
}

TEST_F(HashTest, GrowthReachesLoadFactorTarget) {
  // Regression: maybe_grow used to perform at most one doubling per insert.
  // The contract now is that after any insert the table satisfies
  // count <= buckets * kLoadFactor (up to kMaxBuckets) — the smallest such
  // power of two, i.e. it neither lags the load target nor overshoots it.
  SplitOrderedMap m(ebr_, pool_);
  const size_t n = 3000;
  for (size_t i = 0; i < n; ++i) m.insert(i * 2 + 1, i);
  EXPECT_EQ(m.size(), n);
  size_t want = 2;
  while (n > want * SplitOrderedMap::kLoadFactor) want *= 2;
  EXPECT_EQ(m.bucket_count(), want);
  EXPECT_LE(m.load_factor(),
            static_cast<double>(SplitOrderedMap::kLoadFactor));
  EXPECT_GT(m.load_factor(), 0.0);
}

TEST_F(HashTest, GrowthKeepsLoadFactorPastTwoToTheTwenty) {
  // Growth stops only at the directory's geometry (2^22 buckets), so a
  // table past 2^20 entries still keeps every x-fast probe's chain at the
  // kLoadFactor target.  A cap at 2^20 buckets fails both checks below.
  SplitOrderedMap m(ebr_, pool_);
  const size_t n = (size_t{1} << 20) + 1;
  for (size_t i = 0; i < n; ++i) m.insert(i * 2 + 1, i);
  EXPECT_EQ(m.size(), n);
  EXPECT_EQ(m.bucket_count(), size_t{1} << 21);
  EXPECT_LE(m.load_factor(),
            static_cast<double>(SplitOrderedMap::kLoadFactor));
}

TEST_F(HashTest, LookupInitializesBucketsAndStaysChainLocal) {
  // Regression: lookup on an uninitialized bucket used to scan every node
  // between the nearest initialized ancestor's dummy and the target bucket.
  // Now the first lookup initializes the bucket (bounded one-time work) and
  // every subsequent lookup walks only the bucket-local chain.
  SplitOrderedMap m(ebr_, pool_);
  const size_t n = 2000;
  Xoshiro256 rng(7);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = rng.next() | 1ull;
    if (m.insert(k, i)) keys.push_back(k);
  }
  const size_t dummies_before = m.dummy_count();

  tls_counters() = StepCounters{};
  for (const uint64_t k : keys) ASSERT_TRUE(m.lookup(k).has_value());
  const uint64_t probes_first = tls_counters().hash_probes;
  // First pass may splice dummies for buckets growth left uninitialized.
  EXPECT_GE(m.dummy_count(), dummies_before);
  EXPECT_LE(m.dummy_count(), m.bucket_count());

  tls_counters() = StepCounters{};
  for (const uint64_t k : keys) ASSERT_TRUE(m.lookup(k).has_value());
  const StepCounters warmed = tls_counters();
  tls_counters() = StepCounters{};

  // Warmed lookups must be chain-local: on average well under 3 chain-node
  // visits per probe at load factor <= kLoadFactor, and never slower than
  // the initializing pass.
  EXPECT_LE(warmed.hash_probes, probes_first);
  EXPECT_LT(static_cast<double>(warmed.hash_probes),
            3.0 * static_cast<double>(keys.size()));
  EXPECT_EQ(warmed.probes_lookup, keys.size());
  // hash_probes decomposes as one first-visit per find plus chain slack.
  EXPECT_EQ(warmed.hash_probes,
            warmed.probes_lookup + warmed.probes_chain);
}

TEST_F(HashTest, ConcurrentCompareAndDeleteUniqueWinner) {
  SplitOrderedMap m(ebr_, pool_);
  for (int round = 0; round < 100; ++round) {
    m.insert(round, 7);
    std::atomic<int> wins{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&] {
        if (m.compare_and_delete(round, 7)) wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
    ASSERT_FALSE(m.lookup(round).has_value());
  }
}

TEST_F(HashTest, PrefetchIsHintOnly) {
  // prefetch() reads ahead of a lookup but never does a lookup's writes.
  // The last of 2049 inserts doubles the table to 4096 buckets, so the
  // directory segments of buckets 2048..4095 were never allocated and many
  // buckets are uninitialized.  Prefetching thousands of keys at every
  // stage must leave the table and the thread's counters exactly as they
  // were; a prefetch routed through bucket_head would allocate those
  // segments and splice their dummies, as the lookups at the end do.
  SplitOrderedMap m(ebr_, pool_);
  const uint64_t n = 2049;
  for (uint64_t i = 0; i < n; ++i) ASSERT_TRUE(m.insert(i, i));
  ASSERT_EQ(m.bucket_count(), 4096u);
  const size_t buckets = m.bucket_count();
  const size_t dummies = m.dummy_count();
  const size_t size = m.size();
  const size_t bytes = m.approx_bytes();
  const StepCounters before = tls_counters();
  {
    EbrDomain::Guard g(ebr_);
    for (int stage = 0; stage < SplitOrderedMap::kPrefetchStages; ++stage) {
      for (uint64_t k = 0; k < 4 * n; ++k) m.prefetch(k, stage);
    }
  }
  EXPECT_EQ(m.bucket_count(), buckets);
  EXPECT_EQ(m.dummy_count(), dummies);
  EXPECT_EQ(m.size(), size);
  EXPECT_EQ(m.approx_bytes(), bytes);
  const StepCounters after = tls_counters();
  EXPECT_EQ(std::memcmp(&before, &after, sizeof(StepCounters)), 0)
      << "prefetch moved a step counter";

  // The set-up really left work for a lookup to do.
  for (uint64_t k = 0; k < 4 * n; ++k) {
    ASSERT_EQ(m.lookup(k).has_value(), k < n) << k;
  }
  EXPECT_GT(m.dummy_count(), dummies);
  EXPECT_GT(m.approx_bytes(), bytes);
}

TEST_F(HashTest, ConcurrentPrefetchDuringUpdatesAndGrowth) {
  // Prefetching threads race a growing insert stream and a mixed stream of
  // plain and DCSS-guarded inserts, erases and compare_and_deletes over
  // the same keys, so their loads meet freshly allocated segments, freshly
  // published dummies and descriptor-tagged link words.  Under
  // ThreadSanitizer this checks that every load the hint makes is ordered
  // after the writes that publish what it reads.  The hint adds nothing:
  // the table must stay self-consistent.
  SplitOrderedMap m(ebr_, pool_);
  const uint64_t kKeys = 1u << 14;
  std::atomic<bool> stop{false};
  std::vector<std::thread> prefetchers;
  for (int t = 0; t < 2; ++t) {
    prefetchers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        EbrDomain::Guard g(ebr_);
        for (int i = 0; i < 64; ++i) {
          const uint64_t k = rng.next_below(2 * kKeys);
          for (int stage = 0; stage < SplitOrderedMap::kPrefetchStages;
               ++stage) {
            m.prefetch(k, stage);
          }
        }
      }
    });
  }
  std::vector<std::thread> updaters;
  updaters.emplace_back([&] {
    for (uint64_t k = 0; k < kKeys; ++k) m.insert(2 * k, 2 * k);
  });
  updaters.emplace_back([&] {
    Xoshiro256 rng(7);
    std::atomic<uint64_t> guard{0};  // always holds 0: guarded inserts win
    for (int i = 0; i < 40000; ++i) {
      const uint64_t k = rng.next_below(2 * kKeys);
      switch (rng.next_below(4)) {
        case 0: m.insert(k, k); break;
        case 1: m.insert(k, k, &guard, 0); break;
        case 2: m.erase(k); break;
        default: m.compare_and_delete(k, k); break;
      }
    }
  });
  for (auto& th : updaters) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : prefetchers) th.join();

  EXPECT_GE(m.bucket_count(), m.size() / SplitOrderedMap::kLoadFactor);
  size_t live = 0;
  m.for_each([&](uint64_t k, uint64_t v) {
    EXPECT_EQ(k, v);
    EXPECT_LT(k, 2 * kKeys);
    ++live;
  });
  EXPECT_EQ(live, m.size());
}

}  // namespace
}  // namespace skiptrie
