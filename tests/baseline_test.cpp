#include "baseline/lockfree_skiplist.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baseline/locked_map.h"
#include "common/random.h"

namespace skiptrie {
namespace {

TEST(LockFreeSkipList, BasicSemantics) {
  LockFreeSkipList s(12);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.predecessor(5).value(), 5u);
  EXPECT_EQ(s.predecessor(4), std::nullopt);
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
}

TEST(LockFreeSkipList, ModelCheck) {
  LockFreeSkipList s(16);
  std::set<uint64_t> ref;
  Xoshiro256 rng(3);
  for (int i = 0; i < 15000; ++i) {
    const uint64_t k = rng.next_below(2048);
    switch (rng.next_below(4)) {
      case 0: ASSERT_EQ(s.insert(k), ref.insert(k).second); break;
      case 1: ASSERT_EQ(s.erase(k), ref.erase(k) > 0); break;
      case 2: ASSERT_EQ(s.contains(k), ref.count(k) > 0); break;
      default: {
        auto it = ref.upper_bound(k);
        std::optional<uint64_t> expect;
        if (it != ref.begin()) expect = *std::prev(it);
        ASSERT_EQ(s.predecessor(k), expect);
      }
    }
  }
  EXPECT_EQ(s.size(), ref.size());
}

TEST(LockFreeSkipList, ConcurrentDisjointExactness) {
  LockFreeSkipList s(18);
  const int kThreads = 4;
  const uint64_t kPer = 3000;
  std::vector<std::thread> ts;
  for (int w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      const uint64_t base = static_cast<uint64_t>(w) << 32;
      for (uint64_t i = 0; i < kPer; ++i) ASSERT_TRUE(s.insert(base + i));
      for (uint64_t i = 0; i < kPer; i += 2) ASSERT_TRUE(s.erase(base + i));
      for (uint64_t i = 0; i < kPer; ++i) {
        ASSERT_EQ(s.contains(base + i), i % 2 == 1);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(s.size(), kThreads * kPer / 2);
}

TEST(LockFreeSkipList, SuccessorWorks) {
  LockFreeSkipList s(12);
  s.insert(10);
  s.insert(20);
  EXPECT_EQ(s.successor(0).value(), 10u);
  EXPECT_EQ(s.successor(10).value(), 20u);
  EXPECT_EQ(s.successor(20), std::nullopt);
}

// max_key() = 2^64 - 3 is an ordinary key, and every keyed op throws above
// it (a batch before applying any key).  Without the bound, ikey = key + 1
// wrapped: insert(2^64 - 1) landed on the head's ikey and raised size(),
// 2^64 - 2 aliased the tail (insert false, contains true), and predecessor
// of either returned nothing.
TEST(LockFreeSkipList, KeysAboveMaxKeyThrowFromEveryOp) {
  constexpr uint64_t kTop = UINT64_MAX - 2;
  EXPECT_EQ(LockFreeSkipList::max_key(), kTop);
  LockFreeSkipList s(12);
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.insert(kTop));
  EXPECT_TRUE(s.contains(kTop));
  EXPECT_EQ(s.predecessor(kTop), kTop);
  EXPECT_EQ(s.successor(5), kTop);
  EXPECT_EQ(s.successor(kTop), std::nullopt);
  EXPECT_EQ(s.insert_batch(std::vector<uint64_t>{5, kTop}), 0u);
  std::vector<std::optional<uint64_t>> preds(2);
  EXPECT_EQ(s.predecessor_batch(std::vector<uint64_t>{4, kTop}, preds.data()),
            1u);
  EXPECT_EQ(preds[1], kTop);

  for (const uint64_t over : {kTop + 1, kTop + 2}) {
    const std::vector<uint64_t> mixed = {1, over, 2};
    EXPECT_THROW(s.insert(over), std::out_of_range) << over;
    EXPECT_THROW(s.erase(over), std::out_of_range) << over;
    EXPECT_THROW(s.contains(over), std::out_of_range) << over;
    EXPECT_THROW(s.predecessor(over), std::out_of_range) << over;
    EXPECT_THROW(s.successor(over), std::out_of_range) << over;
    EXPECT_THROW(s.insert_batch(mixed), std::out_of_range) << over;
    EXPECT_THROW(s.erase_batch(std::vector<uint64_t>{5, over}),
                 std::out_of_range)
        << over;
    EXPECT_THROW(s.contains_batch(mixed), std::out_of_range) << over;
    EXPECT_THROW(s.predecessor_batch(mixed), std::out_of_range) << over;
  }

  // The set is unchanged: exactly {5, max_key()}.
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.predecessor(kTop - 1), 5u);
}

TEST(LockedMap, BasicSemantics) {
  LockedMap m;
  EXPECT_TRUE(m.insert(5));
  EXPECT_FALSE(m.insert(5));
  EXPECT_TRUE(m.contains(5));
  EXPECT_EQ(m.predecessor(7).value(), 5u);
  EXPECT_EQ(m.predecessor(5).value(), 5u);
  EXPECT_EQ(m.predecessor(4), std::nullopt);
  EXPECT_EQ(m.successor(5), std::nullopt);
  EXPECT_TRUE(m.erase(5));
  EXPECT_EQ(m.size(), 0u);
}

TEST(LockedMap, ConcurrentSmoke) {
  LockedMap m;
  std::vector<std::thread> ts;
  for (int w = 0; w < 4; ++w) {
    ts.emplace_back([&, w] {
      for (uint64_t i = 0; i < 2000; ++i) {
        m.insert(w * 10000 + i);
        m.predecessor(w * 10000 + i);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(m.size(), 4u * 2000u);
}

TEST(Baselines, AgreeWithEachOtherOnRandomStream) {
  LockFreeSkipList a(16);
  LockedMap b;
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t k = rng.next_below(1024);
    switch (rng.next_below(3)) {
      case 0: ASSERT_EQ(a.insert(k), b.insert(k)); break;
      case 1: ASSERT_EQ(a.erase(k), b.erase(k)); break;
      default: ASSERT_EQ(a.predecessor(k), b.predecessor(k)); break;
    }
  }
}

}  // namespace
}  // namespace skiptrie
