// Ordered iteration / range queries / min-max (API extensions built on the
// level-0 list — the SkipTrie keeps keys sorted, so these come for free).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/skiptrie.h"

namespace skiptrie {
namespace {

Config cfg16() {
  Config c;
  c.universe_bits = 16;
  return c;
}

TEST(Range, EmptyStructure) {
  SkipTrie t(cfg16());
  EXPECT_EQ(t.min_key(), std::nullopt);
  EXPECT_EQ(t.max_key_present(), std::nullopt);
  EXPECT_EQ(t.count_range(0, 65535), 0u);
  size_t visits = 0;
  t.for_each_in_range(0, 65535, [&](uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(Range, MinMaxTrackContents) {
  SkipTrie t(cfg16());
  t.insert(500);
  EXPECT_EQ(t.min_key().value(), 500u);
  EXPECT_EQ(t.max_key_present().value(), 500u);
  t.insert(100);
  t.insert(900);
  EXPECT_EQ(t.min_key().value(), 100u);
  EXPECT_EQ(t.max_key_present().value(), 900u);
  t.erase(100);
  EXPECT_EQ(t.min_key().value(), 500u);
  t.erase(900);
  EXPECT_EQ(t.max_key_present().value(), 500u);
}

TEST(Range, KeyZeroAndMaxAreVisible) {
  SkipTrie t(cfg16());
  t.insert(0);
  t.insert(t.max_key());
  EXPECT_EQ(t.min_key().value(), 0u);
  EXPECT_EQ(t.max_key_present().value(), t.max_key());
  EXPECT_EQ(t.count_range(0, t.max_key()), 2u);
}

TEST(Range, BoundsAboveMaxKeyAreClipped) {
  // hi above max_key() clips to it and lo above it is an empty range.
  // Unclipped, hi = 2^64 - 1 wraps its ikey (hi + 1) to 0 and the range
  // visits nothing.
  for (const uint32_t bits : {16u, 64u}) {
    Config c;
    c.universe_bits = bits;
    SkipTrie t(c);
    const uint64_t top = t.max_key();
    t.insert(3);
    t.insert(top);
    EXPECT_EQ(t.count_range(0, UINT64_MAX), 2u) << "B=" << bits;
    EXPECT_EQ(t.count_range(top, UINT64_MAX), 1u) << "B=" << bits;
    EXPECT_EQ(t.count_range(top + 1, UINT64_MAX), 0u) << "B=" << bits;
  }
}

TEST(Range, VisitsExactlyTheRangeInOrder) {
  SkipTrie t(cfg16());
  for (uint64_t k = 0; k < 100; ++k) t.insert(k * 10);
  std::vector<uint64_t> seen;
  t.for_each_in_range(95, 305, [&](uint64_t k) { seen.push_back(k); });
  ASSERT_EQ(seen.size(), 21u);  // 100, 110, ..., 300
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 100 + i * 10);
  }
}

TEST(Range, InclusiveBoundaries) {
  SkipTrie t(cfg16());
  t.insert(10);
  t.insert(20);
  t.insert(30);
  EXPECT_EQ(t.count_range(10, 30), 3u);
  EXPECT_EQ(t.count_range(11, 29), 1u);
  EXPECT_EQ(t.count_range(10, 10), 1u);
  EXPECT_EQ(t.count_range(31, 40), 0u);
  EXPECT_EQ(t.count_range(30, 10), 0u);  // inverted range
}

TEST(Range, MatchesReferenceOnRandomSets) {
  SkipTrie t(cfg16());
  std::set<uint64_t> ref;
  Xoshiro256 rng(12);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.next_below(4096);
    if (rng.next() & 1) {
      t.insert(k);
      ref.insert(k);
    } else {
      t.erase(k);
      ref.erase(k);
    }
  }
  for (int round = 0; round < 50; ++round) {
    uint64_t lo = rng.next_below(4096);
    uint64_t hi = rng.next_below(4096);
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint64_t> ours;
    t.for_each_in_range(lo, hi, [&](uint64_t k) { ours.push_back(k); });
    std::vector<uint64_t> expect(ref.lower_bound(lo), ref.upper_bound(hi));
    ASSERT_EQ(ours, expect) << "range [" << lo << "," << hi << "]";
  }
}

TEST(Range, SkipsLogicallyDeletedKeys) {
  SkipTrie t(cfg16());
  for (uint64_t k = 0; k < 50; ++k) t.insert(k);
  for (uint64_t k = 0; k < 50; k += 2) t.erase(k);
  std::vector<uint64_t> seen;
  t.for_each_in_range(0, 49, [&](uint64_t k) { seen.push_back(k); });
  ASSERT_EQ(seen.size(), 25u);
  for (uint64_t k : seen) EXPECT_EQ(k % 2, 1u);
}

TEST(Range, WeaklyConsistentUnderConcurrentChurn) {
  SkipTrie t(cfg16());
  // Stable anchors must always be observed; churned keys may or may not be.
  for (uint64_t a = 0; a < 10; ++a) t.insert(a * 1000);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t k = rng.next_below(9000) + 1;
      if (k % 1000 == 0) continue;
      if (rng.next() & 1) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  for (int round = 0; round < 500; ++round) {
    std::vector<uint64_t> anchors;
    t.for_each_in_range(0, 9000, [&](uint64_t k) {
      if (k % 1000 == 0) anchors.push_back(k);
    });
    ASSERT_EQ(anchors.size(), 10u) << "round " << round;
    for (size_t i = 0; i < anchors.size(); ++i) {
      ASSERT_EQ(anchors[i], i * 1000);
    }
  }
  stop.store(true, std::memory_order_release);
  churn.join();
}

TEST(Range, ChurnedTraversalStaysSortedAndInRange) {
  // Hammers for_each_in_range while two writers churn a dense key block.
  // Regression for the double-read of a node's next word: a hop taken from
  // a second read (after the node got marked) could pair a reported key
  // with a traversal step it never validated.  Every report must be
  // strictly ascending, inside the requested range, and from the churned
  // universe; stable anchors must always appear.
  SkipTrie t(cfg16());
  constexpr uint64_t kLo = 100, kHi = 1100;
  for (uint64_t a = kLo; a <= kHi; a += 100) t.insert(a);  // anchors
  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (int w = 0; w < 2; ++w) {
    churn.emplace_back([&t, &stop, w] {
      Xoshiro256 rng(17 + w);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t k = kLo + rng.next_below(kHi - kLo + 1);
        if (k % 100 == 0) continue;  // leave anchors alone
        if (rng.next() & 1) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (int round = 0; round < 400; ++round) {
    std::vector<uint64_t> seen;
    t.for_each_in_range(kLo, kHi, [&](uint64_t k) { seen.push_back(k); });
    size_t anchors = 0;
    uint64_t prev = 0;
    for (size_t i = 0; i < seen.size(); ++i) {
      ASSERT_GE(seen[i], kLo) << "round " << round;
      ASSERT_LE(seen[i], kHi) << "round " << round;
      if (i > 0) ASSERT_GT(seen[i], prev) << "round " << round;
      prev = seen[i];
      if (seen[i] % 100 == 0) ++anchors;
    }
    ASSERT_EQ(anchors, (kHi - kLo) / 100 + 1) << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : churn) th.join();
}

TEST(Range, LargeUniverseRange) {
  Config c;
  c.universe_bits = 64;
  SkipTrie t(c);
  const uint64_t base = 0x0123456789abcdefull;
  for (uint64_t i = 0; i < 100; ++i) t.insert(base + i * 3);
  EXPECT_EQ(t.count_range(base, base + 297), 100u);
  EXPECT_EQ(t.count_range(base + 1, base + 2), 0u);
  EXPECT_EQ(t.min_key().value(), base);
  EXPECT_EQ(t.max_key_present().value(), base + 297);
}

}  // namespace
}  // namespace skiptrie
