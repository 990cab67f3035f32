// Black-box SkipTrie API tests, including model checking against std::set.
#include "core/skiptrie.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/bitops.h"
#include "common/key_traits.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/validate.h"

namespace skiptrie {
namespace {

Config small_cfg(uint32_t bits = 16) {
  Config c;
  c.universe_bits = bits;
  return c;
}

TEST(SkipTrie, EmptyBehaviour) {
  SkipTrie t(small_cfg());
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.contains(12345));
  EXPECT_FALSE(t.predecessor(9999).has_value());
  EXPECT_FALSE(t.successor(0).has_value());
  EXPECT_FALSE(t.erase(7));
  EXPECT_EQ(t.size(), 0u);
}

TEST(SkipTrie, InsertContainsErase) {
  SkipTrie t(small_cfg());
  EXPECT_TRUE(t.insert(42));
  EXPECT_TRUE(t.contains(42));
  EXPECT_FALSE(t.insert(42));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.contains(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_EQ(t.size(), 0u);
}

TEST(SkipTrie, PredecessorInclusiveSemantics) {
  SkipTrie t(small_cfg());
  t.insert(10);
  t.insert(20);
  t.insert(30);
  EXPECT_EQ(t.predecessor(5), std::nullopt);
  EXPECT_EQ(t.predecessor(10).value(), 10u);   // inclusive
  EXPECT_EQ(t.predecessor(15).value(), 10u);
  EXPECT_EQ(t.predecessor(20).value(), 20u);
  EXPECT_EQ(t.predecessor(25).value(), 20u);
  EXPECT_EQ(t.predecessor(30).value(), 30u);
  EXPECT_EQ(t.predecessor(65535).value(), 30u);
}

TEST(SkipTrie, StrictPredecessor) {
  SkipTrie t(small_cfg());
  t.insert(10);
  t.insert(20);
  EXPECT_EQ(t.strict_predecessor(10), std::nullopt);
  EXPECT_EQ(t.strict_predecessor(11).value(), 10u);
  EXPECT_EQ(t.strict_predecessor(20).value(), 10u);
  EXPECT_EQ(t.strict_predecessor(21).value(), 20u);
}

TEST(SkipTrie, SuccessorSemantics) {
  SkipTrie t(small_cfg());
  t.insert(10);
  t.insert(20);
  EXPECT_EQ(t.successor(0).value(), 10u);
  EXPECT_EQ(t.successor(9).value(), 10u);
  EXPECT_EQ(t.successor(10).value(), 20u);  // strictly greater
  EXPECT_EQ(t.successor(20), std::nullopt);
}

TEST(SkipTrie, BoundaryKeys) {
  SkipTrie t(small_cfg(16));
  const uint64_t kMax = t.max_key();
  EXPECT_EQ(kMax, 0xffffu);
  EXPECT_TRUE(t.insert(0));
  EXPECT_TRUE(t.insert(kMax));
  EXPECT_TRUE(t.contains(0));
  EXPECT_TRUE(t.contains(kMax));
  EXPECT_EQ(t.predecessor(0).value(), 0u);
  EXPECT_EQ(t.predecessor(kMax).value(), kMax);
  EXPECT_EQ(t.strict_predecessor(kMax).value(), 0u);
  EXPECT_EQ(t.successor(0).value(), kMax);
  EXPECT_TRUE(t.erase(0));
  EXPECT_TRUE(t.erase(kMax));
}

TEST(SkipTrie, DenseRange) {
  SkipTrie t(small_cfg());
  for (uint64_t k = 100; k < 200; ++k) EXPECT_TRUE(t.insert(k));
  EXPECT_EQ(t.size(), 100u);
  for (uint64_t k = 100; k < 200; ++k) {
    EXPECT_TRUE(t.contains(k));
    EXPECT_EQ(t.predecessor(k).value(), k);
    if (k > 100) {
      EXPECT_EQ(t.strict_predecessor(k).value(), k - 1);
    }
  }
  for (uint64_t k = 100; k < 200; k += 2) EXPECT_TRUE(t.erase(k));
  for (uint64_t k = 100; k < 200; ++k) {
    EXPECT_EQ(t.contains(k), k % 2 == 1);
  }
  EXPECT_EQ(t.predecessor(150).value(), 149u);
}

TEST(SkipTrie, StructureValidatesAfterChurn) {
  SkipTrie t(small_cfg());
  Xoshiro256 rng(17);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = rng.next_below(1u << 12);
    if (rng.next() & 1) {
      t.insert(k);
    } else {
      t.erase(k);
    }
  }
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << errors.size() << " violations, first: "
                              << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrie, ModelCheckAgainstStdSet) {
  SkipTrie t(small_cfg());
  std::set<uint64_t> ref;
  Xoshiro256 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.next_below(1u << 10);
    switch (rng.next_below(4)) {
      case 0:
        ASSERT_EQ(t.insert(k), ref.insert(k).second) << "insert " << k;
        break;
      case 1:
        ASSERT_EQ(t.erase(k), ref.erase(k) > 0) << "erase " << k;
        break;
      case 2:
        ASSERT_EQ(t.contains(k), ref.count(k) > 0) << "contains " << k;
        break;
      default: {
        auto it = ref.upper_bound(k);
        std::optional<uint64_t> expect;
        if (it != ref.begin()) expect = *std::prev(it);
        ASSERT_EQ(t.predecessor(k), expect) << "pred " << k;
        break;
      }
    }
  }
  EXPECT_EQ(t.size(), ref.size());
}

TEST(SkipTrie, SizeTracksInsertErase) {
  SkipTrie t(small_cfg());
  for (uint64_t k = 0; k < 500; ++k) t.insert(k * 3);
  EXPECT_EQ(t.size(), 500u);
  for (uint64_t k = 0; k < 250; ++k) t.erase(k * 3);
  EXPECT_EQ(t.size(), 250u);
}

TEST(SkipTrie, StructureStatsSaneAfterFill) {
  SkipTrie t(small_cfg(32));
  Xoshiro256 rng(5);
  const size_t n = 20000;
  std::set<uint64_t> keys;
  while (keys.size() < n) {
    const uint64_t k = rng.next_below(1ull << 32);
    if (keys.insert(k).second) t.insert(k);
  }
  const auto s = t.structure_stats();
  EXPECT_EQ(s.keys, n);
  // Truncated levels thin by ~1/2 per level.
  for (uint32_t l = 1; l <= ceil_log2(32); ++l) {
    EXPECT_LT(s.level_counts[l], s.level_counts[l - 1]);
  }
  // Top density ~ n/32; allow generous slack (binomial tails).
  EXPECT_GT(s.top_count, n / 32 / 2);
  EXPECT_LT(s.top_count, n / 32 * 2);
  // Trie entries exist for every top key; space is O(m).
  EXPECT_GE(s.trie_entries, s.top_count);
  EXPECT_GT(s.arena_bytes, n * sizeof(Node) / 2);
}

TEST(SkipTrie, CasFallbackModeFullSemantics) {
  Config c = small_cfg();
  c.dcss_mode = DcssMode::kCasFallback;
  SkipTrie t(c);
  std::set<uint64_t> ref;
  Xoshiro256 rng(31);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t k = rng.next_below(1u << 10);
    if (rng.next() & 1) {
      ASSERT_EQ(t.insert(k), ref.insert(k).second);
    } else {
      ASSERT_EQ(t.erase(k), ref.erase(k) > 0);
    }
  }
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrie, UniverseBits64) {
  Config c = small_cfg(64);
  SkipTrie t(c);
  const uint64_t big = 0xfedcba9876543210ull;
  EXPECT_TRUE(t.insert(big));
  EXPECT_TRUE(t.insert(1));
  EXPECT_TRUE(t.contains(big));
  EXPECT_EQ(t.predecessor(big).value(), big);
  EXPECT_EQ(t.strict_predecessor(big).value(), 1u);
  EXPECT_EQ(t.predecessor(t.max_key()).value(), big);
}

TEST(SkipTrie, HopAttributionSumsToNodeHops) {
  SkipTrie t;
  tls_counters() = StepCounters{};
  for (uint64_t k = 0; k < 2000; ++k) t.insert((k * 2654435761u) % 100000);
  for (uint64_t k = 0; k < 2000; ++k) t.predecessor(k * 50 % 100000);
  for (uint64_t k = 0; k < 500; ++k) t.erase((k * 2654435761u) % 100000);
  const StepCounters& c = tls_counters();
  EXPECT_GT(c.node_hops, 0u);
  EXPECT_EQ(c.node_hops, c.hops_top + c.hops_descent);
  tls_counters() = StepCounters{};
}

TEST(SkipTrie, MinimalUniverse) {
  Config c = small_cfg(4);  // keys 0..15
  SkipTrie t(c);
  for (uint64_t k = 0; k < 16; ++k) EXPECT_TRUE(t.insert(k));
  for (uint64_t k = 0; k < 16; ++k) EXPECT_TRUE(t.contains(k));
  for (uint64_t k = 1; k < 16; ++k) {
    EXPECT_EQ(t.strict_predecessor(k).value(), k - 1);
  }
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

// Universe edges for both key traits: B = 4 and B = kMaxBits hold their
// extreme keys; one bit outside either end is rejected with
// std::invalid_argument before any member is built, in every build.
template <typename Traits>
class UniverseBits : public ::testing::Test {};
using UniverseTraits = ::testing::Types<U64Traits, Bytes16Traits>;
TYPED_TEST_SUITE(UniverseBits, UniverseTraits);

TYPED_TEST(UniverseBits, EdgesAcceptedAndOutOfRangeThrows) {
  using Trie = BasicSkipTrie<TypeParam>;
  using K = typename TypeParam::key_type;
  for (const uint32_t bits : {4u, TypeParam::kMaxBits}) {
    Config c;
    c.universe_bits = bits;
    Trie t(c);
    const K top = t.max_key();
    EXPECT_TRUE(t.insert(K(0))) << "B=" << bits;
    EXPECT_TRUE(t.insert(top)) << "B=" << bits;
    EXPECT_TRUE(t.contains(K(0))) << "B=" << bits;
    EXPECT_EQ(t.predecessor(top).value(), top) << "B=" << bits;
    EXPECT_EQ(t.strict_predecessor(top).value(), K(0)) << "B=" << bits;
  }
  for (const uint32_t bits : {3u, TypeParam::kMaxBits + 1}) {
    Config c;
    c.universe_bits = bits;
    EXPECT_THROW(Trie t(c), std::invalid_argument) << "B=" << bits;
  }
}

// Keys above max_key() are rejected by every keyed operation in every build
// (NDEBUG included) before the structure is touched — a batch throws before
// applying any of its keys — while max_key() itself is an ordinary key.
// Without the check, B = 32 accepted max_key() + 1 as a key predecessor
// queries never see, and B = kMaxBits collided it with the tail sentinel.
TYPED_TEST(UniverseBits, KeysAboveMaxKeyThrowFromEveryOp) {
  using Trie = BasicSkipTrie<TypeParam>;
  using K = typename TypeParam::key_type;
  for (const uint32_t bits : {32u, TypeParam::kMaxBits}) {
    Config c;
    c.universe_bits = bits;
    Trie t(c);
    const K top = t.max_key();
    const K over = top + K(1);
    const std::vector<K> edge = {K(7), top};

    EXPECT_TRUE(t.insert(K(7))) << "B=" << bits;
    EXPECT_TRUE(t.insert(top)) << "B=" << bits;
    EXPECT_TRUE(t.contains(top)) << "B=" << bits;
    EXPECT_EQ(t.predecessor(top).value(), top) << "B=" << bits;
    EXPECT_EQ(t.strict_predecessor(top).value(), K(7)) << "B=" << bits;
    EXPECT_EQ(t.successor(K(7)).value(), top) << "B=" << bits;
    EXPECT_FALSE(t.successor(top).has_value()) << "B=" << bits;
    EXPECT_TRUE(t.erase(top)) << "B=" << bits;
    EXPECT_EQ(t.insert_batch(edge), 1u) << "B=" << bits;
    EXPECT_EQ(t.contains_batch(edge), 2u) << "B=" << bits;
    std::vector<std::optional<K>> preds(edge.size());
    EXPECT_EQ(t.predecessor_batch(edge, preds.data()), 2u) << "B=" << bits;
    EXPECT_TRUE(preds[1] == std::optional<K>(top)) << "B=" << bits;
    EXPECT_EQ(t.erase_batch(std::vector<K>{top}), 1u) << "B=" << bits;
    EXPECT_TRUE(t.insert(top)) << "B=" << bits;

    const std::vector<K> mixed = {K(1), over, K(2)};
    EXPECT_THROW(t.insert(over), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.erase(over), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.contains(over), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.predecessor(over), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.strict_predecessor(over), std::out_of_range)
        << "B=" << bits;
    EXPECT_THROW(t.successor(over), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.insert_batch(mixed), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.erase_batch(std::vector<K>{K(7), over}), std::out_of_range)
        << "B=" << bits;
    EXPECT_THROW(t.contains_batch(mixed), std::out_of_range) << "B=" << bits;
    EXPECT_THROW(t.predecessor_batch(mixed), std::out_of_range)
        << "B=" << bits;

    // The set is unchanged: exactly {7, max_key()}.
    EXPECT_EQ(t.size(), 2u) << "B=" << bits;
    std::vector<K> seen;
    t.for_each_in_range(K(0), top, [&](K k) { seen.push_back(k); });
    EXPECT_TRUE(seen == edge) << "B=" << bits;
    const auto errors = validate_structure(t);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  }
}

}  // namespace
}  // namespace skiptrie
