#include "common/bitops.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/key_traits.h"
#include "common/random.h"

namespace skiptrie {
namespace {

// The u64 path: U64Traits runs the ikey_* templates on uint64_t.
using T = U64Traits;

TEST(Bitops, CeilLog2Basics) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(32), 5u);
  EXPECT_EQ(ceil_log2(33), 6u);
  EXPECT_EQ(ceil_log2(64), 6u);
}

TEST(Bitops, SkipTrieLevelCounts) {
  // The paper's truncated skiplist: top level index = ceil(log2 B) so that
  // P(top) = 2^-top = 1/B.
  EXPECT_EQ(ceil_log2(16), 4u);   // u=2^16 -> 5 levels
  EXPECT_EQ(ceil_log2(32), 5u);   // u=2^32 -> 6 levels
  EXPECT_EQ(ceil_log2(64), 6u);   // u=2^64 -> 7 levels
}

TEST(Bitops, KeyBitMsbFirst) {
  // key = 0b1010 in a 4-bit universe.
  const uint64_t key = 0b1010;
  EXPECT_EQ(T::bit(key, 0, 4), 1u);
  EXPECT_EQ(T::bit(key, 1, 4), 0u);
  EXPECT_EQ(T::bit(key, 2, 4), 1u);
  EXPECT_EQ(T::bit(key, 3, 4), 0u);
}

TEST(Bitops, EncodePrefixRoot) {
  EXPECT_EQ(T::encode_prefix(0xdead, 0, 32), 1ull);
  EXPECT_EQ(T::encode_prefix(0, 0, 8), 1ull);
}

TEST(Bitops, EncodePrefixDistinctLengths) {
  // Prefixes of different lengths of the same key must encode differently,
  // even when the bits are all zero.
  const uint64_t key = 0;
  EXPECT_NE(T::encode_prefix(key, 1, 8), T::encode_prefix(key, 2, 8));
  EXPECT_NE(T::encode_prefix(key, 3, 8), T::encode_prefix(key, 4, 8));
}

TEST(Bitops, EncodePrefixMatchesTopBits) {
  const uint64_t key = 0b11010110;
  // length 3 prefix of an 8-bit key = 0b110, 1-prefixed -> 0b1110.
  EXPECT_EQ(T::encode_prefix(key, 3, 8), 0b1110ull);
}

TEST(Bitops, PrefixMatches) {
  const uint64_t key = 0b11010110;
  for (uint32_t len = 0; len < 8; ++len) {
    const uint64_t enc = T::encode_prefix(key, len, 8);
    EXPECT_TRUE(T::prefix_matches(enc, key, len, 8)) << len;
    // A key differing in the first bit matches only the empty prefix.
    const uint64_t other = key ^ 0b10000000;
    if (len > 0) {
      EXPECT_FALSE(T::prefix_matches(enc, other, len, 8)) << len;
    }
  }
}

TEST(Bitops, Lcp) {
  EXPECT_EQ(T::common_prefix_len(0, 0, 32), 32u);
  EXPECT_EQ(T::common_prefix_len(0, 1, 32), 31u);
  EXPECT_EQ(T::common_prefix_len(0x80000000ull, 0, 32), 0u);
  EXPECT_EQ(T::common_prefix_len(0b1100, 0b1101, 4), 3u);
  EXPECT_EQ(T::common_prefix_len(0b1100, 0b1000, 4), 1u);
}

TEST(Bitops, LcpFullWidth64) {
  EXPECT_EQ(T::common_prefix_len(~0ull, ~0ull, 64), 64u);
  EXPECT_EQ(T::common_prefix_len(~0ull, ~1ull, 64), 63u);
  EXPECT_EQ(T::common_prefix_len(1ull << 63, 0, 64), 0u);
}

TEST(Bitops, AbsDiff) {
  EXPECT_EQ(T::abs_diff(5, 9), 4u);
  EXPECT_EQ(T::abs_diff(9, 5), 4u);
  EXPECT_EQ(T::abs_diff(0, UINT64_MAX), UINT64_MAX);
}

TEST(Bitops, UniverseMask) {
  EXPECT_EQ(T::universe_mask(4), 0xfull);
  EXPECT_EQ(T::universe_mask(32), 0xffffffffull);
  EXPECT_EQ(T::universe_mask(64), ~0ull);
}

class PrefixProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PrefixProperty, EncodingIsInjectivePerLength) {
  const uint32_t bits = GetParam();
  // For a sample of keys, encodings at each length agree exactly for keys
  // sharing that prefix and differ otherwise.
  uint64_t state = 99;
  for (int i = 0; i < 200; ++i) {
    const uint64_t a = splitmix64(state) & T::universe_mask(bits);
    const uint64_t b = splitmix64(state) & T::universe_mask(bits);
    const uint32_t l = T::common_prefix_len(a, b, bits);
    for (uint32_t len = 1; len < bits && len <= 16; ++len) {
      const bool same =
          T::encode_prefix(a, len, bits) == T::encode_prefix(b, len, bits);
      EXPECT_EQ(same, len <= l) << "bits=" << bits << " len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllUniverses, PrefixProperty,
                         ::testing::Values(4u, 8u, 16u, 32u, 48u, 64u));

}  // namespace
}  // namespace skiptrie
