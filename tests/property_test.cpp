// Property-based parameterized sweeps: model agreement and the paper's
// structural expectations across universes, seeds and modes.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "common/bitops.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"
#include "core/validate.h"

namespace skiptrie {
namespace {

// ---------------------------------------------------------------------
// Property 1: full model agreement (insert/erase/contains/pred/succ) for
// every universe size and several seeds.
// ---------------------------------------------------------------------
class ModelAgreement
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(ModelAgreement, RandomOpsMatchStdSet) {
  const auto [bits, seed] = GetParam();
  Config c;
  c.universe_bits = bits;
  SkipTrie t(c);
  std::set<uint64_t> ref;
  Xoshiro256 rng(seed);
  const uint64_t space =
      bits >= 16 ? (1ull << 14) : (U64Traits::universe_mask(bits) + 1);

  for (int i = 0; i < 8000; ++i) {
    const uint64_t k = rng.next_below(space);
    switch (rng.next_below(5)) {
      case 0:
        ASSERT_EQ(t.insert(k), ref.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(t.erase(k), ref.erase(k) > 0);
        break;
      case 2:
        ASSERT_EQ(t.contains(k), ref.count(k) > 0);
        break;
      case 3: {
        auto it = ref.upper_bound(k);
        std::optional<uint64_t> expect;
        if (it != ref.begin()) expect = *std::prev(it);
        ASSERT_EQ(t.predecessor(k), expect);
        break;
      }
      default: {
        auto it = ref.upper_bound(k);
        std::optional<uint64_t> expect;
        if (it != ref.end()) expect = *it;
        ASSERT_EQ(t.successor(k), expect);
        break;
      }
    }
  }
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

INSTANTIATE_TEST_SUITE_P(
    UniverseBySeed, ModelAgreement,
    ::testing::Combine(::testing::Values(4u, 8u, 12u, 16u, 32u, 48u, 64u),
                       ::testing::Values(1ull, 77ull, 20260610ull)),
    [](const auto& info) {
      // Appends, not chained operator+: g++ 12 reports a false -Wrestrict
      // on the chained form in optimized builds.
      std::string name = "B";
      name += std::to_string(std::get<0>(info.param));
      name += "_seed";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---------------------------------------------------------------------
// Property 2: structural expectations from the paper (Fig. 1): top-level
// density ~ m/log u, geometric level thinning, trie covers top keys.
// ---------------------------------------------------------------------
class StructureShape : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StructureShape, TopDensityTracksOneOverLogU) {
  const uint32_t bits = GetParam();
  Config c;
  c.universe_bits = bits;
  c.seed = 1234;
  SkipTrie t(c);
  Xoshiro256 rng(42);
  const size_t n = 16000;
  size_t inserted = 0;
  while (inserted < n) {
    const uint64_t k = rng.next() & U64Traits::universe_mask(bits) & ~1ull;
    if (t.insert(k)) inserted++;
  }
  const auto s = t.structure_stats();
  ASSERT_EQ(s.keys, n);
  const double expect_top = static_cast<double>(n) / bits;
  EXPECT_GT(static_cast<double>(s.top_count), expect_top * 0.5) << bits;
  EXPECT_LT(static_cast<double>(s.top_count), expect_top * 2.0) << bits;
  // Levels thin geometrically: each level has fewer nodes than below.
  const uint32_t top = ceil_log2(bits);
  for (uint32_t l = 1; l <= top; ++l) {
    EXPECT_LE(s.level_counts[l], s.level_counts[l - 1]) << "level " << l;
  }
  // Space: arena is O(m) — nodes per key ~ sum of level survival < 2.
  const double nodes_per_key =
      static_cast<double>(t.engine().approx_bytes()) / sizeof(Node) /
      static_cast<double>(n);
  EXPECT_LT(nodes_per_key, 4.0);
}

// B >= 16 so the universe comfortably holds the 16k sample (B=8 has only
// 256 possible keys).
INSTANTIATE_TEST_SUITE_P(Universes, StructureShape,
                         ::testing::Values(16u, 32u, 64u));

// ---------------------------------------------------------------------
// Property 3: the expected gap between top-level keys is O(log u)
// (the paper's implicit "bucket" size).
// ---------------------------------------------------------------------
class GapShape : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GapShape, AverageTopGapNearLogU) {
  const uint32_t bits = GetParam();
  Config c;
  c.universe_bits = bits;
  SkipTrie t(c);
  Xoshiro256 rng(7);
  const size_t n = 20000;
  size_t inserted = 0;
  while (inserted < n) {
    if (t.insert(rng.next() & U64Traits::universe_mask(bits))) inserted++;
  }
  const auto s = t.structure_stats();
  // avg gap = keys between consecutive top nodes ~ log u = bits.
  EXPECT_GT(s.avg_top_gap, bits * 0.4) << bits;
  EXPECT_LT(s.avg_top_gap, bits * 2.5) << bits;
}

INSTANTIATE_TEST_SUITE_P(Universes, GapShape,
                         ::testing::Values(16u, 32u, 64u));

// ---------------------------------------------------------------------
// Property 4: sequential and adversarial key patterns keep all invariants
// (no rebalancing pathologies — the paper's central design claim).
// ---------------------------------------------------------------------
struct PatternCase {
  const char* name;
  uint64_t (*key_of)(uint64_t i);
};

class KeyPatterns : public ::testing::TestWithParam<PatternCase> {};

TEST_P(KeyPatterns, InsertEraseHalfValidate) {
  Config c;
  c.universe_bits = 32;
  SkipTrie t(c);
  const auto& pc = GetParam();
  const uint64_t n = 6000;
  std::set<uint64_t> ref;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t k = pc.key_of(i) & U64Traits::universe_mask(32);
    ASSERT_EQ(t.insert(k), ref.insert(k).second);
  }
  uint64_t idx = 0;
  for (uint64_t k : ref) {
    if (idx++ % 2 == 0) {
      ASSERT_TRUE(t.erase(k));
    }
  }
  idx = 0;
  for (uint64_t k : ref) {
    ASSERT_EQ(t.contains(k), idx++ % 2 == 1) << k;
  }
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty())
      << pc.name << ": " << (errors.empty() ? "" : errors.front());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, KeyPatterns,
    ::testing::Values(
        PatternCase{"sequential", [](uint64_t i) { return i; }},
        PatternCase{"reverse", [](uint64_t i) { return 100000 - i; }},
        PatternCase{"strided", [](uint64_t i) { return i * 4097; }},
        PatternCase{"clustered",
                    [](uint64_t i) { return (i / 64) * 1000000 + i % 64; }},
        PatternCase{"bitreversed",
                    [](uint64_t i) { return mix64(i); }}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// Property 5: predecessor step counts stay near log log u, not log m
// (the headline claim, checked loosely as a test; exact curves are in the
// benchmarks).
// ---------------------------------------------------------------------
TEST(StepComplexity, PredecessorHashProbesAreLogLogU) {
  Config c;
  c.universe_bits = 32;
  SkipTrie t(c);
  Xoshiro256 rng(11);
  const uint64_t mask = U64Traits::universe_mask(32);
  for (int i = 0; i < 30000; ++i) t.insert(rng.next() & mask);

  tls_counters() = StepCounters{};
  const int q = 2000;
  for (int i = 0; i < q; ++i) t.predecessor(rng.next() & mask);
  const double probes_per_query =
      static_cast<double>(tls_counters().hash_probes) / q;
  // Binary search over prefix lengths: <= ~log2(32) lookups, each a probe
  // or two in the hash list (dummies); generous upper bound of 6x.
  EXPECT_LT(probes_per_query, 6.0 * ceil_log2(32));
  EXPECT_GT(probes_per_query, 1.0);
  tls_counters() = StepCounters{};
}

}  // namespace
}  // namespace skiptrie
