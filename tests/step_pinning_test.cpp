// u64 fast-path pinning regression (ISSUE 7 acceptance; DESIGN.md §6).
//
// The key-traits refactor promises that U64Traits is the seed behavior
// *byte for byte*: same deterministic tower heights (random.h's
// deterministic_height_mixed seam), same hash stream, same descent
// decisions — hence exactly the same per-op step counts.  This test replays
// a fixed single-threaded workload (seeded Xoshiro256, insert / read /
// batch / erase phases over 32- and 64-bit universes) and compares twelve
// step counters per phase against golden values captured on the pre-traits
// tree at commit 8a0ca2d.  Any drift — a changed mix, a different gallop
// seed, an extra restart — fails loudly with the counter-by-counter diff.
//
// The goldens are single-thread deterministic: heights come from
// (seed, mix64(ikey)), not from thread-local RNG state, and no concurrency
// means no retries.  If an *intentional* algorithm change shifts these
// numbers, re-capture with the harness documented in ISSUE.md / CHANGES.md
// and update the table in the same commit that explains why.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"

namespace skiptrie {
namespace {

// {node_hops, hash_probes, back_steps, prev_steps, hash_updates,
//  cas_attempts, dcss_attempts, trie_level_ops, restarts, finger_hits,
//  cursor_reuses, retired_nodes}
using Golden = std::array<uint64_t, 12>;

constexpr const char* kCounterNames[12] = {
    "node_hops",    "hash_probes",  "back_steps",     "prev_steps",
    "hash_updates", "cas_attempts", "dcss_attempts",  "trie_level_ops",
    "restarts",     "finger_hits",  "cursor_reuses",  "retired_nodes"};

Golden delta(const StepCounters& a, const StepCounters& b) {
  const StepCounters d = b - a;
  return {d.node_hops,    d.hash_probes,  d.back_steps,    d.prev_steps,
          d.hash_updates, d.cas_attempts, d.dcss_attempts, d.trie_level_ops,
          d.restarts,     d.finger_hits,  d.cursor_reuses, d.retired_nodes};
}

void expect_golden(const char* phase, const Golden& got, const Golden& want) {
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << phase << ": counter " << kCounterNames[i]
                               << " drifted from the pre-traits seed";
  }
}

struct PhaseGoldens {
  Golden insert, read, batch, erase;
};

// Captured at commit 8a0ca2d (pre-traits tree), gcc 12, -O2, single thread.
constexpr PhaseGoldens kBits32 = {
    {16872, 8932, 0, 64, 1755, 3275, 3984, 2176, 0, 1854, 0, 0},
    {44972, 4902, 0, 312, 0, 361, 0, 0, 0, 5409, 0, 0},
    {26675, 3066, 0, 2, 766, 1355, 1825, 1024, 0, 19, 4765, 0},
    {24750, 5341, 2, 153, 885, 8273, 1902, 1184, 22, 679, 0, 2017},
};
constexpr PhaseGoldens kBits64 = {
    {17453, 8955, 0, 18, 2009, 3319, 4176, 2176, 0, 1961, 0, 0},
    {46889, 328, 0, 13, 0, 35, 0, 0, 0, 5973, 0, 0},
    {27091, 4667, 0, 2, 1089, 1764, 2171, 1216, 0, 47, 4867, 0},
    {27417, 4692, 0, 63, 1035, 8852, 2128, 1152, 7, 865, 0, 2070},
};

void run_pinned(uint32_t bits, const PhaseGoldens& want) {
  Config cfg;
  cfg.universe_bits = bits;
  SkipTrie t(cfg);
  const uint64_t maxk = t.max_key();
  Xoshiro256 rng(42);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(rng.next() % (maxk - 8));

  tls_counters() = StepCounters{};
  StepCounters a = snapshot_counters();
  size_t ins = 0;
  for (uint64_t k : keys) ins += t.insert(k);
  StepCounters b = snapshot_counters();
  expect_golden("insert", delta(a, b), want.insert);
  EXPECT_EQ(ins, 2000u);
  EXPECT_EQ(t.size(), 2000u);

  size_t hits = 0, preds = 0;
  for (uint64_t k : keys) {
    hits += t.contains(k);
    preds += t.predecessor(k + 3).has_value();
    preds += t.successor(k).has_value();
  }
  StepCounters c = snapshot_counters();
  expect_golden("read", delta(b, c), want.read);
  EXPECT_EQ(hits, 2000u);
  EXPECT_EQ(preds, 3999u);

  // batch: sorted multiget + unsorted insert + sorted predecessor sweep
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint8_t> r8(sorted.size());
  const size_t bc = t.contains_batch(sorted.data(), sorted.size(), r8.data());
  std::vector<uint64_t> batch2;
  for (int i = 0; i < 1000; ++i) batch2.push_back(rng.next() % (maxk - 8));
  const size_t bi = t.insert_batch(batch2.data(), batch2.size(), nullptr);
  std::vector<std::optional<uint64_t>> rp(sorted.size());
  const size_t bp =
      t.predecessor_batch(sorted.data(), sorted.size(), rp.data());
  StepCounters d = snapshot_counters();
  expect_golden("batch", delta(c, d), want.batch);
  EXPECT_EQ(bc, 2000u);
  EXPECT_EQ(bi, 1000u);
  EXPECT_EQ(bp, 2000u);

  size_t er = 0;
  for (size_t i = 0; i < keys.size(); i += 2) er += t.erase(keys[i]);
  StepCounters e = snapshot_counters();
  expect_golden("erase", delta(d, e), want.erase);
  EXPECT_EQ(er, 1000u);
  EXPECT_EQ(t.size(), 2000u);
  tls_counters() = StepCounters{};
}

// NDEBUG-independence: the workload takes no assert-gated branches, and the
// goldens were captured on the default (RelWithDebInfo-equivalent) CI
// flags.  Sanitizer builds perturb nothing either — every counted step is
// an algorithmic event, not a timing artifact.
TEST(StepPinningTest, U64Bits32ReproducesSeedStepCounts) {
  run_pinned(32, kBits32);
}

TEST(StepPinningTest, U64Bits64ReproducesSeedStepCounts) {
  run_pinned(64, kBits64);
}

// The heights themselves are part of the pinned surface: the traits seam
// (height_mix -> deterministic_height_mixed) must compose to exactly the
// seed's deterministic_height on u64.
TEST(StepPinningTest, HeightSeamIsByteIdentical) {
  for (uint64_t k = 0; k < 50000; ++k) {
    const uint64_t x = k * 0x9e3779b97f4a7c15ull + 1;
    for (uint32_t cap : {3u, 5u, 6u, 7u}) {
      EXPECT_EQ(deterministic_height(7, x, cap),
                deterministic_height_mixed(7, U64Traits::height_mix(x), cap));
    }
  }
}

}  // namespace
}  // namespace skiptrie
