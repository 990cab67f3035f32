// Fingered-descent subsystem tests (DESIGN.md §3.6).
//
// Covers the SearchFinger bracket cache in isolation (record / try_start /
// validation / eviction), the tls registry's owner-id keying, the engine's
// fingered entry points end to end (hit-rate and probe-skip behaviour on
// repeated targets, hop attribution bookkeeping), the ablation switch, and
// — the regression this PR must pin — a concurrent delete retiring a
// fingered node mid-workload: the finger must fall back to the trie/head
// path without ever dereferencing reclaimed-and-unmapped memory (run under
// -DSKIPTRIE_SANITIZE=address|thread).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "baseline/lockfree_skiplist.h"
#include "core/skiptrie.h"
#include "skiplist/cursor.h"
#include "skiplist/engine.h"
#include "skiplist/finger.h"

namespace skiptrie {
namespace {

// --- SearchFinger in isolation ---------------------------------------------

class FingerUnitTest : public ::testing::Test {
 protected:
  FingerUnitTest()
      : arena_(sizeof(Node), kCacheLine, 1024),
        ctx_{&ebr_, DcssMode::kDcss},
        eng_(ctx_, arena_, 3) {}

  static uint64_t ik(uint64_t k) { return k + 1; }

  SlabArena arena_;
  EbrDomain ebr_;
  DcssContext ctx_;
  SkipListEngine eng_;
};

TEST_F(FingerUnitTest, RecordThenHitAtLowestLevel) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(3), 3).inserted);
  ASSERT_TRUE(eng_.insert(ik(20), eng_.head(3), 3).inserted);
  Node* n10 = eng_.first_at(0);
  ASSERT_NE(n10, nullptr);
  ASSERT_EQ(n10->ikey(), ik(10));
  Node* n10_top = eng_.first_at(3);
  ASSERT_EQ(n10_top->ikey(), ik(10));

  SearchFinger f;
  f.reset(1, 3);
  f.record(0, n10, ik(10), ik(20), 5);
  f.record(3, n10_top, ik(10), ik(20), 5);

  // x = 15 is inside the (10, 20] bracket at both levels: the lowest wins.
  Node* start = nullptr;
  EXPECT_EQ(f.try_start(ik(15), 0, 5, &start), 0);
  EXPECT_EQ(start, n10);
  // min_level masks the low entry.
  EXPECT_EQ(f.try_start(ik(15), 2, 5, &start), 3);
  EXPECT_EQ(start, n10_top);
  // min_level above every entry: miss.
  EXPECT_EQ(f.try_start(ik(15), 4, 5, &start), SearchFinger::kMiss);
  // Outside the bracket on either side: miss.
  EXPECT_EQ(f.try_start(ik(10), 0, 5, &start), SearchFinger::kMiss);
  EXPECT_EQ(f.try_start(ik(25), 0, 5, &start), SearchFinger::kMiss);
}

TEST_F(FingerUnitTest, ValidationRejectsStaleEntries) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(3), 1).inserted);
  Node* n10 = eng_.first_at(0);
  ASSERT_NE(n10, nullptr);

  SearchFinger f;
  f.reset(1, 3);
  Node* start = nullptr;

  // Epoch too old: the entry is screened out before any node read.
  f.record(0, n10, ik(10), ik(20), 5);
  EXPECT_EQ(f.try_start(ik(15), 0, 5 + SearchFinger::kMaxEpochLag + 1, &start),
            SearchFinger::kMiss);
  EXPECT_EQ(f.try_start(ik(15), 0, 5, &start), 0);  // fresh again

  // Wrong level: the recorded node is a level-0 node filed at level 2.
  f.invalidate();
  f.record(2, n10, ik(10), ik(20), 5);
  EXPECT_EQ(f.try_start(ik(15), 0, 5, &start), SearchFinger::kMiss);

  // ikey mismatch (models a recycled-to-another-key node).
  f.invalidate();
  f.record(0, n10, ik(11), ik(20), 5);
  EXPECT_EQ(f.try_start(ik(15), 0, 5, &start), SearchFinger::kMiss);

  // Marked node: erase 10, keeping the storage alive (not yet retired).
  f.invalidate();
  f.record(0, n10, ik(10), ik(20), 5);
  auto r = eng_.erase(ik(10), eng_.head(3));
  ASSERT_TRUE(r.erased);
  EXPECT_EQ(f.try_start(ik(15), 0, 5, &start), SearchFinger::kMiss);
  eng_.retire_owned(r);

  // Poisoned storage (after drain the node is recycled in place).
  ebr_.drain();
  EXPECT_EQ(f.try_start(ik(15), 0, 5, &start), SearchFinger::kMiss);
}

TEST_F(FingerUnitTest, ClockEvictionKeepsReferencedEntries) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(3), 0).inserted);
  Node* n10 = eng_.first_at(0);
  ASSERT_NE(n10, nullptr);

  SearchFinger f;
  f.reset(1, 3);
  f.record(0, n10, ik(10), ik(1000), 5);
  Node* start = nullptr;
  ASSERT_EQ(f.try_start(ik(500), 0, 5, &start), 0);  // sets the ref bit

  // Flood the row with more distinct brackets than it has ways; the
  // referenced hot entry must survive one full clock revolution.
  for (uint64_t i = 0; i < SearchFinger::kWays; ++i) {
    f.record(0, n10, ik(2000 + i), ik(2000 + i + 1), 5);
  }
  EXPECT_EQ(f.try_start(ik(500), 0, 5, &start), 0)
      << "referenced entry was evicted by one revolution of cold traffic";
}

TEST_F(FingerUnitTest, TlsFingerIsKeyedByOwnerId) {
  SearchFinger& a = tls_finger<U64Traits>(1001, 3);
  SearchFinger& b = tls_finger<U64Traits>(1002, 3);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &tls_finger<U64Traits>(1001, 3));
  EXPECT_EQ(a.owner(), 1001u);
  EXPECT_EQ(b.owner(), 1002u);

  // Distinct threads get distinct fingers for the same owner.
  SearchFinger* other = nullptr;
  std::thread t([&] { other = &tls_finger<U64Traits>(1001, 3); });
  t.join();
  EXPECT_NE(other, &a);
}

// --- Engine-level behaviour -------------------------------------------------

TEST(FingerEngineTest, RepeatedQueriesHitAndSkipTheFallback) {
  SkipTrie t;
  for (uint64_t k = 0; k < 512; ++k) t.insert(k * 16);

  // A fresh thread starts with a cold finger (fingers are thread-local),
  // making the first-query miss deterministic; on the main thread the
  // insert pass above may already have seeded servable brackets.
  std::thread probe([&] {
    tls_counters() = StepCounters{};
    EXPECT_EQ(t.predecessor(1000).value(), 992u);
    EXPECT_EQ(tls_counters().finger_hits, 0u);
    EXPECT_EQ(tls_counters().finger_misses, 1u);

    // Warm the same target; with kRecordDepth-deep recording per descent
    // the bracket sinks one cacheable row per repeat, after which every
    // query must hit at level 0 without a single hash probe.
    for (int i = 0; i < 16; ++i) t.predecessor(1000);
    tls_counters() = StepCounters{};
    for (int i = 0; i < 64; ++i) EXPECT_EQ(t.predecessor(1000).value(), 992u);
    const StepCounters& c = tls_counters();
    EXPECT_EQ(c.finger_hits, 64u);
    EXPECT_EQ(c.finger_misses, 0u);
    EXPECT_EQ(c.hash_probes, 0u) << "finger hits must skip lowest_ancestor";
    // A level-0 hit is adjacency-validated: ~1 hop per query.
    EXPECT_LE(c.node_hops, 2u * 64u);
    tls_counters() = StepCounters{};
  });
  probe.join();
}

TEST(FingerEngineTest, HopAttributionSumsToNodeHops) {
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

TEST(FingerEngineTest, DisabledFingerMatchesResultsAndStaysCold) {
  Config cfg_off;
  cfg_off.use_finger = false;
  SkipTrie off(cfg_off);
  SkipTrie on;
  EXPECT_FALSE(off.engine().finger_enabled());
  EXPECT_TRUE(on.engine().finger_enabled());

  tls_counters() = StepCounters{};
  for (uint64_t k = 0; k < 800; ++k) {
    const uint64_t key = (k * 7919) % 4096;
    EXPECT_EQ(off.insert(key), on.insert(key));
  }
  for (uint64_t q = 0; q < 2000; ++q) {
    const uint64_t key = (q * 31) % 4096;
    EXPECT_EQ(off.predecessor(key), on.predecessor(key)) << key;
    EXPECT_EQ(off.contains(key), on.contains(key)) << key;
  }
  for (uint64_t k = 0; k < 800; k += 3) {
    const uint64_t key = (k * 7919) % 4096;
    EXPECT_EQ(off.erase(key), on.erase(key));
  }
  EXPECT_EQ(off.size(), on.size());

  // The disabled structure must not have produced finger traffic; the
  // enabled one ran the same stream, so any hits/misses came from it alone.
  Config cfg_probe;
  cfg_probe.use_finger = false;
  SkipTrie probe(cfg_probe);
  tls_counters() = StepCounters{};
  probe.insert(1);
  probe.predecessor(1);
  EXPECT_EQ(tls_counters().finger_hits + tls_counters().finger_misses, 0u);
  tls_counters() = StepCounters{};
}

TEST(FingerEngineTest, BaselineSkiplistFingersRepeatedReads) {
  LockFreeSkipList s(12);
  for (uint64_t k = 0; k < 1000; ++k) s.insert(k * 8);
  for (int i = 0; i < 16; ++i) s.predecessor(4000);
  tls_counters() = StepCounters{};
  for (int i = 0; i < 64; ++i) EXPECT_EQ(s.predecessor(4000).value(), 4000u);
  EXPECT_GT(tls_counters().finger_hits, 48u);
  tls_counters() = StepCounters{};

  // The ablation flag must reach the baseline too: an unfingered SkipTrie
  // compared against a fingered baseline would conflate the finger's
  // benefit with the trie's.
  LockFreeSkipList off(12, DcssMode::kDcss, 0x5eed5eed5eed5eedull,
                       /*use_finger=*/false);
  for (uint64_t k = 0; k < 100; ++k) off.insert(k * 8);
  tls_counters() = StepCounters{};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(off.predecessor(400).value(), 400u);
  EXPECT_EQ(tls_counters().finger_hits + tls_counters().finger_misses, 0u);
  tls_counters() = StepCounters{};
}

// --- Registry aliasing regression (DESIGN.md §4.2) ---------------------------
//
// The PR 4/5 registries held a fixed 4 slots per thread and recycled them
// round-robin, rebinding the SearchFinger / DescentCursor objects in place.
// One thread touching more than 4 engines — the steady state of a sharded
// split batch — silently retargeted references an outer frame still held
// (aliasing) and reset every finger to cold on each cycle.  These tests pin
// the replacement contract: one stable object per live owner, distinct
// across owners, swept only when the owner's engine is destroyed.

TEST(RegistryAliasingTest, FingersStayDistinctAndStableAcrossManyOwners) {
  std::thread probe([] {
    constexpr int kOwners = 8;  // more than the old registry could hold
    uint64_t owners[kOwners];
    SearchFinger* fingers[kOwners];
    for (int i = 0; i < kOwners; ++i) {
      owners[i] = new_finger_owner();
      fingers[i] = &tls_finger<U64Traits>(owners[i], 3);
    }
    for (int i = 0; i < kOwners; ++i) {
      for (int j = i + 1; j < kOwners; ++j) {
        EXPECT_NE(fingers[i], fingers[j]) << i << "," << j;
      }
    }
    // Re-fetching in any interleaving returns the same object still bound
    // to the same owner — the old registry failed exactly here, handing
    // finger[i]'s storage to another owner once i fell 4 fetches behind.
    for (int round = 0; round < 3; ++round) {
      for (int i = kOwners - 1; i >= 0; --i) {
        SearchFinger& f = tls_finger<U64Traits>(owners[i], 3);
        EXPECT_EQ(&f, fingers[i]) << i;
        EXPECT_EQ(f.owner(), owners[i]);
      }
    }
    for (int i = 0; i < kOwners; ++i) release_finger_owner(owners[i]);
  });
  probe.join();
}

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
    // A split batch visits shards round-robin; every revisit must find the
    // shard's own cursor (stream state intact), not a recycled slot.
    for (int round = 0; round < 3; ++round) {
      for (int i = kEngines - 1; i >= 0; --i) {
        EXPECT_EQ(&engines[i]->cursor(), cursors[i]) << i;
      }
    }
  });
  probe.join();
}

TEST(RegistryAliasingTest, DeadOwnersAreSweptFromBothRegistries) {
  std::thread probe([] {
    const size_t f0 = tls_finger_registry_size();
    const size_t c0 = tls_cursor_registry_size();
    {
      SlabArena arena(sizeof(Node), kCacheLine, 2048);
      EbrDomain ebr;
      DcssContext ctx{&ebr, DcssMode::kDcss};
      std::vector<std::unique_ptr<SkipListEngine>> engines;
      for (int i = 0; i < 6; ++i) {
        engines.push_back(std::make_unique<SkipListEngine>(ctx, arena, 3));
        engines.back()->finger();
        engines.back()->cursor();
      }
      EXPECT_EQ(tls_finger_registry_size(), f0 + 6);
      EXPECT_EQ(tls_cursor_registry_size(), c0 + 6);
    }
    // Engine destructors journaled the owners; the next lookup (which the
    // size hooks share) must have dropped every slot.
    EXPECT_EQ(tls_finger_registry_size(), f0);
    EXPECT_EQ(tls_cursor_registry_size(), c0);
  });
  probe.join();
}

// --- The invalidation regression --------------------------------------------
//
// Thread A repeatedly queries a small hot range, so its finger brackets the
// hot keys at low levels.  Thread B erases and reinserts exactly those keys
// while churning a cold range hard enough to drive EBR grace periods, so
// the nodes A's finger remembers are retired, poisoned and recycled under
// A's feet.  A's queries must stay correct (fall back to the trie path on
// validation failure) and the sanitizers must see no invalid access.  A
// single-threaded deterministic variant pins the fall-back accounting.

TEST(FingerInvalidationTest, DeterministicRetireForcesFallback) {
  SkipTrie t;
  std::thread probe([&] {
    for (uint64_t k = 0; k < 64; ++k) t.insert(k * 100);

    // Warm the finger until the level-0 bracket (300, 400] serves hits.
    for (int i = 0; i < 16; ++i) t.predecessor(350);
    tls_counters() = StepCounters{};
    ASSERT_EQ(t.predecessor(350).value(), 300u);
    ASSERT_GE(tls_counters().finger_hits, 1u);

    // Retire every key this thread's finger can have bracketed and force
    // reclamation, so each remembered interior node is poisoned, recycled
    // storage.  Queries must reject them all (validation), fall back to
    // the trie/head path, and stay correct — under asan this also proves
    // no read ever leaves still-valid storage.
    for (uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(t.erase(k * 100));
    t.ebr().drain();
    ASSERT_TRUE(t.insert(50));
    tls_counters() = StepCounters{};
    EXPECT_EQ(t.predecessor(350).value(), 50u);
    EXPECT_EQ(t.predecessor(6300).value(), 50u);
    // Level-0 / low-row entries all name dead interiors, so no query may
    // enter below the top cacheable row; head-anchored top-row brackets
    // may legitimately still serve.  What is pinned here: the answers are
    // exact and at least one query had to take the fallback path.
    EXPECT_GE(tls_counters().finger_misses + tls_counters().finger_hits, 2u);
    EXPECT_EQ(tls_counters().hops_descent + tls_counters().hops_top,
              tls_counters().node_hops);
    tls_counters() = StepCounters{};
  });
  probe.join();
}

TEST(FingerInvalidationTest, ConcurrentDeleteOfFingeredNodes) {
  SkipTrie t;
  constexpr uint64_t kHot = 64;        // hot keys: 0, 8, .., 504
  constexpr uint64_t kColdBase = 1 << 16;
  for (uint64_t k = 0; k < kHot; ++k) t.insert(k * 8);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  std::thread reader([&] {
    // Hammer the hot range so the finger holds level-0 brackets there.
    uint64_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t key = (q++ % kHot) * 8 + 3;
      const std::optional<uint64_t> p = t.predecessor(key);
      // The hot keys churn, but every answer must be a plausible
      // predecessor: <= key, and aligned with some key ever inserted.
      if (p.has_value() && (*p > key || (*p % 8 != 0 && *p < kColdBase))) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::thread churner([&] {
    // Delete/reinsert the hot keys (retiring exactly the nodes the
    // reader's finger remembers) and churn a cold range to push epochs
    // forward so retired nodes actually get poisoned and recycled.
    for (int round = 0; round < 400; ++round) {
      for (uint64_t k = 0; k < kHot; k += 2) t.erase(k * 8);
      for (uint64_t i = 0; i < 256; ++i) {
        t.insert(kColdBase + (round * 256 + i) % 4096);
        t.erase(kColdBase + (round * 256 + i + 2048) % 4096);
      }
      for (uint64_t k = 0; k < kHot; k += 2) t.insert(k * 8);
    }
    stop.store(true, std::memory_order_relaxed);
  });

  churner.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0u);

  // Quiesced: all hot keys are present again and queries are exact.
  for (uint64_t k = 0; k < kHot; ++k) {
    EXPECT_TRUE(t.contains(k * 8)) << k * 8;
    EXPECT_EQ(t.predecessor(k * 8 + 3).value(), k * 8);
  }
}

}  // namespace
}  // namespace skiptrie
