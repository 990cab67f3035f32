// Parameterized engine sweeps: the same tower/list invariants must hold for
// every truncation height (the SkipTrie uses 3..7 levels, the baseline up
// to ~40) and — since the key-traits refactor (DESIGN.md §6) — for both
// shipped key universes.  The sweeps are TYPED_TESTs over
// {U64Traits, Bytes16Traits}; each test iterates the heights internally.
// The 128-bit ikeys are spread across both machine words so the
// comparisons genuinely exercise wide arithmetic.
#include <gtest/gtest.h>

#include <set>

#include "common/key_traits.h"
#include "common/random.h"
#include "common/stats.h"
#include "skiplist/engine.h"

namespace skiptrie {
namespace {

constexpr uint32_t kTops[] = {1u, 2u, 3u, 5u, 6u, 10u, 20u};

template <typename Traits>
class EngineSweep : public ::testing::Test {
 protected:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Engine = BasicSkipListEngine<Traits>;

  struct Rig {
    SlabArena arena;
    EbrDomain ebr;
    Engine eng;
    explicit Rig(uint32_t top)
        : arena(sizeof(Node_t), kCacheLine, 1024), eng(ebr, arena, top) {}
  };

  // Strictly monotone key -> ikey embedding.  For the wide universe the
  // value lands in both 64-bit halves, so ordering decisions can't be
  // satisfied by the low word alone.
  static Ikey ik(uint64_t k) {
    if constexpr (Traits::kMaxBits > 64) {
      return (Ikey(k + 1) << 64) | Ikey(k + 1);
    } else {
      return Ikey(k + 1);
    }
  }
};

using SweepTraits = ::testing::Types<U64Traits, Bytes16Traits>;
TYPED_TEST_SUITE(EngineSweep, SweepTraits);

TYPED_TEST(EngineSweep, FullHeightTowerSpansAllLevels) {
  using Fix = EngineSweep<TypeParam>;
  for (const uint32_t top : kTops) {
    typename Fix::Rig r(top);
    EbrDomain::Guard g(r.ebr);
    ASSERT_TRUE(r.eng.insert(Fix::ik(42), r.eng.head(top), top).inserted);
    for (uint32_t l = 0; l <= top; ++l) {
      auto* n = r.eng.first_at(l);
      ASSERT_NE(n, nullptr) << "top " << top << " level " << l;
      EXPECT_TRUE(n->ikey() == Fix::ik(42));
    }
  }
}

TYPED_TEST(EngineSweep, EraseAtEveryHeightCleansAllLevels) {
  using Fix = EngineSweep<TypeParam>;
  for (const uint32_t top : kTops) {
    typename Fix::Rig r(top);
    EbrDomain::Guard g(r.ebr);
    for (uint32_t h = 0; h <= top; ++h) {
      const uint64_t key = 100 + h;
      ASSERT_TRUE(r.eng.insert(Fix::ik(key), r.eng.head(top), h).inserted);
      auto res = r.eng.erase(Fix::ik(key), r.eng.head(top));
      ASSERT_TRUE(res.erased) << "top " << top << " height " << h;
      EXPECT_EQ(res.top != nullptr, h == top) << "height " << h;
      r.eng.retire_owned(res);
      for (uint32_t l = 0; l <= top; ++l) {
        EXPECT_EQ(r.eng.first_at(l), nullptr)
            << "top " << top << " h=" << h << " level " << l;
      }
    }
  }
}

TYPED_TEST(EngineSweep, InterleavedChurnMatchesReference) {
  using Fix = EngineSweep<TypeParam>;
  for (const uint32_t top : kTops) {
    typename Fix::Rig r(top);
    EbrDomain::Guard g(r.ebr);
    Xoshiro256 rng(top * 7 + 1);
    std::set<uint64_t> ref;
    for (int i = 0; i < 1500; ++i) {
      const uint64_t k = rng.next_below(128);
      if (rng.next() & 1) {
        const bool ours =
            r.eng.insert(Fix::ik(k), r.eng.head(top),
                         rng.geometric_height(top))
                .inserted;
        ASSERT_EQ(ours, ref.insert(k).second);
      } else {
        auto res = r.eng.erase(Fix::ik(k), r.eng.head(top));
        ASSERT_EQ(res.erased, ref.erase(k) > 0);
        if (res.erased) r.eng.retire_owned(res);
      }
    }
    size_t count = 0;
    for (auto* n = r.eng.first_at(0); n != nullptr; n = r.eng.next_at(n)) {
      ++count;
    }
    EXPECT_EQ(count, ref.size()) << "top " << top;
  }
}

TYPED_TEST(EngineSweep, BracketsAlwaysSortedAndTight) {
  using Fix = EngineSweep<TypeParam>;
  for (const uint32_t top : kTops) {
    typename Fix::Rig r(top);
    EbrDomain::Guard g(r.ebr);
    Xoshiro256 rng(9);
    std::set<uint64_t> ref;
    for (int i = 0; i < 500; ++i) {
      const uint64_t k = rng.next_below(100000);
      if (ref.insert(k).second) {
        ASSERT_TRUE(r.eng
                        .insert(Fix::ik(k), r.eng.head(top),
                                rng.geometric_height(top))
                        .inserted);
      }
    }
    for (int i = 0; i < 500; ++i) {
      const uint64_t q = rng.next_below(100000);
      const auto b = r.eng.descend(Fix::ik(q), r.eng.head(top));
      // left < ik(q) <= right, and they are adjacent in the reference too.
      EXPECT_TRUE(b.left->ikey() < Fix::ik(q));
      EXPECT_TRUE(b.right->ikey() >= Fix::ik(q));
      auto it = ref.lower_bound(q);
      if (it == ref.begin()) {
        EXPECT_EQ(b.left->kind(), NodeKind::kHead);
      } else {
        EXPECT_TRUE(b.left->ikey() == Fix::ik(*std::prev(it)));
      }
      if (it == ref.end()) {
        EXPECT_EQ(b.right->kind(), NodeKind::kTail);
      } else {
        EXPECT_TRUE(b.right->ikey() == Fix::ik(*it));
      }
    }
  }
}

// Guide-pointer hardening: traversals must survive poisoned storage.  Runs
// on the u64 alias — the poison/recycle machinery is byte-level and
// key-width independent.
class GuideHardening : public ::testing::Test {
 protected:
  GuideHardening()
      : arena_(sizeof(Node), kCacheLine, 256), eng_(ebr_, arena_, 3) {}
  SlabArena arena_;
  EbrDomain ebr_;
  SkipListEngine eng_;
};

TEST_F(GuideHardening, WalkLeftFromPoisonedNodeFallsBackToHead) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(100, eng_.head(3), 3).inserted);
  Node* poisoned = eng_.make_node(999, 2, 2, nullptr, nullptr);
  poisoned->poison();
  Node* res = eng_.walk_left(50, poisoned);
  EXPECT_EQ(res, eng_.head(3));
  arena_.recycle(poisoned);
}

TEST_F(GuideHardening, ListSearchFromPoisonedStartRecovers) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(100, eng_.head(3), 1).inserted);
  Node* poisoned = eng_.make_node(999, 1, 1, nullptr, nullptr);
  poisoned->poison();
  const auto b = eng_.list_search(100, poisoned, 1);
  EXPECT_EQ(b.right->ikey(), 100u);
  arena_.recycle(poisoned);
}

TEST_F(GuideHardening, DescendFromWrongLevelNodeStillCorrect) {
  EbrDomain::Guard g(ebr_);
  for (uint64_t k = 1; k <= 50; ++k) {
    ASSERT_TRUE(eng_.insert(k * 2, eng_.head(3), k % 4).inserted);
  }
  // Use a level-0 node as the descend start (simulates a recycled guide
  // that now lives at a different level): result must still be exact.
  Node* low = eng_.first_at(0);
  ASSERT_NE(low, nullptr);
  const auto b = eng_.descend(77, low);
  EXPECT_EQ(b.left->ikey(), 76u);
  EXPECT_EQ(b.right->ikey(), 78u);
}

TEST_F(GuideHardening, WalkLeftFallbackIsAttributedDistinctly) {
  // A dead-ended guide walk (poisoned start) must count walk_fallbacks, not
  // just a generic restart: discarding the trie hint costs a full top-level
  // rescan and ROADMAP tracks it separately.
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(100, eng_.head(3), 3).inserted);
  Node* poisoned = eng_.make_node(999, 2, 2, nullptr, nullptr);
  poisoned->poison();
  tls_counters() = StepCounters{};
  Node* res = eng_.walk_left(50, poisoned);
  EXPECT_EQ(res, eng_.head(3));
  EXPECT_EQ(tls_counters().walk_fallbacks, 1u);
  EXPECT_EQ(tls_counters().restarts, 1u);
  arena_.recycle(poisoned);

  // A healthy walk from a usable node attributes no fallback.
  Node* top = eng_.first_at(3);
  ASSERT_NE(top, nullptr);
  tls_counters() = StepCounters{};
  EXPECT_EQ(eng_.walk_left(200, top), top);
  EXPECT_EQ(tls_counters().walk_fallbacks, 0u);
  tls_counters() = StepCounters{};
}

TEST_F(GuideHardening, WalkLeftLimitFromAdversarialStaleHint) {
  // Regression for the silent kWalkLimit restart: an adversarially bad
  // (stale) start hint — a top-level node more than kWalkLimit prev-hops to
  // the right of the search bound — must give up, fall back to the head,
  // and say so in walk_fallbacks instead of hiding the cost in restarts.
  EbrDomain::Guard g(ebr_);
  constexpr uint64_t kNodes = 4200;  // > kWalkLimit (4096)
  Node* stale_hint = nullptr;
  for (uint64_t k = 1; k <= kNodes; ++k) {
    const auto r = eng_.insert(k * 2, stale_hint == nullptr
                                          ? eng_.head(3)
                                          : stale_hint,
                               3);
    ASSERT_TRUE(r.inserted);
    stale_hint = r.top;  // rightmost top-level node so far
  }
  ASSERT_NE(stale_hint, nullptr);
  tls_counters() = StepCounters{};
  // Search bound 1 sits left of every node: the walk must follow ~kNodes
  // prev pointers, exceed the limit, and restart from the head.
  Node* res = eng_.walk_left(1, stale_hint);
  EXPECT_EQ(res, eng_.head(3));
  EXPECT_EQ(tls_counters().walk_fallbacks, 1u);
  EXPECT_GT(tls_counters().prev_steps, 4000u);
  tls_counters() = StepCounters{};
}

TEST_F(GuideHardening, WalkLeftNullFromPoisonBackPointer) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(10, eng_.head(3), 3).inserted);
  Node* n = eng_.first_at(3);
  ASSERT_NE(n, nullptr);
  // Mark with a null back pointer: the walk must fall back to the head
  // rather than dereference null.
  uint64_t w = n->next.load();
  ASSERT_TRUE(n->next.compare_exchange_strong(w, with_mark(w)));
  n->back.store(nullptr);
  Node* res = eng_.walk_left(5, n);
  EXPECT_EQ(res, eng_.head(3));
}

}  // namespace
}  // namespace skiptrie
