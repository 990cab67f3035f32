#include "skiplist/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"

namespace skiptrie {
namespace {

// Fixture: a truncated engine like the SkipTrie's for B=32 (top level 5).
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : arena_(sizeof(Node), kCacheLine, 1024),
        ctx_{&ebr_, DcssMode::kDcss},
        eng_(ctx_, arena_, 5) {}

  // ikey helpers: user key k -> internal key k+1.
  static uint64_t ik(uint64_t k) { return k + 1; }

  SlabArena arena_;
  EbrDomain ebr_;
  DcssContext ctx_;
  SkipListEngine eng_;
};

TEST_F(EngineTest, EmptyBracketsHeadToTail) {
  EbrDomain::Guard g(ebr_);
  const auto b = eng_.descend(ik(100), eng_.head(eng_.top_level()));
  EXPECT_EQ(b.left, eng_.head(0));
  EXPECT_EQ(b.right, eng_.tail());
}

TEST_F(EngineTest, InsertAtHeightZeroOnlyLevelZero) {
  EbrDomain::Guard g(ebr_);
  const auto r = eng_.insert(ik(10), eng_.head(5), 0);
  ASSERT_TRUE(r.inserted);
  EXPECT_EQ(r.top, nullptr);
  EXPECT_NE(eng_.first_at(0), nullptr);
  EXPECT_EQ(eng_.first_at(1), nullptr);
}

TEST_F(EngineTest, InsertAtFullHeightReachesTop) {
  EbrDomain::Guard g(ebr_);
  const auto r = eng_.insert(ik(10), eng_.head(5), 5);
  ASSERT_TRUE(r.inserted);
  ASSERT_NE(r.top, nullptr);
  EXPECT_EQ(r.top->level(), 5u);
  EXPECT_EQ(r.top->ikey(), ik(10));
  for (uint32_t l = 0; l <= 5; ++l) {
    ASSERT_NE(eng_.first_at(l), nullptr) << l;
    EXPECT_EQ(eng_.first_at(l)->ikey(), ik(10));
  }
}

TEST_F(EngineTest, TowerLinksAreConsistent) {
  EbrDomain::Guard g(ebr_);
  const auto r = eng_.insert(ik(10), eng_.head(5), 3);
  ASSERT_TRUE(r.inserted);
  Node* n = eng_.first_at(3);
  ASSERT_NE(n, nullptr);
  for (int l = 3; l > 0; --l) {
    EXPECT_EQ(n->level(), static_cast<uint32_t>(l));
    EXPECT_EQ(n->root(), r.root);
    n = n->down();
    ASSERT_NE(n, nullptr);
  }
  EXPECT_EQ(n, r.root);
}

TEST_F(EngineTest, DuplicateInsertRejected) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(5), 2).inserted);
  const auto r = eng_.insert(ik(10), eng_.head(5), 4);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.root, nullptr);
}

TEST_F(EngineTest, BracketSeparatesNeighbors) {
  EbrDomain::Guard g(ebr_);
  for (uint64_t k : {10, 20, 30}) {
    ASSERT_TRUE(eng_.insert(ik(k), eng_.head(5), 1).inserted);
  }
  const auto b = eng_.descend(ik(25), eng_.head(5));
  EXPECT_EQ(b.left->ikey(), ik(20));
  EXPECT_EQ(b.right->ikey(), ik(30));
  const auto b2 = eng_.descend(ik(20), eng_.head(5));
  EXPECT_EQ(b2.left->ikey(), ik(10));
  EXPECT_EQ(b2.right->ikey(), ik(20));  // x <= right.ikey: exact hit on right
}

TEST_F(EngineTest, EraseRemovesEveryLevel) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(5), 5).inserted);
  auto r = eng_.erase(ik(10), eng_.head(5));
  ASSERT_TRUE(r.erased);
  EXPECT_NE(r.top, nullptr);
  EXPECT_GT(r.owned_count, 0u);
  for (uint32_t l = 0; l <= 5; ++l) {
    EXPECT_EQ(eng_.first_at(l), nullptr) << "level " << l;
  }
  eng_.retire_owned(r);
}

TEST_F(EngineTest, EraseAbsentKeyFails) {
  EbrDomain::Guard g(ebr_);
  EXPECT_FALSE(eng_.erase(ik(10), eng_.head(5)).erased);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(5), 1).inserted);
  EXPECT_FALSE(eng_.erase(ik(11), eng_.head(5)).erased);
}

TEST_F(EngineTest, SecondEraseLosesTheClaim) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(5), 2).inserted);
  auto r1 = eng_.erase(ik(10), eng_.head(5));
  EXPECT_TRUE(r1.erased);
  auto r2 = eng_.erase(ik(10), eng_.head(5));
  EXPECT_FALSE(r2.erased);
  eng_.retire_owned(r1);
}

TEST_F(EngineTest, ReinsertAfterEraseWorks) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(5), 5).inserted);
  auto r = eng_.erase(ik(10), eng_.head(5));
  ASSERT_TRUE(r.erased);
  eng_.retire_owned(r);
  const auto r2 = eng_.insert(ik(10), eng_.head(5), 3);
  EXPECT_TRUE(r2.inserted);
  const auto b = eng_.descend(ik(10), eng_.head(5));
  EXPECT_EQ(b.right->ikey(), ik(10));
}

TEST_F(EngineTest, StopFlagHaltsRaising) {
  EbrDomain::Guard g(ebr_);
  // Insert, then set stop manually before re-raising another key's tower —
  // direct check: claim the stop word of a fresh root mid-construction by
  // inserting height 0, claiming, and verifying erase still works.
  const auto r = eng_.insert(ik(10), eng_.head(5), 0);
  ASSERT_TRUE(r.inserted);
  uint64_t expect = 0;
  EXPECT_TRUE(r.root->stopw.compare_exchange_strong(expect, 1));
  // The tower is claimed; a direct erase must now fail to claim...
  EXPECT_FALSE(eng_.erase(ik(10), eng_.head(5)).erased);
  // ...so complete the deletion manually the way erase would.
  expect = 1;
  EXPECT_EQ(r.root->stopw.load(), 1u);
}

TEST_F(EngineTest, ListSearchUnlinksMarkedNodes) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(10), eng_.head(5), 0).inserted);
  ASSERT_TRUE(eng_.insert(ik(20), eng_.head(5), 0).inserted);
  Node* n10 = eng_.first_at(0);
  ASSERT_EQ(n10->ikey(), ik(10));
  // Manually mark 10 (simulating a stalled deleter) and verify a search
  // physically unlinks it.
  uint64_t w = n10->next.load();
  ASSERT_FALSE(is_marked(w));
  n10->back.store(eng_.head(0));
  ASSERT_TRUE(n10->next.compare_exchange_strong(w, with_mark(w)));
  const auto b = eng_.descend(ik(15), eng_.head(5));
  EXPECT_EQ(b.left, eng_.head(0));  // 10 is gone
  EXPECT_EQ(b.right->ikey(), ik(20));
  EXPECT_EQ(eng_.first_at(0)->ikey(), ik(20));
}

TEST_F(EngineTest, SearchFromStaleHintFallsBackToHead) {
  EbrDomain::Guard g(ebr_);
  ASSERT_TRUE(eng_.insert(ik(50), eng_.head(5), 1).inserted);
  // A hint whose key is >= x is unusable; list_search must restart and
  // still return the correct bracket.
  Node* n50 = eng_.first_at(0);
  const auto b = eng_.list_search(ik(20), n50, 0);
  EXPECT_EQ(b.left, eng_.head(0));
  EXPECT_EQ(b.right->ikey(), ik(50));
}

TEST_F(EngineTest, WalkLeftStopsBelowBound) {
  EbrDomain::Guard g(ebr_);
  for (uint64_t k : {10, 20, 30, 40}) {
    ASSERT_TRUE(eng_.insert(ik(k), eng_.head(5), 5).inserted);
  }
  Node* n40 = eng_.first_at(5);
  while (n40 != nullptr && n40->ikey() != ik(40)) n40 = eng_.next_at(n40);
  ASSERT_NE(n40, nullptr);
  Node* w = eng_.walk_left(ik(25), n40);
  EXPECT_LT(w->ikey(), ik(25));
}

TEST_F(EngineTest, ManyKeysSortedAtEveryLevel) {
  EbrDomain::Guard g(ebr_);
  Xoshiro256 rng(3);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.next_below(1u << 20);
    const uint32_t h = rng.geometric_height(5);
    if (keys.insert(k).second) {
      ASSERT_TRUE(eng_.insert(ik(k), eng_.head(5), h).inserted);
    }
  }
  for (uint32_t l = 0; l <= 5; ++l) {
    uint64_t prev = 0;
    size_t count = 0;
    for (Node* n = eng_.first_at(l); n != nullptr; n = eng_.next_at(n)) {
      ASSERT_GT(n->ikey(), prev) << "level " << l;
      prev = n->ikey();
      ++count;
    }
    if (l == 0) {
      EXPECT_EQ(count, keys.size());
    } else {
      EXPECT_LT(count, keys.size());  // truncation thins levels
    }
  }
}

TEST_F(EngineTest, RandomInsertEraseMatchesReferenceSet) {
  EbrDomain::Guard g(ebr_);
  Xoshiro256 rng(8);
  std::set<uint64_t> ref;
  for (int i = 0; i < 6000; ++i) {
    const uint64_t k = rng.next_below(256);  // dense: plenty of collisions
    if (rng.next() & 1) {
      const bool ours = eng_.insert(ik(k), eng_.head(5),
                                    rng.geometric_height(5)).inserted;
      EXPECT_EQ(ours, ref.insert(k).second) << "insert " << k;
    } else {
      auto r = eng_.erase(ik(k), eng_.head(5));
      EXPECT_EQ(r.erased, ref.erase(k) > 0) << "erase " << k;
      if (r.erased) eng_.retire_owned(r);
    }
  }
  // Final contents at level 0 match the reference exactly.
  std::vector<uint64_t> ours;
  for (Node* n = eng_.first_at(0); n != nullptr; n = eng_.next_at(n)) {
    ours.push_back(n->ikey() - 1);
  }
  EXPECT_EQ(ours.size(), ref.size());
  auto it = ref.begin();
  for (size_t i = 0; i < ours.size() && it != ref.end(); ++i, ++it) {
    EXPECT_EQ(ours[i], *it);
  }
}

TEST_F(EngineTest, NodeRecyclingReusesArenaStorage) {
  const int64_t before = arena_.live_blocks();
  {
    EbrDomain::Guard g(ebr_);
    for (int round = 0; round < 500; ++round) {
      ASSERT_TRUE(eng_.insert(ik(round), eng_.head(5), 5).inserted);
      auto r = eng_.erase(ik(round), eng_.head(5));
      ASSERT_TRUE(r.erased);
      eng_.retire_owned(r);
    }
  }
  ebr_.drain();
  // All towers retired and recycled: the arena's live count returns close
  // to the baseline (sentinels only).
  EXPECT_LE(arena_.live_blocks(), before + 8);
}

// The life count a guide reader compares around its read of a node's next
// word (DESIGN.md §3.3): every poison() starts a new life, init() keeps it,
// and the linked bit belongs to one life only.
TEST(NodeLife, PoisonAdvancesLifeAndInitKeepsIt) {
  Node n;
  n.init(6, 0, 0, NodeKind::kInterior, nullptr, nullptr);
  n.set_linked();
  const uint32_t first = n.life();
  n.poison();
  const uint32_t second = n.life();
  EXPECT_NE(second, first);
  EXPECT_FALSE(n.linked());
  n.init(6, 0, 0, NodeKind::kInterior, nullptr, nullptr);
  EXPECT_EQ(n.life(), second);
  EXPECT_FALSE(n.linked());
  EXPECT_EQ(n.level(), 0u);
  EXPECT_EQ(n.kind(), NodeKind::kInterior);
  // The count wraps inside its own bits: kind, level and height survive.
  for (int i = 0; i < 64; ++i) n.poison();
  EXPECT_EQ(n.life(), second);
  n.init(6, 2, 3, NodeKind::kInterior, nullptr, nullptr);
  EXPECT_EQ(n.level(), 2u);
  EXPECT_EQ(n.orig_height(), 3u);
  EXPECT_EQ(n.kind(), NodeKind::kInterior);
}

}  // namespace
}  // namespace skiptrie
