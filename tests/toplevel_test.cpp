// Top-level doubly-linked list tests, including a deterministic
// reproduction of the paper's Figure 2 scenario.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "skiplist/engine.h"

namespace skiptrie {
namespace {

class TopLevelTest : public ::testing::Test {
 protected:
  TopLevelTest()
      : arena_(sizeof(Node), kCacheLine, 1024),
        ctx_{&ebr_, DcssMode::kDcss},
        eng_(ctx_, arena_, 2) {}  // small engine; top level = 2

  static uint64_t ik(uint64_t k) { return k + 1; }

  Node* insert_top(uint64_t k) {
    const auto r = eng_.insert(ik(k), eng_.head(2), 2);
    EXPECT_TRUE(r.inserted);
    EXPECT_NE(r.top, nullptr);
    return r.top;
  }

  // Linear scan for the key's live node at `lvl` (nullptr if absent).
  Node* find_at(uint64_t k, uint32_t lvl) {
    for (Node* n = eng_.first_at(lvl); n != nullptr; n = eng_.next_at(n)) {
      if (n->ikey() == ik(k)) return n;
    }
    return nullptr;
  }

  SlabArena arena_;
  EbrDomain ebr_;
  DcssContext ctx_;
  SkipListEngine eng_;
};

TEST_F(TopLevelTest, FixPrevInstallsPredecessor) {
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* b = insert_top(20);
  // insert() already ran fixPrev; b.prev must be a, a.prev must be head.
  EXPECT_EQ(unpack_ptr<Node>(b->prevw.load()), a);
  EXPECT_EQ(unpack_ptr<Node>(a->prevw.load()), eng_.head(2));
  EXPECT_TRUE(a->ready());
  EXPECT_TRUE(b->ready());
}

TEST_F(TopLevelTest, Figure2Scenario) {
  // Paper Fig. 2: list contains 1 and 7; insert(5) links forward but is
  // "preempted" before fixing 7.prev; then 2 and 3 are inserted.  The
  // backwards chain must still name node 1, the forward chain must be
  // complete, and completing insert(5)'s fixPrev must repair 7.prev.
  EbrDomain::Guard g(ebr_);
  Node* n1 = insert_top(1);
  Node* n7 = insert_top(7);
  ASSERT_EQ(unpack_ptr<Node>(n7->prevw.load()), n1);

  // Hand-link node 5 at the top level the way insert() would, but stop
  // before fixPrev (the "preempted" thread).
  const auto r5 = [&] {
    // Build the tower below top manually through the engine: height 1 then
    // raise by linking a top node without fix_prev.
    auto res = eng_.insert(ik(5), eng_.head(2), 1);
    EXPECT_TRUE(res.inserted);
    Node* below = eng_.first_at(1);
    while (below != nullptr && below->ikey() != ik(5)) {
      below = eng_.next_at(below);
    }
    EXPECT_NE(below, nullptr);
    Node* top5 = eng_.make_node(ik(5), 2, 2, below, res.root);
    auto b = eng_.list_search(ik(5), eng_.head(2), 2);
    top5->next.store(pack_ptr(b.right), std::memory_order_relaxed);
    EXPECT_TRUE(counted_cas(b.left->next, pack_ptr(b.right), pack_ptr(top5)));
    return top5;
  }();

  // 7.prev still points at 1: the Fig. 2 gap.
  ASSERT_EQ(unpack_ptr<Node>(n7->prevw.load()), n1);

  // Concurrent inserts of 2 and 3 complete fully (their fixPrev touches
  // 2.prev/3.prev and their successor's 5.prev, not 7.prev).
  Node* n2 = insert_top(2);
  Node* n3 = insert_top(3);
  EXPECT_EQ(unpack_ptr<Node>(n2->prevw.load()), n1);
  EXPECT_EQ(unpack_ptr<Node>(n3->prevw.load()), n2);
  // The backward gap persists: 7.prev == 1 while the forward chain is
  // 1 -> 2 -> 3 -> 5 -> 7.
  EXPECT_EQ(unpack_ptr<Node>(n7->prevw.load()), n1);
  Node* fwd = n1;
  for (uint64_t expect : {2, 3, 5, 7}) {
    fwd = unpack_ptr<Node>(dcss_read(fwd->next));
    ASSERT_NE(fwd, nullptr);
    EXPECT_EQ(fwd->ikey(), ik(expect));
  }

  // A query from node 7 searching for 6 must still find 5 by walking
  // forward from 7.prev (the paper's recovery): bracket via walk_left.
  Node* start = eng_.walk_left(ik(6), n7);
  EXPECT_LT(start->ikey(), ik(6));
  auto b = eng_.list_search(ik(6), start, 2);
  EXPECT_EQ(b.left->ikey(), ik(5));
  EXPECT_EQ(b.right->ikey(), ik(7));

  // insert(5) resumes: fixPrev repairs 7.prev and 5.prev.
  eng_.fix_prev(n3, r5);
  EXPECT_EQ(unpack_ptr<Node>(r5->prevw.load()), n3);
  eng_.fix_prev(r5, n7);
  EXPECT_EQ(unpack_ptr<Node>(n7->prevw.load()), r5);
}

TEST_F(TopLevelTest, InsertRepairsSuccessorPrev) {
  // Figure 2's last step, done by insert itself: linking 20 between 10 and
  // 30 must move 30.prev from 10 to 20 (DESIGN.md §3.5(7)).
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* c = insert_top(30);
  ASSERT_EQ(unpack_ptr<Node>(c->prevw.load()), a);
  Node* b = insert_top(20);
  EXPECT_EQ(unpack_ptr<Node>(b->prevw.load()), a);
  EXPECT_EQ(unpack_ptr<Node>(c->prevw.load()), b);
  EXPECT_TRUE(c->ready());
}

TEST_F(TopLevelTest, DeleteRepairsSuccessorPrev) {
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* b = insert_top(20);
  Node* c = insert_top(30);
  ASSERT_EQ(unpack_ptr<Node>(c->prevw.load()), b);
  auto r = eng_.erase(ik(20), eng_.head(2));
  ASSERT_TRUE(r.erased);
  EXPECT_EQ(r.top, b);
  // Successor's prev must no longer point at the deleted node.
  EXPECT_EQ(unpack_ptr<Node>(c->prevw.load()), a);
  // Deleted node's prev word carries the mirrored mark.
  EXPECT_TRUE(is_marked(b->prevw.load()));
  eng_.retire_owned(r);
}

TEST_F(TopLevelTest, MakeDonePropagatesMark) {
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* b = insert_top(20);
  // Mark b's next by hand (mid-deletion state) without updating prevw.
  uint64_t w = b->next.load();
  b->back.store(a);
  ASSERT_TRUE(b->next.compare_exchange_strong(w, with_mark(w)));
  ASSERT_FALSE(is_marked(b->prevw.load()));
  eng_.make_done(a, b);
  EXPECT_TRUE(is_marked(b->prevw.load()));
}

TEST_F(TopLevelTest, MakeDoneRepairsPrevOfLiveNode) {
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* b = insert_top(20);
  // Corrupt b.prev to head (stale guide), then make_done must repair it.
  b->prevw.store(pack_ptr(eng_.head(2)));
  eng_.make_done(a, b);
  EXPECT_EQ(unpack_ptr<Node>(b->prevw.load()), a);
}

TEST_F(TopLevelTest, FixPrevOnMarkedNodeGivesUpButSetsReady) {
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* b = insert_top(20);
  uint64_t w = b->next.load();
  b->back.store(a);
  ASSERT_TRUE(b->next.compare_exchange_strong(w, with_mark(w)));
  b->meta.fetch_and(~Node::kReadyBit);
  eng_.fix_prev(a, b);  // must terminate without touching prev
  EXPECT_TRUE(b->ready());
}

TEST_F(TopLevelTest, WalkLeftCrossesMarkedViaBack) {
  EbrDomain::Guard g(ebr_);
  Node* a = insert_top(10);
  Node* b = insert_top(20);
  insert_top(30);
  // Mark b; its back points to a.
  uint64_t w = b->next.load();
  b->back.store(a);
  ASSERT_TRUE(b->next.compare_exchange_strong(w, with_mark(w)));
  // Walking left from b for a bound below b must use back, not prev.
  Node* res = eng_.walk_left(ik(15), b);
  EXPECT_EQ(res, a);
}

TEST_F(TopLevelTest, WalkLeftRejectsLowerLevelGuide) {
  // A prev guide whose target block was recycled into a level-0 node with a
  // smaller key passes every kind/linked/ikey screen.  walk_left must still
  // not hand it out: a descent from it would walk its whole level.
  EbrDomain::Guard g(ebr_);
  insert_top(10);
  Node* b = insert_top(30);
  const auto low = eng_.insert(ik(20), eng_.head(2), 0);
  ASSERT_TRUE(low.inserted);
  ASSERT_TRUE(low.root->anchorable());
  ASSERT_EQ(low.root->level(), 0u);
  b->prevw.store(pack_ptr(low.root));
  Node* res = eng_.walk_left(ik(25), b);
  EXPECT_NE(res, low.root);
  EXPECT_TRUE(res == eng_.head(2) || res->level() == 2u);
  EXPECT_LT(res->ikey(), ik(25));
}

TEST_F(TopLevelTest, ConcurrentInsertsKeepPrevChainConsistent) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPer = 300;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      EbrDomain::Guard g(ebr_);
      for (uint64_t i = 0; i < kPer; ++i) {
        eng_.insert(ik(1 + i * kThreads + t), eng_.head(2), 2);
      }
    });
  }
  for (auto& th : ts) th.join();
  // Quiescent check: every top-level node's prev names its exact live
  // predecessor OR an earlier node (guides may lag but never lie forward).
  EbrDomain::Guard g(ebr_);
  Node* prev = nullptr;
  for (Node* n = eng_.first_at(2); n != nullptr; n = eng_.next_at(n)) {
    Node* p = unpack_ptr<Node>(n->prevw.load());
    if (p != nullptr) {
      EXPECT_LT(p->ikey(), n->ikey());
    }
    if (prev != nullptr) {
      EXPECT_LT(prev->ikey(), n->ikey());
    }
    prev = n;
  }
}

}  // namespace
}  // namespace skiptrie
