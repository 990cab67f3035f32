#include "xfast/xfast_trie.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.h"
#include "common/key_traits.h"

namespace skiptrie {
namespace {

// Fixture: B = 8 (small universe so prefix structure is easy to enumerate),
// engine top level = ceil(log2 8) = 3.  TYPED over both shipped key traits
// (DESIGN.md §6): the prefix walks, encodes and pointer swings run in the
// traits' ikey word, so the same assertions pin the 64-bit fast path and
// the 128-bit wide path.
template <typename Traits>
class XFastTest : public ::testing::Test {
 protected:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using HNode = typename BasicSplitOrderedMap<Traits>::HNode;
  static constexpr uint32_t kBits = 8;

  XFastTest()
      : arena_(sizeof(Node_t), kCacheLine, 1024),
        tree_pool_(sizeof(TreeNode), alignof(TreeNode)),
        hash_pool_(sizeof(HNode), alignof(HNode)),
        eng_(ebr_, arena_, ceil_log2(kBits)),
        trie_(ebr_, eng_, kBits, tree_pool_, hash_pool_) {}

  static Ikey ik(uint64_t k) { return Ikey(k + 1); }

  // Insert a key at full height and register its prefixes.
  Node_t* add(uint64_t k) {
    EbrDomain::Guard g(ebr_);
    const auto r = eng_.insert(ik(k), eng_.head(eng_.top_level()),
                               eng_.top_level());
    EXPECT_TRUE(r.inserted);
    EXPECT_NE(r.top, nullptr);
    trie_.insert_prefixes(Ikey(k), r.top);
    return r.top;
  }

  void remove(uint64_t k) {
    EbrDomain::Guard g(ebr_);
    auto r = eng_.erase(ik(k), eng_.head(eng_.top_level()));
    ASSERT_TRUE(r.erased);
    ASSERT_NE(r.top, nullptr);
    trie_.remove_prefixes(Ikey(k), r.top, r.top_left);
    eng_.retire_owned(r);
  }

  // The arena and pools are declared before ebr_: ~EbrDomain recycles
  // retired nodes into them.
  SlabArena arena_;
  SlabArena tree_pool_;
  SlabArena hash_pool_;
  EbrDomain ebr_;
  BasicSkipListEngine<Traits> eng_;
  BasicXFastTrie<Traits> trie_;
};

using XfTraits = ::testing::Types<U64Traits, Bytes16Traits>;
TYPED_TEST_SUITE(XFastTest, XfTraits);

TYPED_TEST(XFastTest, EmptyTrieHasOnlyRoot) {
  EXPECT_EQ(this->trie_.entry_count(), 1u);  // the permanent epsilon entry
  EbrDomain::Guard g(this->ebr_);
  auto* s = this->trie_.pred_start(typename TestFixture::Ikey(100),
                                   this->ik(100));
  // falls back to the head
  EXPECT_EQ(s, this->eng_.head(this->eng_.top_level()));
}

TYPED_TEST(XFastTest, InsertAddsAllPrefixLevels) {
  this->add(0b10110100);
  // Every proper prefix (lengths 0..7) must now exist: root + 7 more.
  EXPECT_EQ(this->trie_.entry_count(), 1u + (TestFixture::kBits - 1));
}

TYPED_TEST(XFastTest, SharedPrefixesAreNotDuplicated) {
  this->add(0b10110100);
  this->add(0b10110111);  // shares first 6 bits
  // lcp = 6: entries = root + 7 (first key) + 1 (second key's length-7).
  EXPECT_EQ(this->trie_.entry_count(), 1u + 7u + 1u);
}

TYPED_TEST(XFastTest, PredStartLandsAtOrBeforeKey) {
  using Ikey = typename TestFixture::Ikey;
  this->add(10);
  this->add(100);
  this->add(200);
  EbrDomain::Guard g(this->ebr_);
  for (uint64_t q : {5, 10, 50, 100, 150, 200, 255}) {
    auto* s = this->trie_.pred_start(Ikey(q), this->ik(q));
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->ikey() < this->ik(q)) << "query " << q;
  }
  // A query above every key should land on the largest key (200), not just
  // the head: the trie must actually be useful.
  auto* s = this->trie_.pred_start(Ikey(255), this->ik(255));
  EXPECT_TRUE(s->ikey() == this->ik(200));
}

TYPED_TEST(XFastTest, PredStartUsesClosestCandidate) {
  using Ikey = typename TestFixture::Ikey;
  this->add(100);
  this->add(101);
  this->add(102);
  EbrDomain::Guard g(this->ebr_);
  auto* s = this->trie_.pred_start(Ikey(102), this->ik(102));
  // The binary search should land exactly on 101 (predecessor of 102 among
  // top nodes), not a distant key.
  EXPECT_TRUE(s->ikey() == this->ik(101));
}

TYPED_TEST(XFastTest, RemoveDeletesPrefixesOfLoneKey) {
  using Ikey = typename TestFixture::Ikey;
  this->add(0b10110100);
  ASSERT_EQ(this->trie_.entry_count(), 1u + 7u);
  this->remove(0b10110100);
  EXPECT_EQ(this->trie_.entry_count(), 1u);  // only the root remains
  // Root pointers must no longer reference the removed key.
  EbrDomain::Guard g(this->ebr_);
  auto* s = this->trie_.pred_start(Ikey(0xff), this->ik(0xff));
  EXPECT_EQ(s, this->eng_.head(this->eng_.top_level()));
}

TYPED_TEST(XFastTest, RemoveKeepsSharedPrefixes) {
  using Ikey = typename TestFixture::Ikey;
  this->add(0b10110100);
  this->add(0b10110111);
  this->remove(0b10110111);
  // All of key A's prefixes must survive and still cover A.
  EXPECT_EQ(this->trie_.entry_count(), 1u + 7u);
  EbrDomain::Guard g(this->ebr_);
  auto* s = this->trie_.pred_start(Ikey(0b10110110), this->ik(0b10110110));
  EXPECT_TRUE(s->ikey() == this->ik(0b10110100));
}

TYPED_TEST(XFastTest, ReAddAfterRemoveRestoresCoverage) {
  using Ikey = typename TestFixture::Ikey;
  this->add(42);
  this->remove(42);
  this->add(42);
  EbrDomain::Guard g(this->ebr_);
  auto* s = this->trie_.pred_start(Ikey(43), this->ik(43));
  EXPECT_TRUE(s->ikey() == this->ik(42));
}

TYPED_TEST(XFastTest, InsertPrefixesStopsForMarkedNode) {
  using Ikey = typename TestFixture::Ikey;
  EbrDomain::Guard g(this->ebr_);
  const auto r = this->eng_.insert(this->ik(7),
                                   this->eng_.head(this->eng_.top_level()),
                                   this->eng_.top_level());
  ASSERT_NE(r.top, nullptr);
  // Mark the node before registering prefixes: nothing may be added.
  uint64_t w = r.top->next.load();
  r.top->back.store(this->eng_.head(this->eng_.top_level()));
  ASSERT_TRUE(r.top->next.compare_exchange_strong(w, with_mark(w)));
  const size_t before = this->trie_.entry_count();
  this->trie_.insert_prefixes(Ikey(7), r.top);
  EXPECT_EQ(this->trie_.entry_count(), before);
}

TYPED_TEST(XFastTest, PointersCoverExtremes) {
  using Ikey = typename TestFixture::Ikey;
  using Node_t = typename TestFixture::Node_t;
  // pointers[0] of a prefix must reach the LARGEST key in the 0-subtree,
  // pointers[1] the SMALLEST in the 1-subtree.  Keys 0b10 and 0b11 share
  // the length-7 prefix 0000001 and split on the final bit.
  this->add(0b00000010);
  this->add(0b00000011);
  EbrDomain::Guard g(this->ebr_);
  const auto found = this->trie_.map().lookup(
      TypeParam::encode_prefix(Ikey(0b00000010), 7, TestFixture::kBits));
  ASSERT_TRUE(found.has_value());
  auto* tn = reinterpret_cast<TreeNode*>(*found);
  Node_t* p0 = unpack_ptr<Node_t>(tn->ptrs[0].load());
  Node_t* p1 = unpack_ptr<Node_t>(tn->ptrs[1].load());
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_TRUE(p0->ikey() == this->ik(0b00000010));
  EXPECT_TRUE(p1->ikey() == this->ik(0b00000011));

  // One level up (length 6, prefix 000000) both keys sit in the 1-subtree:
  // pointers[1] must name the SMALLEST of them.
  const auto found6 = this->trie_.map().lookup(
      TypeParam::encode_prefix(Ikey(0b00000010), 6, TestFixture::kBits));
  ASSERT_TRUE(found6.has_value());
  auto* tn6 = reinterpret_cast<TreeNode*>(*found6);
  Node_t* q1 = unpack_ptr<Node_t>(tn6->ptrs[1].load());
  ASSERT_NE(q1, nullptr);
  EXPECT_TRUE(q1->ikey() == this->ik(0b00000010));
}

TYPED_TEST(XFastTest, ManyKeysPredStartIsValidAndDescendsToTruth) {
  using Ikey = typename TestFixture::Ikey;
  std::vector<uint64_t> keys = {3, 17, 45, 46, 99, 128, 129, 200, 254};
  for (uint64_t k : keys) this->add(k);
  EbrDomain::Guard g(this->ebr_);
  for (uint64_t q = 0; q < 256; ++q) {
    const Ikey x = this->ik(q) + Ikey(1);  // inclusive bound
    auto* s = this->trie_.pred_start(Ikey(q), x);
    // Expected: the largest key <= q, or head (ikey 0) when none exists.
    Ikey expect_ik = Ikey(0);
    for (uint64_t k : keys) {
      if (k <= q) expect_ik = this->ik(k);
    }
    // The start is a guide: it must be at or before the true predecessor
    // (prev pointers may lag, paper §3), never beyond it.
    EXPECT_TRUE(s->ikey() <= expect_ik) << "q=" << q;
    EXPECT_TRUE(s->ikey() < x);
    // And descending from it must land exactly on the true predecessor.
    const auto b = this->eng_.descend(x, s);
    EXPECT_TRUE(b.left->ikey() == expect_ik) << "q=" << q;
  }
}

TYPED_TEST(XFastTest, EntryCountReturnsToRootAfterFullChurn) {
  for (uint64_t k = 0; k < 64; ++k) this->add(k * 4);
  for (uint64_t k = 0; k < 64; ++k) this->remove(k * 4);
  EXPECT_EQ(this->trie_.entry_count(), 1u);
}

}  // namespace
}  // namespace skiptrie
