// Tests for the structural validator itself: it must accept every legal
// state and reject each class of corruption it claims to detect.
#include "core/validate.h"

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/random.h"
#include "xfast/tree_node.h"

namespace skiptrie {
namespace {

Config cfg(uint32_t bits = 16) {
  Config c;
  c.universe_bits = bits;
  return c;
}

TEST(Validate, EmptyStructureIsValid) {
  SkipTrie t(cfg());
  EXPECT_TRUE(validate_structure(t).empty());
}

TEST(Validate, PopulatedStructureIsValid) {
  SkipTrie t(cfg());
  Xoshiro256 rng(1);
  for (int i = 0; i < 5000; ++i) t.insert(rng.next_below(1u << 14));
  EXPECT_TRUE(validate_structure(t).empty());
}

TEST(Validate, DetectsOutOfOrderLevelList) {
  SkipTrie t(cfg());
  t.insert(100);
  t.insert(200);
  // Corrupt: swap the level-0 ordering by editing a key in place.
  EbrDomain::Guard g(t.ebr());
  Node* first = t.engine().first_at(0);
  ASSERT_NE(first, nullptr);
  first->ikey_.store(500 + 1, std::memory_order_relaxed);
  const auto errors = validate_structure(t);
  EXPECT_FALSE(errors.empty());
  // Repair so teardown walks a sane structure.
  first->ikey_.store(100 + 1, std::memory_order_relaxed);
}

TEST(Validate, DetectsBrokenTowerRootLink) {
  SkipTrie t(cfg());
  // Force a tall tower by inserting until one reaches level >= 1.
  Xoshiro256 rng(3);
  for (int i = 0; i < 64; ++i) t.insert(i);
  EbrDomain::Guard g(t.ebr());
  Node* n1 = t.engine().first_at(1);
  ASSERT_NE(n1, nullptr);
  Node* saved = n1->root();
  n1->root_.store(n1, std::memory_order_relaxed);  // bogus self-root
  EXPECT_FALSE(validate_structure(t).empty());
  n1->root_.store(saved, std::memory_order_relaxed);
  EXPECT_TRUE(validate_structure(t).empty());
}

TEST(Validate, DetectsDanglingTriePointer) {
  SkipTrie t(cfg(8));
  // Fill the whole 8-bit universe so some keys certainly reach the top
  // level and populate the trie.
  for (uint64_t k = 0; k < 256; ++k) t.insert(k);
  ASSERT_TRUE(validate_structure(t).empty());
  // Corrupt some entry's non-null pointer to the tail sentinel (never a
  // valid trie target).
  EbrDomain::Guard g(t.ebr());
  std::atomic<uint64_t>* victim = nullptr;
  uint64_t saved = 0;
  t.trie().map().for_each([&](uint64_t enc, uint64_t v) {
    if (victim != nullptr || enc == 1) return;  // skip the root entry
    auto* tn = reinterpret_cast<TreeNode*>(v);
    for (int d = 0; d < 2; ++d) {
      const uint64_t w = tn->ptrs[d].load();
      if (w != 0) {
        victim = &tn->ptrs[d];
        saved = w;
        return;
      }
    }
  });
  ASSERT_NE(victim, nullptr);
  victim->store(pack_ptr(t.engine().tail()));
  EXPECT_FALSE(validate_structure(t).empty());
  victim->store(saved);
  EXPECT_TRUE(validate_structure(t).empty());
}

TEST(Validate, DetectsMissingPrefixCoverage) {
  SkipTrie t(cfg(8));
  for (uint64_t k = 0; k < 256; ++k) t.insert(k);
  ASSERT_TRUE(validate_structure(t).empty());
  // Remove a top key's prefix entry behind the structure's back: the
  // coverage sweep must notice the gap.
  EbrDomain::Guard g(t.ebr());
  Node* topnode = t.engine().first_at(t.engine().top_level());
  ASSERT_NE(topnode, nullptr);
  const uint64_t key = topnode->ikey() - 1;
  auto& map = const_cast<SplitOrderedMap&>(t.trie().map());
  const uint64_t enc = encode_prefix(key, 7, 8);
  const auto found = map.lookup(enc);
  ASSERT_TRUE(found.has_value());
  ASSERT_TRUE(map.compare_and_delete(enc, *found));
  EXPECT_FALSE(validate_structure(t).empty());
  // The orphaned TreeNode's block stays in the trie's pool, which frees it
  // with the structure.
}

TEST(Validate, AcceptsBothDcssModesAfterChurn) {
  for (const DcssMode mode : {DcssMode::kDcss, DcssMode::kCasFallback}) {
    Config c = cfg();
    c.dcss_mode = mode;
    SkipTrie t(c);
    Xoshiro256 rng(7);
    for (int i = 0; i < 4000; ++i) {
      const uint64_t k = rng.next_below(2048);
      if (rng.next() & 1) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
    EXPECT_TRUE(validate_structure(t).empty());
  }
}

}  // namespace
}  // namespace skiptrie
