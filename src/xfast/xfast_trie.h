// Concurrent x-fast trie (paper §4, Algorithms 3-7).
//
// A hash table (split-ordered, lock-free) maps every prefix of every
// top-level skiplist key to a TreeNode carrying pointers to the extreme
// top-level nodes of the prefix's two subtrees.  Predecessor queries binary
// search on prefix length (LowestAncestor, Alg. 3), then walk the top-level
// doubly-linked list leftwards (xFastTriePred, Alg. 4).  Inserts add
// prefixes bottom-up (Alg. 6), deletes sweep top-down (Alg. 7); both use
// DCSS so that no pointer can be installed onto a marked node, and the hash
// insert of a fresh TreeNode is guarded the same way (DESIGN.md §3.5(1)).
//
// The trie is a template over KeyTraits (DESIGN.md §6): prefix encoding,
// bit extraction and the |ikey - x| candidate metric all route through the
// traits, so the same Algorithms 3-7 run over W = 64 (seed behavior,
// `using XFastTrie = BasicXFastTrie<U64Traits>`) and W = 128 byte-string
// universes.  TreeNode stays two tagged 64-bit pointer words either way.
//
// All methods must run under an EbrDomain::Guard (reentrant; the SkipTrie
// wrapper pins once per public operation).
//
// TreeNodes and the map's HNodes come from two caller-owned SlabArenas;
// both must outlive the trie and the EBR domain (DESIGN.md §3.2).
#pragma once

#include <cstdint>

#include "hash/split_ordered.h"
#include "skiplist/engine.h"
#include "xfast/tree_node.h"

namespace skiptrie {

template <typename Traits>
class BasicXFastTrie {
 public:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Engine = BasicSkipListEngine<Traits>;
  using Map = BasicSplitOrderedMap<Traits>;

  // bits: B = log2(universe size), 4..Traits::kMaxBits.  tree_pool holds
  // TreeNodes, hash_pool the map's HNodes (each sized with sizeof/alignof).
  BasicXFastTrie(DcssContext ctx, Engine& engine, uint32_t bits,
                 SlabArena& tree_pool, SlabArena& hash_pool);

  BasicXFastTrie(const BasicXFastTrie&) = delete;
  BasicXFastTrie& operator=(const BasicXFastTrie&) = delete;

  uint32_t bits() const { return bits_; }

  // Algorithms 3+4: find a top-level-ish start node with ikey < x.
  // `key` supplies the prefix bits for the binary search; `x` is the
  // internal-key search bound.  Never returns null (head fallback).
  Node_t* pred_start(Ikey key, Ikey x);

  // Algorithm 6 lines 5-20: insert the prefixes of `key`, pointing at the
  // (top-level) skiplist node `node`.  Stops as soon as node is marked.
  void insert_prefixes(Ikey key, Node_t* node);

  // Algorithm 7 lines 5-22: remove every trie reference to `node` (already
  // marked and unlinked).  `top_left_hint` is a top-level left hint from the
  // delete's successor repair.
  void remove_prefixes(Ikey key, Node_t* node, Node_t* top_left_hint);

  // Number of prefix entries currently in the hash table.
  size_t entry_count() const { return map_.size(); }
  size_t approx_bytes() const;

  const Map& map() const { return map_; }

 private:
  Node_t* lowest_ancestor(Ikey key, Ikey x);

  // One level of Alg. 6: make the entry for prefix `p` cover `node` in
  // direction `d`.  Returns false if node was marked (insert abandons the
  // climb; the deleter owns cleanup).  See DESIGN.md §3.5(3) for the entry
  // life cycle this participates in.
  bool cover_level(Ikey p, uint32_t len, uint64_t d, Node_t* node);

  // One level of Alg. 7: swing the entry for prefix `p` off `node`, clear
  // empty subtrees, and kill the entry when both sides are empty.
  void sweep_level(Ikey p, uint32_t len, uint64_t d, Ikey x, Node_t* node,
                   Node_t*& left_hint);

  // Tombstone-based entry removal (DESIGN.md §3.5(3)): condemn ptrs[0]
  // (0 -> kMark, DCSS-guarded on ptrs[1] == 0), then ptrs[1], then unlink
  // from the hash table.  Returns false if a side is live (not killable).
  bool kill_entry(Ikey p, TreeNode* tn);

  TreeNode* make_tree_node();

  DcssContext ctx_;  // caller's context (EBR domain; mode governs the engine)
  // ALL trie maintenance (swings, entry life cycle, the hash table's guarded
  // insert) uses real DCSS even under DcssMode::kCasFallback: the fallback
  // ablation applies to the skiplist engine's structural guards, where
  // staleness is repaired lazily — but the quiescent trie-coverage invariant
  // (checked by validate_structure in both modes) cannot survive unguarded
  // swings, and entry death/installation atomicity keeps writes from being
  // lost.  See DESIGN.md §3.1 and §3.5(3).
  DcssContext strict_ctx_;
  Engine& engine_;
  const uint32_t bits_;
  SlabArena& tree_pool_;
  Map map_;
  TreeNode* root_;  // entry for the empty prefix; never deleted
};

// The historical u64 fast-path name.
using XFastTrie = BasicXFastTrie<U64Traits>;

}  // namespace skiptrie
