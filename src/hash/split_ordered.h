// Split-ordered lock-free resizable hash table (Shalev & Shavit, 2003).
//
// The SkipTrie stores its x-fast-trie prefix nodes in this table (paper §1,
// §4 "The hash table").  The construction: one lock-free ordered linked list
// holds all items, sorted by the *split-order* key — the bit reversal of the
// item's hash (regular items get the LSB set, bucket dummies keep it clear).
// A lazily-initialized directory of bucket heads points at dummy nodes inside
// the list; doubling the bucket count never moves items ("recursive split
// ordering"), it only adds new dummies, so resizing is lock-free.
//
// Beyond the classic interface we provide:
//  - compareAndDelete(key, expected_value): remove the entry iff it currently
//    maps to expected_value (required by the paper, §4 "The hash table").
//  - insert(..., guard): the linking CAS is performed as a DCSS conditioned
//    on an external guard word (DESIGN.md §3.5(1) — used so a trie entry can
//    never be installed pointing at a marked skiplist node).
//
// The map is a template over KeyTraits (DESIGN.md §6): keys are the traits'
// ikey word (the trie stores encoded prefixes, which need W+1 value bits),
// hashed through Traits::hash_mix into the 64-bit split-order key; values
// stay uint64_t (packed TreeNode pointers) and are immutable per entry.
// Every list node (entries and bucket dummies) lives in a caller-owned
// SlabArena sized for HNode: EBR recycles retired nodes into it, and the
// arena frees what is left when it dies, so it must outlive both the map
// and the EBR domain's pending callbacks (DESIGN.md §3.2).
// `using SplitOrderedMap = BasicSplitOrderedMap<U64Traits>` keeps the
// historical name; U64Traits::hash_mix is the seed's mix64, byte for byte.
// All operations are lock-free and internally pin the EBR domain (reentrant
// with callers' pins).
//
// Size limit: the bucket directory is a fixed array of kMaxSegments
// segments of kSegSize slots, so the table grows to at most kMaxBuckets =
// 2^22 buckets.  Up to 2^22 entries the load factor stays at or below
// kLoadFactor; past that, inserts still succeed but chains lengthen in
// proportion (DESIGN.md §2.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/cacheline.h"
#include "common/key_traits.h"
#include "dcss/dcss.h"
#include "reclaim/arena.h"
#include "reclaim/ebr.h"

namespace skiptrie {

template <typename Traits>
class BasicSplitOrderedMap {
 public:
  using Ikey = typename Traits::ikey_type;

  struct HNode {
    uint64_t so_key;              // split-order key (reversed hash | lsb)
    Ikey key;                     // user key (0 for dummies)
    uint64_t value;               // user value (immutable)
    std::atomic<uint64_t> next;   // tagged word: HNode* | kMark | kDesc
  };

  // ebr is used both for node reclamation and DCSS descriptors; pool
  // supplies every HNode (block size sizeof(HNode), alignment
  // alignof(HNode)).
  BasicSplitOrderedMap(EbrDomain& ebr, SlabArena& pool);
  ~BasicSplitOrderedMap();

  BasicSplitOrderedMap(const BasicSplitOrderedMap&) = delete;
  BasicSplitOrderedMap& operator=(const BasicSplitOrderedMap&) = delete;

  // Insert key -> value.  Returns false if key is already present.
  // When guard != nullptr the linking CAS becomes
  //   DCSS(link, expected, new_node, *guard, guard_expected)
  // and the insert fails (returns false, *guard_failed=true if non-null)
  // when the guard word no longer holds guard_expected.
  bool insert(Ikey key, uint64_t value,
              std::atomic<uint64_t>* guard = nullptr,
              uint64_t guard_expected = 0, bool* guard_failed = nullptr);

  // Lookup.  The list walk itself is read-only — it skips marked nodes
  // rather than helping unlink them (paper §1, choice (2): searches do not
  // eagerly help) — but an uninitialized bucket directory slot IS
  // initialized writer-style (splice the dummy, publish the slot), exactly
  // as in Shalev & Shavit's original.  Without that, a lookup landing on an
  // uninitialized bucket scans every node between the nearest initialized
  // ancestor's dummy and the target position, inflating the probe count far
  // past the O(1)-expected chain walk; initialization is a one-time cost
  // per bucket, amortized O(1).
  std::optional<uint64_t> lookup(Ikey key) const;

  // Hint-only cache prefetch for a later lookup(key), one dependent line per
  // stage (DESIGN.md §2.5): stage 0 fetches the key's directory slot; stage
  // 1 loads the slot and fetches the bucket dummy; stage 2 loads the
  // dummy's next word and fetches the first chain node.  Run the stages of
  // one key in order, a step apart, so each load finds its line already on
  // the way.  Unlike lookup, it initializes no bucket, allocates no segment
  // and counts no probe; it gives up at a missing segment, an empty slot or
  // a descriptor word.  Callers run pinned.
  static constexpr int kPrefetchStages = 3;
  void prefetch(Ikey key, int stage) const;

  // Remove key unconditionally.  Returns the removed value if any.
  std::optional<uint64_t> erase(Ikey key);

  // Remove key iff it currently maps to expected_value (paper's
  // compareAndDelete(p, n)).
  bool compare_and_delete(Ikey key, uint64_t expected_value);

  size_t size() const { return count_.load(std::memory_order_relaxed); }
  size_t bucket_count() const { return buckets_.load(std::memory_order_relaxed); }
  size_t dummy_count() const { return dummies_.load(std::memory_order_relaxed); }

  // Realized load factor: live entries per bucket.  maybe_grow targets
  // load_factor() <= kLoadFactor; exposed so benches can verify the table
  // kept up with prefill bursts.
  double load_factor() const {
    const size_t b = bucket_count();
    return b > 0 ? static_cast<double>(size()) / static_cast<double>(b) : 0.0;
  }

  // Bytes consumed by nodes + directory (space accounting for benches).
  size_t approx_bytes() const;

  // Visit every live (unmarked, regular) entry.  NOT a linearizable
  // snapshot; intended for quiescent teardown and validation.
  template <typename F>
  void for_each(F f) const {
    const HNode* n = list_head_;
    while (n != nullptr) {
      const uint64_t w = n->next.load(std::memory_order_acquire);
      if ((n->so_key & 1ull) != 0 && !is_marked(w)) f(n->key, n->value);
      n = unpack_ptr<HNode>(w);
    }
  }

 private:
  static constexpr size_t kSegBits = 10;
  static constexpr size_t kSegSize = 1ull << kSegBits;
  static constexpr size_t kMaxSegments = 1ull << 12;
  // The directory's geometry and the growth cap: maybe_grow never raises
  // bucket_count() past it, so every bucket index maps to one of the
  // kMaxSegments segments.
  static constexpr size_t kMaxBuckets = kMaxSegments * kSegSize;

 public:
  // Items per bucket before growing.  1 (not the classic 2): the x-fast
  // binary search pays a chain walk per probe, so chain slack multiplies
  // ~log B times per predecessor query; trading directory memory (8 bytes
  // per slot + one dummy per initialized bucket) for half the expected
  // chain length is the right side of the bargain here.
  static constexpr size_t kLoadFactor = 1;

 private:

  using BucketSlot = std::atomic<HNode*>;

  struct FindResult {
    std::atomic<uint64_t>* prev;  // word holding the link to curr
    HNode* curr;                  // first node with (so_key,key) >= target
    uint64_t curr_word;           // link value observed in *prev
  };

  static uint64_t hash_of(Ikey key);
  static uint64_t regular_so_key(Ikey key);
  static uint64_t dummy_so_key(uint64_t bucket);
  static bool node_less(uint64_t a_so, Ikey a_key, uint64_t b_so,
                        Ikey b_key) {
    return a_so < b_so || (a_so == b_so && a_key < b_key);
  }

  // const: callable from lookup() — bucket initialization mutates only the
  // directory and splices a dummy, never a caller-visible entry.
  BucketSlot* slot_for(size_t bucket) const;
  HNode* bucket_head(size_t bucket) const;    // initializes lazily
  HNode* initialize_bucket(size_t bucket) const;
  static size_t parent_bucket(size_t bucket);

  // Harris-style search in the list starting at `head` for (so_key,key);
  // unlinks marked nodes it passes (cleanup=true) or skips them (false).
  FindResult find(HNode* head, uint64_t so_key, Ikey key,
                  bool cleanup) const;

  void maybe_grow();

  // A node built in a pool block; retire_node hands an unlinked one back
  // to the pool after its grace period.
  HNode* make_hnode(uint64_t so_key, Ikey key, uint64_t value) const;
  void retire_node(HNode* n) const;

  EbrDomain& ebr_;
  SlabArena& pool_;
  HNode* list_head_;  // dummy of bucket 0, so_key 0
  mutable std::atomic<BucketSlot*> segments_[kMaxSegments];
  // Every operation reads buckets_; every entry insert and erase and every
  // bucket initialization writes count_ or dummies_.  Its own line keeps
  // those writes from evicting it from readers' caches (DESIGN.md §2.3).
  alignas(kCacheLine) std::atomic<size_t> buckets_{2};
  alignas(kCacheLine) std::atomic<size_t> count_{0};
  mutable std::atomic<size_t> dummies_{0};  // lookup() may initialize buckets
};

// The historical u64 fast-path name.
using SplitOrderedMap = BasicSplitOrderedMap<U64Traits>;

}  // namespace skiptrie
