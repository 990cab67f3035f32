// SkipTrie — low-depth concurrent search without rebalancing.
//
// Public API of the data structure from Oshman & Shavit, PODC 2013: a
// lock-free, linearizable ordered set of B-bit integer keys supporting
//
//   insert(k)        expected amortized O(c · log log u)
//   erase(k)         expected amortized O(c · log log u)
//   predecessor(k)   expected amortized O(log log u + c) — largest key <= k
//   successor(k), strict_predecessor(k), contains(k)
//
// where u = 2^B is the universe size and c the contention (paper Thm. 4.3).
// Internally: a truncated lock-free skiplist of log log u levels whose
// top-level nodes are doubly linked and indexed by a concurrent x-fast trie
// over a split-ordered hash table; every single-key operation is one x-fast
// lowest_ancestor query plus a descent from the node it names (Alg. 5).
// See DESIGN.md for the full inventory.
//
// The structure is a template over KeyTraits (DESIGN.md §6):
// `using SkipTrie = BasicSkipTrie<U64Traits>` is the historical u64 set
// (B = 4..64, seed step counts pinned), while BasicSkipTrie<Bytes16Traits>
// runs the same algorithms over a 128-bit universe whose keys are
// order-preserving encodings of bounded byte strings / IPv6 addresses
// (common/key_codec.h); see examples/ip_router.cpp.
//
// Thread safety: all operations may be called concurrently from any number
// of threads (up to EbrDomain::kMaxThreads distinct threads over the
// structure's lifetime).  Destruction must be externally quiesced, like any
// concurrent container.
//
// Key range: [0, max_key()], i.e. [0, 2^B) for B < Traits::kMaxBits; at
// B = kMaxBits the two largest keys of the universe are reserved for
// sentinels.  Every point operation and batch throws std::out_of_range for
// a key above max_key(), in every build, before touching the structure; the
// range queries instead clip [lo, hi] to [0, max_key()].
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/config.h"
#include "reclaim/arena.h"
#include "reclaim/ebr.h"
#include "skiplist/engine.h"
#include "xfast/xfast_trie.h"

namespace skiptrie {

template <typename Traits>
class BasicSkipTrie {
 public:
  using key_type = typename Traits::key_type;
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Engine = BasicSkipListEngine<Traits>;
  using Trie = BasicXFastTrie<Traits>;

  // Throws std::invalid_argument when cfg.universe_bits is outside
  // [4, Traits::kMaxBits].
  explicit BasicSkipTrie(const Config& cfg = Config{});
  ~BasicSkipTrie() = default;

  BasicSkipTrie(const BasicSkipTrie&) = delete;
  BasicSkipTrie& operator=(const BasicSkipTrie&) = delete;

  // Inserts key; false if already present.  Linearizes at the level-0 link
  // (or at an observation of the key being present).
  bool insert(key_type key);

  // Removes key; false if absent.  Linearizes at the level-0 mark.
  bool erase(key_type key);

  // Membership test (predecessor-query machinery, exact at level 0).
  bool contains(key_type key) const;

  // Largest key' <= key (the paper's predecessor(key), Alg. 5).
  std::optional<key_type> predecessor(key_type key) const;

  // Largest key' < key.
  std::optional<key_type> strict_predecessor(key_type key) const;

  // Smallest key' > key.
  std::optional<key_type> successor(key_type key) const;

  // --- Batched operations (DESIGN.md §3.7, src/core/batch.cpp) -----------
  // Each call sorts the keys and streams them through one DescentCursor,
  // pinning EBR once per batch_detail::kKeysPerPin keys: one full descent
  // for the first key of each pinned chunk, then every key enters at the
  // lowest level where the cursor's bracket still holds — skipping the
  // x-fast lowest_ancestor query and the upper-level walks entirely.
  // Results (when non-null; length n) land in *input* order; the return
  // value is the number of true results (for predecessor_batch: keys that
  // have a predecessor).  Each key linearizes individually, exactly like
  // the single-key operation it shadows — a batch is a performance
  // construct, not an atomic multi-key transaction.  Duplicates are
  // processed in input order.  A key above max_key() throws
  // std::out_of_range before any key is applied.
  size_t insert_batch(const key_type* keys, size_t n,
                      uint8_t* results = nullptr);
  size_t erase_batch(const key_type* keys, size_t n,
                     uint8_t* results = nullptr);
  size_t contains_batch(const key_type* keys, size_t n,
                        uint8_t* results = nullptr) const;
  size_t predecessor_batch(const key_type* keys, size_t n,
                           std::optional<key_type>* results = nullptr) const;

  size_t insert_batch(const std::vector<key_type>& keys,
                      uint8_t* results = nullptr) {
    return insert_batch(keys.data(), keys.size(), results);
  }
  size_t erase_batch(const std::vector<key_type>& keys,
                     uint8_t* results = nullptr) {
    return erase_batch(keys.data(), keys.size(), results);
  }
  size_t contains_batch(const std::vector<key_type>& keys,
                        uint8_t* results = nullptr) const {
    return contains_batch(keys.data(), keys.size(), results);
  }
  size_t predecessor_batch(const std::vector<key_type>& keys,
                           std::optional<key_type>* results = nullptr) const {
    return predecessor_batch(keys.data(), keys.size(), results);
  }

  // Smallest / largest key currently present.
  std::optional<key_type> min_key() const;
  std::optional<key_type> max_key_present() const;

  // Visit every key in [lo, hi] in ascending order.  Weakly consistent
  // under concurrency (like java.util.concurrent iterators): keys inserted
  // or removed during the traversal may or may not be observed, but every
  // key reported was present at some point during the call, in order.
  // The range is clipped to [0, max_key()], so hi may be any key.
  template <typename F>
  void for_each_in_range(key_type lo, key_type hi, F f) const {
    const key_type top = max_key();
    if (hi > top) hi = top;
    if (lo > hi) return;
    EbrDomain::Guard g(ebr_);
    const typename Engine::Bracket b = locate(lo, ikey_of(lo));
    const Ikey xhi = ikey_of(hi);
    for (Node_t* n = b.right;
         n != nullptr && n->kind() == NodeKind::kInterior && n->ikey() <= xhi;
         ) {
      // One read of the next word serves both the mark test and the advance:
      // re-reading would let a concurrent deleter mark the node between the
      // "unmarked" observation and the hop, reporting a key alongside a
      // next-pointer observed only after its node's deletion.
      const uint64_t w = dcss_read(n->next);
      if (!is_marked(w)) f(n->ikey() - Ikey(1));
      n = unpack_ptr<Node_t>(without_tags(w));
    }
  }

  // Number of keys in [lo, hi] (by traversal; weakly consistent).
  size_t count_range(key_type lo, key_type hi) const {
    size_t n = 0;
    for_each_in_range(lo, hi, [&n](key_type) { ++n; });
    return n;
  }

  // Approximate under concurrency; exact when quiescent.
  size_t size() const;

  uint32_t universe_bits() const { return cfg_.universe_bits; }
  key_type max_key() const;

  // --- Introspection for tests and benchmarks ---
  struct StructureStats {
    size_t keys = 0;              // interior nodes at level 0
    size_t level_counts[Engine::kMaxLevels + 1] = {};
    size_t top_count = 0;         // nodes at the top level
    size_t trie_entries = 0;      // prefix hash entries
    double avg_top_gap = 0.0;     // mean #keys strictly between top nodes
    size_t max_top_gap = 0;
    size_t arena_bytes = 0;
    size_t trie_bytes = 0;
    size_t hash_buckets = 0;      // split-ordered directory size
    size_t hash_dummies = 0;      // bucket dummy nodes spliced into the list
    double hash_load_factor = 0;  // trie_entries / hash_buckets (target <= 2)
  };
  // Quiescent-only walk of the structure.
  StructureStats structure_stats() const;

  // Always empty: the structure has no leaf chunks.  Kept only for
  // perfbench's per-layer report, which still reads it.
  LeafLiveStats leaf_live_stats() const { return {}; }

  // Cheap atomic structural totals, safe to sample mid-run from any thread.
  // perfbench's per-layer report reads top_count.
  StructureLiveStats structure_live_stats() const {
    StructureLiveStats s;
    s.keys = size();
    s.top_count = top_live_.load(std::memory_order_relaxed);
    return s;
  }

  // Internal components, exposed for white-box tests and benchmarks.
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  Trie& trie() { return trie_; }
  const Trie& trie() const { return trie_; }
  EbrDomain& ebr() const { return ebr_; }
  const Config& config() const { return cfg_; }

 private:
  Ikey ikey_of(key_type key) const { return key + Ikey(1); }
  // Throws std::out_of_range when key > max_key(), in every build: such a
  // key's ikey aliases the tail sentinel's (B = kMaxBits) or lands outside
  // the universe the trie indexes (B < kMaxBits).
  void check_key(key_type key) const;
  // Seed-stable tower height for ikey x (DESIGN.md §3.7): derived from
  // (cfg_.seed, x) alone, so step counts are cell-comparable across runs
  // regardless of thread start order.  The ikey folds through the traits'
  // height_mix — for U64Traits exactly the seed's draw.
  uint32_t tower_height(Ikey x) const;
  // The read path of every single-key query (Alg. 5): the x-fast
  // pred_start, then the engine's descent from it.  Must be called with
  // ebr_ pinned.
  typename Engine::Bracket locate(key_type key, Ikey x) const;

  // Lazy x-fast start for the engine's cursor entry points: only invoked
  // when the batch cursor has no usable bracket, so reused seeks pay zero
  // hash probes (DESIGN.md §3.7).
  struct TrieStartEnv {
    Trie* trie;
    key_type key;
  };
  static Node_t* trie_start(void* env, Ikey x);

  // Post-descent bodies shared by the single-key and batched write paths:
  // size accounting plus the Alg. 6/7 trie sweeps.
  bool finish_insert(key_type key, const typename Engine::InsertResult& r);
  bool finish_erase(key_type key, const typename Engine::EraseResult& r);

  Config cfg_;
  // Destruction order (reverse of declaration) matters: ~EbrDomain runs
  // every registered thread's pending callbacks, which recycle skiplist
  // nodes into arena_, TreeNodes into tree_pool_ and HNodes into
  // hash_pool_, so all three are declared before ebr_ (destroyed after it;
  // DESIGN.md §3.2).
  mutable SlabArena arena_;
  mutable SlabArena tree_pool_;
  mutable SlabArena hash_pool_;
  mutable EbrDomain ebr_;
  mutable Engine engine_;
  mutable Trie trie_;
  std::atomic<int64_t> size_{0};
  // Towers currently at the top level (mid-run sampling; maintained by
  // finish_insert/finish_erase).
  std::atomic<uint64_t> top_live_{0};
};

// The historical u64 fast-path name.
using SkipTrie = BasicSkipTrie<U64Traits>;

}  // namespace skiptrie
