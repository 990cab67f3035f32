// Sharded SkipTrie engine (DESIGN.md §4.1, §4.3).
//
// Partitions the B-bit key universe by the top log2(N) bits into N
// independent SkipTrie shards.  Shard s owns exactly the keys whose top
// bits equal s and stores them *low-bits only* in a SkipTrie over a
// (B - log2 N)-bit universe, so every shard keeps the truncated-skiplist
// depth bound of its own (smaller) universe.  Each shard owns the full
// per-structure stack — node arena and pools, EbrDomain, engine (and with
// it a unique cursor owner id, hence per-shard thread-local cursor state)
// — so shards share *no* mutable memory: operations on different shards
// never contend.
//
// Routing (DESIGN.md §4.1): shard_of(k) = k >> (B - log2 N) and
// low_of(k) = k & (2^(B - log2 N) - 1); both are bijective on
// (shard, low) pairs, so no two distinct keys collide and every key has
// exactly one home.  N = 1 is a strict pass-through to one SkipTrie with
// the caller's exact Config — same step counts, same counters — which is
// how the shard_test pins equivalence and how bench cells at shards=1
// reproduce the unsharded engine.
//
// Like the whole stack below it, the engine is templated on KeyTraits
// (DESIGN.md §6): the routing shifts/masks run in the traits' ikey word, so
// a Bytes16Traits engine splits its 128-bit universe by the top bits of the
// *encoded* key (for the IPv6 codec that means the top address bytes —
// locality-preserving routing for free).  `ShardedEngine` remains the u64
// alias every existing caller compiles against.
//
// Single-key ordered queries fall back across shards: a predecessor query
// that comes up empty in its home shard takes the largest key of the
// nearest non-empty lower shard (symmetrically for successor).  Each
// probe is a linearizable query on one shard, but the composition is only
// sequentially consistent per operation — under concurrent writes to
// *other* shards the combined answer reflects a slightly earlier state of
// those shards, the same weak-consistency class as for_each_in_range.
// Quiescent answers are exact, which is what the tests rely on.
//
// Batched operations run the split/merge protocol (DESIGN.md §4.3): sort
// the batch (the PR 5 contract already does), slice the sorted stream
// into contiguous per-shard runs — the top-bits routing makes shard runs
// contiguous in sorted order for free — execute each run as one sub-batch
// on its shard (one DescentCursor stream per shard, already-sorted fast
// path, stable duplicate order preserved), and scatter results back to
// input positions.  Sub-batches are counted in steps.shard_batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/skiptrie.h"

namespace skiptrie {

template <typename Traits>
class BasicShardedEngine {
 public:
  using key_type = typename Traits::key_type;
  using Trie = BasicSkipTrie<Traits>;

  // `shards` must be a power of two >= 1, small enough to leave each shard
  // a >= 4-bit low-key universe (the SkipTrie minimum).
  explicit BasicShardedEngine(uint32_t shards = 1, const Config& cfg = Config{});

  BasicShardedEngine(const BasicShardedEngine&) = delete;
  BasicShardedEngine& operator=(const BasicShardedEngine&) = delete;

  // --- Single-key operations (route by top bits) --------------------------
  // Every keyed operation, batches included, throws std::out_of_range for a
  // key above max_key(), in every build, before routing it (a batch before
  // applying any key).
  bool insert(key_type key) {
    check_key(key);
    return shards_[shard_of(key)]->insert(low_of(key));
  }
  bool erase(key_type key) {
    check_key(key);
    return shards_[shard_of(key)]->erase(low_of(key));
  }
  bool contains(key_type key) const {
    check_key(key);
    return shards_[shard_of(key)]->contains(low_of(key));
  }
  std::optional<key_type> predecessor(key_type key) const;
  std::optional<key_type> strict_predecessor(key_type key) const;
  std::optional<key_type> successor(key_type key) const;
  std::optional<key_type> min_key() const;
  std::optional<key_type> max_key_present() const;

  // --- Batched operations (split/merge, DESIGN.md §4.3) --------------------
  // Same contract as SkipTrie: results (length n) in input order,
  // duplicates resolved in input order, return value = number of true
  // results.  At shards=1 these forward unmodified (zero-copy).
  size_t insert_batch(const key_type* keys, size_t n, uint8_t* results = nullptr);
  size_t erase_batch(const key_type* keys, size_t n, uint8_t* results = nullptr);
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

  // Approximate under concurrency; exact when quiescent.  Sum of shards.
  size_t size() const;

  uint32_t universe_bits() const { return cfg_.universe_bits; }
  // Largest *global* key this engine accepts: the unsharded SkipTrie's
  // max_key for the same Config.  (At B = W the two sentinel-reserved top
  // keys stay excluded even though a multi-shard split could physically
  // represent them — the sharded engine must accept exactly the unsharded
  // key range.)
  key_type max_key() const;

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t shard_bits() const { return shard_bits_; }
  // Routing rule (public so tests can pin the bijection).  The shard index
  // always fits 32 bits (shard_bits_ <= 28: W - 4 low bits minimum), so the
  // shifted-down top word narrows losslessly through low_u64.
  uint32_t shard_of(key_type key) const {
    return shard_bits_ == 0
               ? 0u
               : static_cast<uint32_t>(Traits::low_u64(key >> low_bits_));
  }
  key_type low_of(key_type key) const {
    return shard_bits_ == 0 ? key : (key & low_mask_);
  }
  key_type global_key(uint32_t shard, key_type low) const {
    return shard_bits_ == 0 ? low
                            : ((key_type(shard) << low_bits_) | low);
  }

  // Shard access for tests and benchmarks.
  Trie& shard(size_t i) { return *shards_[i]; }
  const Trie& shard(size_t i) const { return *shards_[i]; }
  const Config& config() const { return cfg_; }

  // Quiescent-only aggregate over the per-shard structure walks: additive
  // fields (keys, level/top counts, trie entries, bytes, buckets) sum;
  // max_top_gap takes the max; load factor and avg_top_gap are recomputed
  // from the summed numerators/denominators.
  typename Trie::StructureStats structure_stats() const;

  // Mid-run-safe structural totals: sum of the per-shard atomic counters.
  // All fields are additive across shards.
  StructureLiveStats structure_live_stats() const {
    StructureLiveStats agg;
    for (const auto& sp : shards_) {
      const StructureLiveStats s = sp->structure_live_stats();
      agg.keys += s.keys;
      agg.top_count += s.top_count;
    }
    return agg;
  }

 private:
  Config cfg_;                  // the caller's config (full universe)
  uint32_t shard_bits_ = 0;     // log2(shard count)
  uint32_t low_bits_ = 0;       // universe_bits - shard_bits
  key_type low_mask_ = key_type(0);
  std::vector<std::unique_ptr<Trie>> shards_;

  // Throws std::out_of_range when key > max_key().  Past the last shard
  // shard_of(key) would index outside shards_ (B < W), and at B = W the two
  // sentinel-reserved keys would land in the last shard as ordinary low keys.
  void check_key(key_type key) const;
  void check_keys(const key_type* keys, size_t n) const {
    for (size_t i = 0; i < n; ++i) check_key(keys[i]);
  }
  // Largest global key in any shard strictly below `s`, or nullopt.
  std::optional<key_type> max_below(uint32_t s) const;
  // Smallest global key in any shard strictly above `s`, or nullopt.
  std::optional<key_type> min_above(uint32_t s) const;
};

using ShardedEngine = BasicShardedEngine<U64Traits>;

}  // namespace skiptrie
