#include "shard/sharded_engine.h"

#include <cassert>
#include <stdexcept>

#include "common/stats.h"
#include "core/batch.h"

namespace skiptrie {

namespace {

uint32_t log2_exact(uint32_t pow2) {
  uint32_t b = 0;
  while ((1u << b) < pow2) ++b;
  return b;
}

}  // namespace

template <typename Traits>
BasicShardedEngine<Traits>::BasicShardedEngine(uint32_t shards,
                                               const Config& cfg)
    : cfg_(cfg) {
  assert(shards >= 1 && (shards & (shards - 1)) == 0);
  shard_bits_ = log2_exact(shards);
  assert(shard_bits_ == 0 || cfg.universe_bits >= shard_bits_ + 4);
  low_bits_ = cfg.universe_bits - shard_bits_;
  low_mask_ = Traits::universe_mask(low_bits_);
  shards_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    // Shard 0 at N=1 gets the caller's exact Config (pass-through); a real
    // split narrows each shard's universe to its low bits.  The seed is
    // shared: tower heights derive from (seed, low ikey), so a key's height
    // depends only on its shard-local identity and runs stay seed-stable.
    Config scfg = cfg;
    scfg.universe_bits = low_bits_;
    shards_.push_back(std::make_unique<Trie>(scfg));
  }
}

template <typename Traits>
auto BasicShardedEngine<Traits>::max_key() const -> key_type {
  const key_type mask = Traits::universe_mask(cfg_.universe_bits);
  return cfg_.universe_bits >= Traits::kMaxBits ? mask - key_type(2) : mask;
}

template <typename Traits>
void BasicShardedEngine<Traits>::check_key(key_type key) const {
  if (key > max_key()) {
    throw std::out_of_range("ShardedEngine key outside the universe");
  }
}

template <typename Traits>
auto BasicShardedEngine<Traits>::max_below(uint32_t s) const
    -> std::optional<key_type> {
  for (uint32_t t = s; t-- > 0;) {
    const std::optional<key_type> m = shards_[t]->max_key_present();
    if (m.has_value()) return global_key(t, *m);
  }
  return std::nullopt;
}

template <typename Traits>
auto BasicShardedEngine<Traits>::min_above(uint32_t s) const
    -> std::optional<key_type> {
  for (uint32_t t = s + 1; t < shards_.size(); ++t) {
    const std::optional<key_type> m = shards_[t]->min_key();
    if (m.has_value()) return global_key(t, *m);
  }
  return std::nullopt;
}

template <typename Traits>
auto BasicShardedEngine<Traits>::predecessor(key_type key) const
    -> std::optional<key_type> {
  check_key(key);
  const uint32_t s = shard_of(key);
  const std::optional<key_type> r = shards_[s]->predecessor(low_of(key));
  if (r.has_value()) return global_key(s, *r);
  return max_below(s);
}

template <typename Traits>
auto BasicShardedEngine<Traits>::strict_predecessor(key_type key) const
    -> std::optional<key_type> {
  check_key(key);
  const uint32_t s = shard_of(key);
  const std::optional<key_type> r = shards_[s]->strict_predecessor(low_of(key));
  if (r.has_value()) return global_key(s, *r);
  return max_below(s);
}

template <typename Traits>
auto BasicShardedEngine<Traits>::successor(key_type key) const
    -> std::optional<key_type> {
  check_key(key);
  const uint32_t s = shard_of(key);
  const std::optional<key_type> r = shards_[s]->successor(low_of(key));
  if (r.has_value()) return global_key(s, *r);
  return min_above(s);
}

template <typename Traits>
auto BasicShardedEngine<Traits>::min_key() const -> std::optional<key_type> {
  for (uint32_t t = 0; t < shards_.size(); ++t) {
    const std::optional<key_type> m = shards_[t]->min_key();
    if (m.has_value()) return global_key(t, *m);
  }
  return std::nullopt;
}

template <typename Traits>
auto BasicShardedEngine<Traits>::max_key_present() const
    -> std::optional<key_type> {
  return max_below(static_cast<uint32_t>(shards_.size()));
}

template <typename Traits>
size_t BasicShardedEngine<Traits>::size() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

namespace {

// Slice the batch's sorted iteration order into contiguous per-shard runs
// and hand each run — low keys in ascending order plus the original input
// indices — to `run`.  Top-bits routing sorts by (shard, low), so shard
// runs are contiguous in sorted order and each sub-batch arrives at its
// shard pre-sorted (O(n) fast path) with duplicate order preserved.
template <typename K, typename ShardOf, typename LowOf, typename Run>
void split_sorted(const K* keys, size_t n, ShardOf shard_of, LowOf low_of,
                  Run run) {
  const std::vector<uint32_t> order = batch_detail::sorted_order(keys, n);
  std::vector<K> low;
  std::vector<uint32_t> idx;
  size_t i = 0;
  while (i < n) {
    const uint32_t s =
        shard_of(keys[order.empty() ? i : order[i]]);
    low.clear();
    idx.clear();
    while (i < n) {
      const uint32_t j =
          static_cast<uint32_t>(order.empty() ? i : order[i]);
      if (shard_of(keys[j]) != s) break;
      low.push_back(low_of(keys[j]));
      idx.push_back(j);
      ++i;
    }
    run(s, low, idx);
  }
}

}  // namespace

template <typename Traits>
size_t BasicShardedEngine<Traits>::insert_batch(const key_type* keys, size_t n,
                                                uint8_t* results) {
  if (shard_bits_ == 0) {
    tls_counters().shard_batches++;
    return shards_[0]->insert_batch(keys, n, results);
  }
  check_keys(keys, n);
  size_t hits = 0;
  std::vector<uint8_t> scratch;
  split_sorted(
      keys, n, [this](key_type k) { return shard_of(k); },
      [this](key_type k) { return low_of(k); },
      [&](uint32_t s, const std::vector<key_type>& low,
          const std::vector<uint32_t>& idx) {
        tls_counters().shard_batches++;
        if (results == nullptr) {
          hits += shards_[s]->insert_batch(low.data(), low.size(), nullptr);
          return;
        }
        scratch.resize(low.size());
        hits += shards_[s]->insert_batch(low.data(), low.size(), scratch.data());
        for (size_t k = 0; k < idx.size(); ++k) results[idx[k]] = scratch[k];
      });
  return hits;
}

template <typename Traits>
size_t BasicShardedEngine<Traits>::erase_batch(const key_type* keys, size_t n,
                                               uint8_t* results) {
  if (shard_bits_ == 0) {
    tls_counters().shard_batches++;
    return shards_[0]->erase_batch(keys, n, results);
  }
  check_keys(keys, n);
  size_t hits = 0;
  std::vector<uint8_t> scratch;
  split_sorted(
      keys, n, [this](key_type k) { return shard_of(k); },
      [this](key_type k) { return low_of(k); },
      [&](uint32_t s, const std::vector<key_type>& low,
          const std::vector<uint32_t>& idx) {
        tls_counters().shard_batches++;
        if (results == nullptr) {
          hits += shards_[s]->erase_batch(low.data(), low.size(), nullptr);
          return;
        }
        scratch.resize(low.size());
        hits += shards_[s]->erase_batch(low.data(), low.size(), scratch.data());
        for (size_t k = 0; k < idx.size(); ++k) results[idx[k]] = scratch[k];
      });
  return hits;
}

template <typename Traits>
size_t BasicShardedEngine<Traits>::contains_batch(const key_type* keys,
                                                  size_t n,
                                                  uint8_t* results) const {
  if (shard_bits_ == 0) {
    tls_counters().shard_batches++;
    return shards_[0]->contains_batch(keys, n, results);
  }
  check_keys(keys, n);
  size_t hits = 0;
  std::vector<uint8_t> scratch;
  split_sorted(
      keys, n, [this](key_type k) { return shard_of(k); },
      [this](key_type k) { return low_of(k); },
      [&](uint32_t s, const std::vector<key_type>& low,
          const std::vector<uint32_t>& idx) {
        tls_counters().shard_batches++;
        if (results == nullptr) {
          hits += shards_[s]->contains_batch(low.data(), low.size(), nullptr);
          return;
        }
        scratch.resize(low.size());
        hits +=
            shards_[s]->contains_batch(low.data(), low.size(), scratch.data());
        for (size_t k = 0; k < idx.size(); ++k) results[idx[k]] = scratch[k];
      });
  return hits;
}

template <typename Traits>
size_t BasicShardedEngine<Traits>::predecessor_batch(
    const key_type* keys, size_t n, std::optional<key_type>* results) const {
  if (shard_bits_ == 0) {
    tls_counters().shard_batches++;
    return shards_[0]->predecessor_batch(keys, n, results);
  }
  check_keys(keys, n);
  size_t hits = 0;
  std::vector<std::optional<key_type>> scratch;
  // The cross-shard fallback is the same value for every empty-answer key
  // of one shard run, so it is resolved once per run, lazily.
  split_sorted(
      keys, n, [this](key_type k) { return shard_of(k); },
      [this](key_type k) { return low_of(k); },
      [&](uint32_t s, const std::vector<key_type>& low,
          const std::vector<uint32_t>& idx) {
        tls_counters().shard_batches++;
        scratch.assign(low.size(), std::nullopt);
        shards_[s]->predecessor_batch(low.data(), low.size(), scratch.data());
        bool fallback_known = false;
        std::optional<key_type> fallback;
        for (size_t k = 0; k < idx.size(); ++k) {
          std::optional<key_type> r;
          if (scratch[k].has_value()) {
            r = global_key(s, *scratch[k]);
          } else {
            if (!fallback_known) {
              fallback = max_below(s);
              fallback_known = true;
            }
            r = fallback;
          }
          if (r.has_value()) ++hits;
          if (results != nullptr) results[idx[k]] = r;
        }
      });
  return hits;
}

template <typename Traits>
auto BasicShardedEngine<Traits>::structure_stats() const ->
    typename Trie::StructureStats {
  typename Trie::StructureStats agg;
  double gap_weight = 0;  // top-gap sample count = per-shard top_count
  for (const auto& sp : shards_) {
    const typename Trie::StructureStats s = sp->structure_stats();
    agg.keys += s.keys;
    for (size_t l = 0; l <= BasicSkipListEngine<Traits>::kMaxLevels; ++l) {
      agg.level_counts[l] += s.level_counts[l];
    }
    agg.top_count += s.top_count;
    agg.trie_entries += s.trie_entries;
    agg.avg_top_gap += s.avg_top_gap * static_cast<double>(s.top_count);
    gap_weight += static_cast<double>(s.top_count);
    if (s.max_top_gap > agg.max_top_gap) agg.max_top_gap = s.max_top_gap;
    agg.arena_bytes += s.arena_bytes;
    agg.trie_bytes += s.trie_bytes;
    agg.hash_buckets += s.hash_buckets;
    agg.hash_dummies += s.hash_dummies;
  }
  if (gap_weight > 0) agg.avg_top_gap /= gap_weight;
  agg.hash_load_factor =
      agg.hash_buckets > 0
          ? static_cast<double>(agg.trie_entries) /
                static_cast<double>(agg.hash_buckets)
          : 0.0;
  return agg;
}

template class BasicShardedEngine<U64Traits>;
template class BasicShardedEngine<Bytes16Traits>;

}  // namespace skiptrie
