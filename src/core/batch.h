// Batched bulk-operation plumbing (DESIGN.md §3.7).
//
// The batch API's contract — on SkipTrie and the full-height baseline alike
// — is "one walk, many keys": sort the input, then stream the sorted keys
// through a single DescentCursor so each key after the first of a pinned
// chunk enters the descent at the lowest level where the cursor's bracket
// still holds.  This header holds the structure-independent half: the
// sorted iteration order (with an O(n) already-sorted fast path), the
// chunked EBR pins, and the batch attribution counters, templated on the
// key word so every traits instantiation (uint64_t, u128) shares one
// implementation.  The per-structure halves live in src/core/batch.cpp
// (SkipTrie: trie fallback + Alg. 6/7 sweeps) and
// src/baseline/lockfree_skiplist.cpp (no trie).
//
// Results are reported in *input* order regardless of the internal
// processing order; duplicates are processed in input order (stable sort),
// so e.g. inserting the same key twice in one batch reports exactly one
// success, on the first occurrence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/stats.h"
#include "reclaim/ebr.h"

namespace skiptrie {
namespace batch_detail {

template <typename K>
inline bool is_sorted_keys(const K* keys, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

// Indices of `keys` in stable ascending key order.
template <typename K>
std::vector<uint32_t> sorted_order(const K* keys, size_t n) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  // Stable: duplicate keys keep their input order, so "first occurrence
  // wins" semantics hold for insert/erase result reporting.
  std::stable_sort(order.begin(), order.end(),
                   [keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  return order;
}

// Keys per EBR pin in the batch loops.  Each new pin starts the cursor
// cold (one fallback descent), so longer chunks amortize that seek and the
// pin over more keys, while shorter ones bound how long one batch call
// holds back reclamation.
inline constexpr size_t kKeysPerPin = 64;

// Drive `op(key, input_index)` over the keys in ascending order, tallying
// the batch attribution counters (steps.batch_ops/batch_keys).  Pins `ebr`
// once per kKeysPerPin keys and drops every retained row of `cur` at each
// new pin, so every row `op` can reuse was recorded under the pin still
// held (DESIGN.md §3.7).  Returns the number of ops that returned true;
// `op` writes its own per-key result.
template <typename K, typename Cursor, typename PerKey>
size_t for_each_sorted_pinned(EbrDomain& ebr, Cursor& cur, const K* keys,
                              size_t n, PerKey&& op) {
  auto& c = tls_counters();
  c.batch_ops++;
  c.batch_keys += n;
  // Empty when the input is already sorted (the O(n) fast path).
  const std::vector<uint32_t> order =
      is_sorted_keys(keys, n) ? std::vector<uint32_t>() : sorted_order(keys, n);
  size_t hits = 0;
  for (size_t lo = 0; lo < n; lo += kKeysPerPin) {
    EbrDomain::Guard pin(ebr);
    cur.invalidate();
    const size_t hi = std::min(n, lo + kKeysPerPin);
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t idx = order.empty() ? static_cast<uint32_t>(i) : order[i];
      if (op(keys[idx], idx)) ++hits;
    }
  }
  return hits;
}

}  // namespace batch_detail
}  // namespace skiptrie
