// SkipTrie configuration.
#pragma once

#include <cstdint>

#include "dcss/dcss.h"

namespace skiptrie {

struct Config {
  // B = log2 of the key universe size; keys live in [0, 2^B).  Bounded by
  // the traits' word width: 4..64 for U64Traits, 4..128 for Bytes16Traits
  // (DESIGN.md §6; the byte-string/IPv6 codecs emit into the full 128-bit
  // universe).  The truncated skiplist gets ceil(log2(B)) + 1 levels, so a
  // key reaches the top (and the x-fast trie) with probability
  // ~1/B = 1/log u.  The SkipTrie constructor throws std::invalid_argument
  // for a value outside the traits' range, in every build.
  uint32_t universe_bits = 32;

  // Full DCSS (paper default) or the paper's plain-CAS fallback (§1): the
  // structure stays linearizable and lock-free either way; the fallback may
  // transiently leave pointers aimed at marked nodes (repaired lazily).
  DcssMode dcss_mode = DcssMode::kDcss;

  // Seed for the per-thread tower-height RNG (deterministic workloads can
  // fix this; threads still derive distinct streams).
  uint64_t seed = 0x5eed5eed5eed5eedull;

  // Maximum bucket count of the prefix hash table.
  size_t max_hash_buckets = 1u << 20;

  // Slab granularity of the node arena.
  size_t arena_blocks_per_slab = 4096;
};

}  // namespace skiptrie
