// KeyTraits: the universe a SkipTrie instantiation runs over (DESIGN.md §6).
//
// Every layer of the stack — x-fast trie prefix walks, split-ordered
// hashing, tower-height seeding, cursor bracket ikeys, batch sorting — is
// parameterized on one traits type that fixes the ikey word, the universe
// width W, and the bit/prefix/mix arithmetic on it.  Two instantiations
// ship:
//
//   U64Traits     W = 64.  The seed behavior, byte for byte: every static
//                 delegates to the scalar uint64_t helpers the code used
//                 before the refactor, so per-op step counts are pinned
//                 (tests/step_pinning_test.cpp) against the pre-traits tree.
//
//   Bytes16Traits W = 128.  Keys are 128-bit ikeys produced by the
//                 order-preserving codecs in common/key_codec.h (bounded
//                 byte strings <= 15 bytes, IPv6 / IPv4-mapped addresses).
//                 log log u grows from ~6 to ~7 — widening the universe is
//                 the honest route to byte-string keys (ISSUE 7; cf.
//                 Shafiei's non-blocking Patricia tries, PAPERS.md).
//
// The mixes return plain uint64_t: the split-ordered hash's so_key word and
// deterministic_height's bit stream stay 64-bit regardless of W.  For
// U64Traits both are mix64(x), which composed with deterministic_height's
// own mix64(seed ^ ·) reproduces the seed draw exactly.
#pragma once

#include <concepts>
#include <cstdint>

#include "common/bitops.h"
#include "common/random.h"

namespace skiptrie {

template <typename T>
concept KeyTraits = requires(typename T::key_type k, typename T::ikey_type ik,
                             uint32_t i, uint32_t bits) {
  requires std::totally_ordered<typename T::ikey_type>;
  { T::kMaxBits } -> std::convertible_to<uint32_t>;
  { T::kKeyKind } -> std::convertible_to<const char*>;
  { T::ikey_max() } -> std::same_as<typename T::ikey_type>;
  { T::bit(ik, i, bits) } -> std::same_as<uint64_t>;
  { T::encode_prefix(ik, i, bits) } -> std::same_as<typename T::ikey_type>;
  { T::prefix_matches(ik, ik, i, bits) } -> std::same_as<bool>;
  { T::common_prefix_len(ik, ik, bits) } -> std::same_as<uint32_t>;
  { T::abs_diff(ik, ik) } -> std::same_as<typename T::ikey_type>;
  { T::universe_mask(bits) } -> std::same_as<typename T::ikey_type>;
  { T::hash_mix(ik) } -> std::same_as<uint64_t>;
  { T::height_mix(ik) } -> std::same_as<uint64_t>;
  { T::to_double(ik) } -> std::same_as<double>;
};

// W = 64: the original uint64_t universe.  Every member forwards to the
// scalar helpers in bitops.h so codegen on this path is identical to the
// pre-traits tree.
struct U64Traits {
  using key_type = uint64_t;
  using ikey_type = uint64_t;
  static constexpr uint32_t kMaxBits = 64;
  static constexpr const char* kKeyKind = "u64";

  static constexpr ikey_type ikey_max() { return UINT64_MAX; }
  static uint64_t bit(ikey_type k, uint32_t i, uint32_t bits) {
    return key_bit(k, i, bits);
  }
  static ikey_type encode_prefix(ikey_type k, uint32_t len, uint32_t bits) {
    return skiptrie::encode_prefix(k, len, bits);
  }
  static bool prefix_matches(ikey_type encoded, ikey_type k, uint32_t len,
                             uint32_t bits) {
    return skiptrie::prefix_matches(encoded, k, len, bits);
  }
  static uint32_t common_prefix_len(ikey_type a, ikey_type b, uint32_t bits) {
    return lcp_length(a, b, bits);
  }
  static ikey_type abs_diff(ikey_type a, ikey_type b) {
    return skiptrie::abs_diff(a, b);
  }
  static constexpr ikey_type universe_mask(uint32_t bits) {
    return skiptrie::universe_mask(bits);
  }
  // Split-ordered bucket hash (DESIGN.md §3.4) and tower-height stream
  // (§3.2): both exactly the seed's mix64.
  static uint64_t hash_mix(ikey_type x) { return mix64(x); }
  static uint64_t height_mix(ikey_type x) { return mix64(x); }
  static double to_double(ikey_type x) { return static_cast<double>(x); }
};

// W = 128: byte-string / IPv6 keys pre-encoded into u128 ikeys by
// common/key_codec.h.  key_type is the encoded word itself — the codec is a
// boundary concern (examples, benches), not an engine concern.
struct Bytes16Traits {
  using key_type = u128;
  using ikey_type = u128;
  static constexpr uint32_t kMaxBits = 128;
  static constexpr const char* kKeyKind = "bytes16";

  static constexpr ikey_type ikey_max() { return ikey_all_ones<u128>(); }
  static uint64_t bit(ikey_type k, uint32_t i, uint32_t bits) {
    return ikey_bit(k, i, bits);
  }
  static ikey_type encode_prefix(ikey_type k, uint32_t len, uint32_t bits) {
    return ikey_encode_prefix(k, len, bits);
  }
  static bool prefix_matches(ikey_type encoded, ikey_type k, uint32_t len,
                             uint32_t bits) {
    return ikey_prefix_matches(encoded, k, len, bits);
  }
  static uint32_t common_prefix_len(ikey_type a, ikey_type b, uint32_t bits) {
    return ikey_lcp_length(a, b, bits);
  }
  static ikey_type abs_diff(ikey_type a, ikey_type b) {
    return ikey_abs_diff(a, b);
  }
  static constexpr ikey_type universe_mask(uint32_t bits) {
    return ikey_universe_mask<u128>(bits);
  }
  // Fold both halves through mix64 so every ikey bit reaches every hash /
  // height bit (a lo-only mix would collide all keys sharing low words).
  static uint64_t hash_mix(ikey_type x) {
    return mix64(u128_lo(x) ^ mix64(u128_hi(x)));
  }
  static uint64_t height_mix(ikey_type x) {
    return mix64(u128_lo(x) ^ mix64(u128_hi(x)));
  }
  static double to_double(ikey_type x) {
    return static_cast<double>(u128_hi(x)) * 18446744073709551616.0 +
           static_cast<double>(u128_lo(x));
  }
};

static_assert(KeyTraits<U64Traits>);
static_assert(KeyTraits<Bytes16Traits>);

}  // namespace skiptrie
