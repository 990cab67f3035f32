// Bit and prefix arithmetic for the x-fast trie.
//
// Keys are B-bit integers (`B = Config::universe_bits`, 4..W where W is the
// key-traits universe width, 64 or 128) stored in the low B bits of an ikey
// word.  Bit index i (0-based) counts from the most significant of the B
// bits, so bit 0 is the root branching decision of the prefix tree.  A
// prefix of length L is the top L bits of the key; it is encoded into a
// single ikey with a leading 1 ("1-prefixed" encoding) so that
// (bits, length) pairs of every length 0..W-1 map to distinct integers:
//
//   encode(key, L, B) = (1 << L) | (key >> (B - L))
//
// Trie prefixes always have L <= B-1 <= W-1, so the encoding never
// overflows the ikey word.
//
// The `ikey_*` function templates are the one copy of this arithmetic, for
// either ikey word: uint64_t (U64Traits) or u128 (Bytes16Traits).
#pragma once

#include <cassert>
#include <cstdint>

#if !defined(__SIZEOF_INT128__)
#error "SkipTrie needs unsigned __int128: GCC or Clang on a 64-bit target"
#endif

namespace skiptrie {

// ceil(log2(v)) for v >= 1.  ceil_log2(1) == 0.
inline constexpr uint32_t ceil_log2(uint64_t v) {
  uint32_t r = 0;
  uint64_t p = 1;
  while (p < v) {
    p <<= 1;
    ++r;
  }
  return r;
}

// ---------------------------------------------------------------------------
// 128-bit ikey support (DESIGN.md §6): `u128` is `unsigned __int128`.
// ---------------------------------------------------------------------------

using u128 = unsigned __int128;

inline constexpr uint64_t u128_hi(u128 v) {
  return static_cast<uint64_t>(v >> 64);
}
inline constexpr uint64_t u128_lo(u128 v) { return static_cast<uint64_t>(v); }
inline constexpr u128 make_u128(uint64_t hi, uint64_t lo) {
  return (static_cast<u128>(hi) << 64) | lo;
}

// ---------------------------------------------------------------------------
// Width-generic ikey arithmetic.  `I` is uint64_t or u128; ikey_width<I>
// derives the word width from the type.
// ---------------------------------------------------------------------------

template <typename I>
inline constexpr uint32_t ikey_width = static_cast<uint32_t>(sizeof(I) * 8);

// Count of leading zeros of a nonzero ikey word.
inline uint32_t ikey_clz(uint64_t x) {
  return static_cast<uint32_t>(__builtin_clzll(x));
}
inline uint32_t ikey_clz(u128 x) {
  const uint64_t hi = u128_hi(x);
  return hi != 0 ? ikey_clz(hi) : 64u + ikey_clz(u128_lo(x));
}

template <typename I>
inline constexpr I ikey_all_ones() {
  return ~I(0);
}

// The i-th bit of `key` counting from the MSB of a B-bit universe.
template <typename I>
inline uint64_t ikey_bit(I key, uint32_t i, uint32_t bits) {
  assert(i < bits);
  return static_cast<uint64_t>((key >> (bits - 1 - i)) & I(1));
}

// Encode the length-`len` prefix of `key` (see file comment).
template <typename I>
inline I ikey_encode_prefix(I key, uint32_t len, uint32_t bits) {
  assert(len <= ikey_width<I> - 1 && len < bits);
  if (len == 0) return I(1);  // the root prefix (epsilon)
  return (I(1) << len) | (key >> (bits - len));
}

// True iff the length-`len` prefix of `key` equals the prefix encoded by
// `encoded` (which must have been produced by ikey_encode_prefix with
// length len).
template <typename I>
inline bool ikey_prefix_matches(I encoded, I key, uint32_t len,
                                uint32_t bits) {
  return ikey_encode_prefix(key, len, bits) == encoded;
}

// Length of the longest common prefix of x and y within a B-bit universe.
template <typename I>
inline uint32_t ikey_lcp_length(I x, I y, uint32_t bits) {
  I diff = x ^ y;
  if (bits < ikey_width<I>) diff = diff & ((I(1) << bits) - I(1));
  if (diff == I(0)) return bits;
  const uint32_t highest = ikey_width<I> - 1 - ikey_clz(diff);
  return bits - 1 - highest;
}

// Unsigned absolute difference, used by LowestAncestor's "best candidate"
// rule (paper Alg. 3 line 12).
template <typename I>
inline I ikey_abs_diff(I a, I b) {
  return a > b ? a - b : b - a;
}

// Mask of the low `bits` bits (bits == W -> all ones).
template <typename I>
inline constexpr I ikey_universe_mask(uint32_t bits) {
  return bits >= ikey_width<I> ? ikey_all_ones<I>()
                               : ((I(1) << bits) - I(1));
}

}  // namespace skiptrie
