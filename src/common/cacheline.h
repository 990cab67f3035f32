// Cache-line padding helpers (avoid false sharing between per-thread slots).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace skiptrie {

inline constexpr size_t kCacheLine = 64;

// Ask for the line holding p ahead of a read (DESIGN.md §2.5).  A hint
// only: it never faults, even on a stale or freed address.
inline void prefetch_line(const void* p) { __builtin_prefetch(p, 0, 3); }

// A T padded out to a full cache line.  T must fit in one line.
template <typename T>
struct alignas(kCacheLine) Padded {
  T value{};
  char pad[kCacheLine - (sizeof(T) % kCacheLine ? sizeof(T) % kCacheLine
                                                : kCacheLine)];
};

using PaddedAtomicU64 = Padded<std::atomic<uint64_t>>;

}  // namespace skiptrie
