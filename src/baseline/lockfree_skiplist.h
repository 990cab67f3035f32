// Full-height lock-free skiplist baseline.
//
// This is the paper's comparison class: "all concurrent search structures
// that support predecessor queries have had depth ... logarithmic in m"
// (§1).  We build it on the very same SkipListEngine as the SkipTrie's
// truncated skiplist — same listSearch, marks, back pointers and tower
// discipline — but with ~log2(m) levels and no x-fast trie: every search
// starts at the head of the highest level.  Benchmarks that compare
// steps/op between SkipTrie and this baseline therefore isolate exactly the
// paper's claim (log log u + c vs log m + c), not incidental implementation
// differences.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "reclaim/arena.h"
#include "reclaim/ebr.h"
#include "skiplist/engine.h"

namespace skiptrie {

class LockFreeSkipList {
 public:
  // levels: number of index levels; 20 supports ~2^20 keys at the usual
  // 1/2 promotion probability (depth log m).
  explicit LockFreeSkipList(uint32_t levels = 20,
                            DcssMode mode = DcssMode::kDcss,
                            uint64_t seed = 0x5eed5eed5eed5eedull);

  // Largest accepted key, SkipTrie's bound at B = 64: ikey = key + 1 leaves
  // ikey 0 to the head and 2^64 - 1 to the tail.  Every keyed operation
  // throws std::out_of_range for a key above it, in every build (a batch
  // before applying any key).
  static constexpr uint64_t max_key() { return UINT64_MAX - 2; }

  bool insert(uint64_t key);
  bool erase(uint64_t key);
  bool contains(uint64_t key) const;
  std::optional<uint64_t> predecessor(uint64_t key) const;  // largest <= key
  std::optional<uint64_t> successor(uint64_t key) const;    // smallest > key

  // Batched operations (DESIGN.md §3.7): same contract as SkipTrie's —
  // sort, stream through one DescentCursor under chunked EBR pins, results
  // in input order, each key linearizing individually.  Provided on the
  // baseline so batched steps/op comparisons isolate the paper's claim,
  // like the shared single-key descent does.
  size_t insert_batch(const uint64_t* keys, size_t n,
                      uint8_t* results = nullptr);
  size_t erase_batch(const uint64_t* keys, size_t n,
                     uint8_t* results = nullptr);
  size_t contains_batch(const uint64_t* keys, size_t n,
                        uint8_t* results = nullptr) const;
  size_t predecessor_batch(const uint64_t* keys, size_t n,
                           std::optional<uint64_t>* results = nullptr) const;

  size_t insert_batch(const std::vector<uint64_t>& keys,
                      uint8_t* results = nullptr) {
    return insert_batch(keys.data(), keys.size(), results);
  }
  size_t erase_batch(const std::vector<uint64_t>& keys,
                     uint8_t* results = nullptr) {
    return erase_batch(keys.data(), keys.size(), results);
  }
  size_t contains_batch(const std::vector<uint64_t>& keys,
                        uint8_t* results = nullptr) const {
    return contains_batch(keys.data(), keys.size(), results);
  }
  size_t predecessor_batch(const std::vector<uint64_t>& keys,
                           std::optional<uint64_t>* results = nullptr) const {
    return predecessor_batch(keys.data(), keys.size(), results);
  }

  size_t size() const;
  SkipListEngine& engine() { return engine_; }
  EbrDomain& ebr() const { return ebr_; }

 private:
  uint64_t ikey_of(uint64_t key) const { return key + 1; }
  static void check_key(uint64_t key);
  static void check_keys(const uint64_t* keys, size_t n) {
    for (size_t i = 0; i < n; ++i) check_key(keys[i]);
  }

  // Every search starts at the top-level head (no trie).
  SkipListEngine::Node_t* top_head() const {
    return engine_.head(engine_.top_level());
  }

  uint64_t seed_;
  mutable SlabArena arena_;
  mutable EbrDomain ebr_;
  DcssContext ctx_;
  mutable SkipListEngine engine_;
  std::atomic<int64_t> size_{0};
};

// Coarse reader-writer-locked std::map baseline (the "easy" comparator for
// single-thread sanity and contention contrast).
class LockedMap;

}  // namespace skiptrie
