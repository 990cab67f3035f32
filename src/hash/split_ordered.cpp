#include "hash/split_ordered.h"

#include <cassert>
#include <new>

#include "common/random.h"
#include "common/stats.h"

namespace skiptrie {

namespace {

inline uint64_t reverse_bits(uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0f0f0f0f0f0f0f0full) | ((v & 0x0f0f0f0f0f0f0f0full) << 4);
  return __builtin_bswap64(v);
}

}  // namespace

template <typename Traits>
uint64_t BasicSplitOrderedMap<Traits>::hash_of(Ikey key) {
  return Traits::hash_mix(key);
}

template <typename Traits>
uint64_t BasicSplitOrderedMap<Traits>::regular_so_key(Ikey key) {
  // Reversed hash with the (now-) least significant bit forced to 1 so that
  // regular nodes always sort after the dummy of their bucket.
  return reverse_bits(hash_of(key)) | 1ull;
}

template <typename Traits>
uint64_t BasicSplitOrderedMap<Traits>::dummy_so_key(uint64_t bucket) {
  return reverse_bits(bucket);  // LSB clear: sorts before bucket's items
}

template <typename Traits>
size_t BasicSplitOrderedMap<Traits>::parent_bucket(size_t bucket) {
  assert(bucket > 0);
  // Clear the most significant set bit: the bucket this one split from.
  size_t msb = bucket;
  msb |= msb >> 1; msb |= msb >> 2; msb |= msb >> 4;
  msb |= msb >> 8; msb |= msb >> 16; msb |= msb >> 32;
  return bucket & (msb >> 1);
}

template <typename Traits>
BasicSplitOrderedMap<Traits>::BasicSplitOrderedMap(EbrDomain& ebr,
                                                   SlabArena& pool)
    : ebr_(ebr), pool_(pool) {
  assert(pool_.block_size() >= sizeof(HNode));
  for (auto& s : segments_) s.store(nullptr, std::memory_order_relaxed);
  list_head_ = make_hnode(0, Ikey(0), 0);
  dummies_.fetch_add(1, std::memory_order_relaxed);
  auto* seg = new BucketSlot[kSegSize];
  for (size_t i = 0; i < kSegSize; ++i) seg[i].store(nullptr, std::memory_order_relaxed);
  seg[0].store(list_head_, std::memory_order_relaxed);
  segments_[0].store(seg, std::memory_order_release);
}

template <typename Traits>
BasicSplitOrderedMap<Traits>::~BasicSplitOrderedMap() {
  // Single-threaded teardown: the pool owns every list node's storage and
  // frees it with its slabs; only the directory is ours.
  for (auto& s : segments_) {
    delete[] s.load(std::memory_order_relaxed);
  }
}

template <typename Traits>
auto BasicSplitOrderedMap<Traits>::make_hnode(uint64_t so_key, Ikey key,
                                              uint64_t value) const
    -> HNode* {
  return new (pool_.allocate()) HNode{so_key, key, value, {0}};
}

template <typename Traits>
void BasicSplitOrderedMap<Traits>::retire_node(HNode* n) const {
  ebr_.retire(n, &SlabArena::recycle_retired, &pool_);
}

template <typename Traits>
auto BasicSplitOrderedMap<Traits>::slot_for(size_t bucket) const
    -> BucketSlot* {
  const size_t seg_idx = bucket >> kSegBits;
  assert(seg_idx < kMaxSegments);
  BucketSlot* seg = segments_[seg_idx].load(std::memory_order_acquire);
  if (seg == nullptr) {
    auto* fresh = new BucketSlot[kSegSize];
    for (size_t i = 0; i < kSegSize; ++i)
      fresh[i].store(nullptr, std::memory_order_relaxed);
    BucketSlot* expect = nullptr;
    if (segments_[seg_idx].compare_exchange_strong(
            expect, fresh, std::memory_order_acq_rel)) {
      seg = fresh;
    } else {
      delete[] fresh;
      seg = expect;
    }
  }
  return &seg[bucket & (kSegSize - 1)];
}

template <typename Traits>
auto BasicSplitOrderedMap<Traits>::bucket_head(size_t bucket) const -> HNode* {
  BucketSlot* slot = slot_for(bucket);
  HNode* head = slot->load(std::memory_order_acquire);
  if (head != nullptr) return head;
  return initialize_bucket(bucket);
}

template <typename Traits>
auto BasicSplitOrderedMap<Traits>::initialize_bucket(size_t bucket) const
    -> HNode* {
  // Recursively make sure the parent's dummy exists, then splice this
  // bucket's dummy into the list after it.
  HNode* parent_head = bucket_head(parent_bucket(bucket));
  const uint64_t so = dummy_so_key(bucket);

  HNode* dummy = nullptr;
  HNode* fresh = nullptr;
  for (;;) {
    FindResult fr = find(parent_head, so, Ikey(0), /*cleanup=*/true);
    if (fr.curr != nullptr && fr.curr->so_key == so &&
        fr.curr->key == Ikey(0)) {
      dummy = fr.curr;  // another thread already inserted it
      break;
    }
    if (fresh == nullptr) {
      fresh = make_hnode(so, Ikey(0), 0);
      dummies_.fetch_add(1, std::memory_order_relaxed);
    }
    fresh->next.store(pack_ptr(fr.curr), std::memory_order_relaxed);
    if (counted_cas(*fr.prev, fr.curr_word, pack_ptr(fresh))) {
      dummy = fresh;
      fresh = nullptr;
      break;
    }
  }
  if (fresh != nullptr) {
    dummies_.fetch_sub(1, std::memory_order_relaxed);
    pool_.recycle(fresh);  // never published
  }
  BucketSlot* slot = slot_for(bucket);
  HNode* expect = nullptr;
  slot->compare_exchange_strong(expect, dummy, std::memory_order_acq_rel);
  return slot->load(std::memory_order_acquire);
}

template <typename Traits>
auto BasicSplitOrderedMap<Traits>::find(HNode* head, uint64_t so_key, Ikey key,
                                        bool cleanup) const -> FindResult {
  auto& c = tls_counters();
  bool first_visit = true;
retry:
  std::atomic<uint64_t>* prev = &head->next;
  uint64_t prev_word = dcss_read(*prev);
  for (;;) {
    HNode* curr = unpack_ptr<HNode>(prev_word);
    if (curr == nullptr) {
      return FindResult{prev, nullptr, prev_word};
    }
    c.hash_probes++;
    // The first node off the bucket head is the ideal single probe; every
    // further visit is chain slack (load factor, dummies, marked nodes).
    if (!first_visit) c.probes_chain++;
    first_visit = false;
    uint64_t next_word = dcss_read(curr->next);
    if (is_marked(next_word)) {
      // curr is logically deleted.
      if (cleanup) {
        if (!counted_cas(*prev, prev_word, without_tags(next_word))) {
          goto retry;  // neighborhood changed; restart from head
        }
        // The unlinking CAS winner owns reclamation: the CAS could only
        // succeed because *prev was unmarked, i.e. curr was still on the
        // live chain and is now off it.
        retire_node(curr);
        prev_word = without_tags(next_word);
        continue;
      }
      // Read-only path: skip over it.  We keep `prev` where it is; only the
      // `curr` chain advances.  (prev_word no longer matches *prev, but
      // read-only callers never CAS.)
      prev_word = pack_ptr(unpack_ptr<HNode>(next_word));
      continue;
    }
    if (!node_less(curr->so_key, curr->key, so_key, key)) {
      return FindResult{prev, curr, prev_word};
    }
    prev = &curr->next;
    prev_word = next_word;
  }
}

template <typename Traits>
bool BasicSplitOrderedMap<Traits>::insert(Ikey key, uint64_t value,
                                          std::atomic<uint64_t>* guard,
                                          uint64_t guard_expected,
                                          bool* guard_failed) {
  EbrDomain::Guard g(ebr_);
  auto& c = tls_counters();
  const uint64_t so = regular_so_key(key);
  const size_t bucket =
      hash_of(key) & (buckets_.load(std::memory_order_acquire) - 1);
  HNode* head = bucket_head(bucket);

  HNode* fresh = nullptr;
  for (;;) {
    FindResult fr = find(head, so, key, /*cleanup=*/true);
    if (fr.curr != nullptr && fr.curr->so_key == so && fr.curr->key == key) {
      if (fresh != nullptr) pool_.recycle(fresh);
      return false;  // already present
    }
    if (fresh == nullptr) fresh = make_hnode(so, key, value);
    fresh->next.store(pack_ptr(fr.curr), std::memory_order_relaxed);
    c.hash_updates++;
    if (guard == nullptr) {
      if (counted_cas(*fr.prev, fr.curr_word, pack_ptr(fresh))) break;
    } else {
      DcssResult r = dcss(ebr_, *fr.prev, fr.curr_word, pack_ptr(fresh),
                          *guard, guard_expected);
      if (r.success) break;
      if (r.guard_failed) {
        if (guard_failed != nullptr) *guard_failed = true;
        pool_.recycle(fresh);
        return false;
      }
    }
    // Link CAS failed: retry the search.
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  maybe_grow();
  return true;
}

template <typename Traits>
std::optional<uint64_t> BasicSplitOrderedMap<Traits>::lookup(Ikey key) const {
  EbrDomain::Guard g(ebr_);
  tls_counters().probes_lookup++;
  const uint64_t so = regular_so_key(key);
  const size_t bucket =
      hash_of(key) & (buckets_.load(std::memory_order_acquire) - 1);
  // Initialize the bucket writer-style if needed (Shalev & Shavit's own
  // lookup does the same).  The previous walk-from-nearest-initialized-
  // ancestor scheme kept lookups write-free but degraded to scanning every
  // node between the ancestor's dummy and the target bucket — O(chain of
  // the whole uninitialized subtree) probes instead of O(1) expected.
  HNode* head = bucket_head(bucket);
  FindResult fr = find(head, so, key, /*cleanup=*/false);
  if (fr.curr != nullptr && fr.curr->so_key == so && fr.curr->key == key) {
    return fr.curr->value;
  }
  return std::nullopt;
}

template <typename Traits>
void BasicSplitOrderedMap<Traits>::prefetch(Ikey key, int stage) const {
  // Reads only what lookup would read first, and only memory the map never
  // frees while it lives: the directory and published dummies (DESIGN.md
  // §2.5).  The acquire loads pair with the publishing CASes in slot_for
  // and initialize_bucket, as lookup's own loads do.
  const size_t bucket =
      hash_of(key) & (buckets_.load(std::memory_order_acquire) - 1);
  const BucketSlot* seg =
      segments_[bucket >> kSegBits].load(std::memory_order_acquire);
  if (seg == nullptr) return;
  const BucketSlot* slot = &seg[bucket & (kSegSize - 1)];
  if (stage == 0) {
    prefetch_line(slot);
    return;
  }
  const HNode* dummy = slot->load(std::memory_order_acquire);
  if (dummy == nullptr) return;
  if (stage == 1) {
    prefetch_line(dummy);
    return;
  }
  const uint64_t w = dummy->next.load(std::memory_order_acquire);
  if (is_desc(w)) return;
  if (const HNode* first = unpack_ptr<HNode>(w)) prefetch_line(first);
}

template <typename Traits>
std::optional<uint64_t> BasicSplitOrderedMap<Traits>::erase(Ikey key) {
  EbrDomain::Guard g(ebr_);
  auto& c = tls_counters();
  const uint64_t so = regular_so_key(key);
  const size_t bucket =
      hash_of(key) & (buckets_.load(std::memory_order_acquire) - 1);
  HNode* head = bucket_head(bucket);
  for (;;) {
    FindResult fr = find(head, so, key, /*cleanup=*/true);
    if (fr.curr == nullptr || fr.curr->so_key != so || fr.curr->key != key) {
      return std::nullopt;
    }
    const uint64_t next_word = dcss_read(fr.curr->next);
    if (is_marked(next_word)) continue;  // racing delete; re-find
    c.hash_updates++;
    if (!counted_cas(fr.curr->next, next_word, with_mark(next_word))) {
      continue;  // lost the mark race or next changed; re-find
    }
    const uint64_t value = fr.curr->value;
    // Physical unlink; on failure a later find() cleans up.
    if (counted_cas(*fr.prev, fr.curr_word, without_tags(next_word))) {
      retire_node(fr.curr);
    }
    count_.fetch_sub(1, std::memory_order_relaxed);
    return value;
  }
}

template <typename Traits>
bool BasicSplitOrderedMap<Traits>::compare_and_delete(Ikey key,
                                                      uint64_t expected_value) {
  EbrDomain::Guard g(ebr_);
  auto& c = tls_counters();
  const uint64_t so = regular_so_key(key);
  const size_t bucket =
      hash_of(key) & (buckets_.load(std::memory_order_acquire) - 1);
  HNode* head = bucket_head(bucket);
  for (;;) {
    FindResult fr = find(head, so, key, /*cleanup=*/true);
    if (fr.curr == nullptr || fr.curr->so_key != so || fr.curr->key != key) {
      return false;
    }
    if (fr.curr->value != expected_value) return false;  // value is immutable
    const uint64_t next_word = dcss_read(fr.curr->next);
    if (is_marked(next_word)) return false;  // someone else deleted it
    c.hash_updates++;
    if (!counted_cas(fr.curr->next, next_word, with_mark(next_word))) {
      continue;
    }
    if (counted_cas(*fr.prev, fr.curr_word, without_tags(next_word))) {
      retire_node(fr.curr);
    }
    count_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
}

template <typename Traits>
void BasicSplitOrderedMap<Traits>::maybe_grow() {
  // Grow to the smallest power of two satisfying count <= buckets *
  // kLoadFactor (capped at kMaxBuckets), not just one doubling: a table
  // that fell behind a prefill burst (or lost growth CASes to races) must
  // reach the load-factor target on the next insert, or chains stay long
  // and every probe pays for it.
  const size_t count = count_.load(std::memory_order_relaxed);
  for (;;) {
    const size_t buckets = buckets_.load(std::memory_order_acquire);
    if (buckets >= kMaxBuckets || count <= buckets * kLoadFactor) return;
    size_t target = buckets;
    while (target < kMaxBuckets && count > target * kLoadFactor) target *= 2;
    size_t expect = buckets;
    if (buckets_.compare_exchange_strong(expect, target,
                                         std::memory_order_acq_rel)) {
      return;
    }
    // Lost to a concurrent grower; re-check whether its target suffices.
  }
}

template <typename Traits>
size_t BasicSplitOrderedMap<Traits>::approx_bytes() const {
  size_t segs = 0;
  for (const auto& s : segments_) {
    if (s.load(std::memory_order_relaxed) != nullptr) segs++;
  }
  return (count_.load(std::memory_order_relaxed) +
          dummies_.load(std::memory_order_relaxed)) *
             sizeof(HNode) +
         segs * kSegSize * sizeof(BucketSlot);
}

template class BasicSplitOrderedMap<U64Traits>;
template class BasicSplitOrderedMap<Bytes16Traits>;

}  // namespace skiptrie
