#include "skiplist/finger.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

#include "dcss/dcss.h"

namespace skiptrie {

template <typename Traits>
void BasicSearchFinger<Traits>::reset(uint64_t owner, uint32_t top_level) {
  owner_ = owner;
  levels_ = top_level + 1 < kLevels ? top_level + 1 : kLevels;
  invalidate();
}

template <typename Traits>
void BasicSearchFinger<Traits>::invalidate() {
  for (uint32_t l = 0; l < kLevels; ++l) {
    cursor_[l] = 0;
    for (uint32_t w = 0; w < kWays; ++w) e_[l][w] = Entry{};
  }
}

template <typename Traits>
void BasicSearchFinger<Traits>::record(uint32_t lvl, Node_t* left,
                                       Ikey left_ikey, Ikey right_ikey,
                                       uint64_t epoch) {
  if (lvl >= levels_) return;
  Entry* row = e_[lvl];
  for (uint32_t w = 0; w < kWays; ++w) {
    if (row[w].left != nullptr && row[w].left_ikey == left_ikey) {
      row[w] = Entry{left, left_ikey, right_ikey, epoch, /*ref=*/true};
      return;
    }
  }
  // Second-chance eviction: sweep the clock hand, clearing ref bits, until
  // an unreferenced entry turns up (bounded: after one full sweep every
  // bit is clear).
  uint32_t v = cursor_[lvl];
  for (uint32_t i = 0; i < kWays && row[v].ref; ++i) {
    row[v].ref = false;
    v = (v + 1) % kWays;
  }
  cursor_[lvl] = (v + 1) % kWays;
  row[v] = Entry{left, left_ikey, right_ikey, epoch, /*ref=*/false};
}

template <typename Traits>
int BasicSearchFinger<Traits>::try_start(Ikey x, uint32_t min_level,
                                         uint64_t now_epoch, Node_t** out) {
  for (uint32_t lvl = min_level; lvl < levels_; ++lvl) {
    Entry* row = e_[lvl];
    for (uint32_t w = 0; w < kWays; ++w) {
      Entry& en = row[w];
      // Cheap, purely thread-local screens first: only a bracket that
      // contains x and is epoch-fresh earns the (possibly cold) node reads.
      if (en.left == nullptr) continue;
      if (!(en.left_ikey < x && x <= en.right_ikey)) continue;
      if (now_epoch - en.epoch > kMaxEpochLag) continue;
      // Validate the node itself.  Type-stable storage makes these reads
      // safe even if the node was retired; the checks reject poisoned,
      // recycled-to-another-identity, and marked nodes (DESIGN.md §3.6).
      Node_t* n = en.left;
      const NodeKind k = n->kind();
      if (k != NodeKind::kInterior && k != NodeKind::kHead) continue;
      if (n->level() != lvl) continue;
      if (n->ikey() != en.left_ikey) continue;
      const uint64_t nw = dcss_read(n->next);
      if (is_marked(nw)) continue;
      // Adjacency at use time: the bracket was adjacent when recorded, but
      // inserts since can have filled the gap — in the worst case a bracket
      // recorded against a sparse list (left = head, right = tail) contains
      // every future target and a "hit" on it walks the whole level, worse
      // than the miss path.  One read of left's successor rejects exactly
      // those: accept only if nothing sits strictly between left and x, so
      // a hit always enters its level in O(1) hops.
      Node_t* succ = unpack_ptr<Node_t>(nw);
      if (succ == nullptr || succ->ikey() < x) continue;
      en.ref = true;  // a serving entry earns its second chance
      *out = n;
      return static_cast<int>(lvl);
    }
  }
  return kMiss;
}

// --- Dead-owner journal ------------------------------------------------------
//
// Owner ids are never reused, so the registries below key slots by owner and
// hand out stable objects.  To keep a thread's registry from growing with
// every engine it has *ever* touched (bench_suite's main thread prefills
// hundreds of short-lived structures), a destroyed engine appends its owner
// id here and each registry drops matching slots lazily on its next lookup.
// The journal itself is append-only (8 bytes per engine ever destroyed) and
// each thread only scans the suffix it has not yet seen.  One journal serves
// the registries of every traits instantiation (owner ids are global).

namespace {

std::mutex dead_owner_mu;
std::vector<uint64_t> dead_owner_journal;
std::atomic<uint64_t> dead_owner_ver{0};

}  // namespace

void release_finger_owner(uint64_t owner) {
  std::lock_guard<std::mutex> lk(dead_owner_mu);
  dead_owner_journal.push_back(owner);
  dead_owner_ver.store(dead_owner_journal.size(), std::memory_order_release);
}

namespace detail {

uint64_t dead_owner_version() {
  return dead_owner_ver.load(std::memory_order_acquire);
}

uint64_t dead_owners_since(uint64_t since, std::vector<uint64_t>& out) {
  std::lock_guard<std::mutex> lk(dead_owner_mu);
  out.assign(dead_owner_journal.begin() + static_cast<ptrdiff_t>(since),
             dead_owner_journal.end());
  return dead_owner_journal.size();
}

}  // namespace detail

namespace {

// Per-thread finger registry: one stable slot per live engine the thread
// has touched.  No eviction while the owner lives — the fixed-slot
// round-robin it replaces rebound objects in place, retargeting references
// an outer frame still held (aliasing) and resetting every finger to cold
// whenever a thread cycled through more engines than slots, which is the
// steady state of a sharded split batch (DESIGN.md §4.2).  Lookups scan
// linearly with move-toward-front promotion, so the repeated-owner path
// stays O(1) and a shard sweep costs at most one swap per shard.  One
// registry per traits instantiation (owner ids never collide across
// instantiations, but the slot payloads are different types).
template <typename Traits>
struct FingerSlot {
  uint64_t owner = 0;
  std::unique_ptr<BasicSearchFinger<Traits>> finger;
};
template <typename Traits>
struct FingerRegistry {
  std::vector<FingerSlot<Traits>> slots;
  uint64_t seen_dead = 0;           // journal position already processed
  std::vector<uint64_t> scratch;
};

template <typename Traits>
FingerRegistry<Traits>& tl_finger_reg() {
  thread_local FingerRegistry<Traits> reg;
  return reg;
}

template <typename Registry>
void sweep_dead_owners(Registry& reg) {
  const uint64_t v = detail::dead_owner_version();
  if (v == reg.seen_dead) return;
  reg.seen_dead = detail::dead_owners_since(reg.seen_dead, reg.scratch);
  for (const uint64_t dead : reg.scratch) {
    for (size_t i = 0; i < reg.slots.size(); ++i) {
      if (reg.slots[i].owner == dead) {
        reg.slots.erase(reg.slots.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
}

}  // namespace

template <typename Traits>
BasicSearchFinger<Traits>& tls_finger(uint64_t owner, uint32_t top_level) {
  FingerRegistry<Traits>& reg = tl_finger_reg<Traits>();
  sweep_dead_owners(reg);
  for (size_t i = 0; i < reg.slots.size(); ++i) {
    if (reg.slots[i].owner == owner) {
      // Swapping slots moves only the owner word and the unique_ptr; the
      // finger objects themselves never move, so held references stay
      // valid across promotions.
      if (i > 0) {
        std::swap(reg.slots[i], reg.slots[i - 1]);
        --i;
      }
      return *reg.slots[i].finger;
    }
  }
  FingerSlot<Traits> s;
  s.owner = owner;
  s.finger = std::make_unique<BasicSearchFinger<Traits>>();
  s.finger->reset(owner, top_level);
  reg.slots.push_back(std::move(s));
  return *reg.slots.back().finger;
}

template <typename Traits>
size_t tls_finger_registry_size_of() {
  FingerRegistry<Traits>& reg = tl_finger_reg<Traits>();
  sweep_dead_owners(reg);
  return reg.slots.size();
}

size_t tls_finger_registry_size() {
  return tls_finger_registry_size_of<U64Traits>();
}

uint64_t new_finger_owner() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

template class BasicSearchFinger<U64Traits>;
template class BasicSearchFinger<Bytes16Traits>;
template SearchFinger& tls_finger<U64Traits>(uint64_t, uint32_t);
template BasicSearchFinger<Bytes16Traits>& tls_finger<Bytes16Traits>(uint64_t,
                                                                     uint32_t);
template size_t tls_finger_registry_size_of<U64Traits>();
template size_t tls_finger_registry_size_of<Bytes16Traits>();

}  // namespace skiptrie
