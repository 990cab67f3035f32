// Skiplist tower node.
//
// One fixed-size, cache-line-aligned node type serves every level of the
// truncated skiplist.  Field roles (paper §2, §3):
//
//   next   tagged word  (Node* | kMark | kDesc).  The Harris mark on a
//          node's own next word is the node's logical-deletion flag at its
//          level.  DCSS descriptors may be installed here transiently.
//   ikey   internal key: user key + 1.  Head sentinels hold 0, the shared
//          tail (and poisoned/recycled nodes) hold the all-ones ikey, so
//          every user key satisfies 0 < ikey < ikey_max.
//   back   guide pointer, set just before the node is marked; points to the
//          node's predecessor at marking time (Fomitchev–Ruppert).  Guide
//          only: traversals validate what they find.
//   down   tower link to the same key's node one level below (self at
//          level 0).  Immutable after publication.
//   root   the tower's level-0 node.  Immutable after publication.
//   prevw  top-level only: tagged word (Node* | kMark).  The backwards
//          "guide" pointer of the doubly-linked list.  Its mark mirrors the
//          owner's deletion so Alg. 7's DCSS can guard on
//          "(right.prev, right.marked)" as one word.
//   stopw  root only: set to 1 by the delete operation that claims the
//          tower; tower raising is DCSS-guarded on stopw == 0 (paper §2).
//   meta   packed {level, orig_height, kind, ready, linked, life};
//          level/height/kind are written before publication and at poison
//          time; the ready bit (top-level only: fixPrev has installed the
//          prev pointer) and the linked bit (the node has been linked into
//          its level's list) are each set once via fetch_or; the life
//          counter advances at every poison().  Atomic with relaxed access
//          for the packed fields, acquire for the bits and the counter.
//
// Every field that a stale guide pointer could cause another thread to read
// concurrently with poisoning is an atomic; accesses that merely validate
// use relaxed ordering (the chain words carry the synchronization).
//
// The node is a template over the ikey word (DESIGN.md §6): NodeT<uint64_t>
// is the seed layout, byte for byte — ikey_ a single std::atomic<uint64_t>,
// sizeof == one cache line.  Wider ikeys (u128) store as two relaxed
// uint64_t halves in AtomicIkey: a torn read yields an ikey that was never
// stored, which is the same hazard class as reading a recycled node's
// re-keyed ikey (§3.3) — ikeys read through guide pointers are hints,
// validated by kind/level/mark identity checks before any structural use —
// so no double-wide atomic (and no libatomic lock) is needed.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bitops.h"
#include "common/cacheline.h"
#include "common/marked_ptr.h"

namespace skiptrie {

enum class NodeKind : uint8_t {
  kInterior = 0,  // a real key's tower node
  kHead = 1,      // per-level head sentinel (ikey 0)
  kTail = 2,      // shared tail sentinel (ikey all-ones)
  kPoison = 3,    // retired storage awaiting recycling
};

// Atomic holder for an ikey word.  Generic version: two relaxed halves
// (see file comment for why torn reads are tolerable here).
template <typename Ikey>
struct AtomicIkey {
  std::atomic<uint64_t> hi_{0};
  std::atomic<uint64_t> lo_{0};

  Ikey load(std::memory_order = std::memory_order_relaxed) const {
    return make_u128(hi_.load(std::memory_order_relaxed),
                     lo_.load(std::memory_order_relaxed));
  }
  void store(Ikey v, std::memory_order = std::memory_order_relaxed) {
    hi_.store(u128_hi(v), std::memory_order_relaxed);
    lo_.store(u128_lo(v), std::memory_order_relaxed);
  }
};

// uint64_t: one plain atomic — the seed representation.
template <>
struct AtomicIkey<uint64_t> {
  std::atomic<uint64_t> v_{0};

  uint64_t load(std::memory_order mo = std::memory_order_relaxed) const {
    return v_.load(mo);
  }
  void store(uint64_t v,
             std::memory_order mo = std::memory_order_relaxed) {
    v_.store(v, mo);
  }
};

template <typename Ikey>
struct alignas(kCacheLine) NodeT {
  std::atomic<uint64_t> next{0};
  AtomicIkey<Ikey> ikey_;
  std::atomic<NodeT*> back{nullptr};
  std::atomic<NodeT*> down_{nullptr};
  std::atomic<NodeT*> root_{nullptr};
  std::atomic<uint64_t> prevw{0};
  std::atomic<uint64_t> stopw{0};
  std::atomic<uint32_t> meta{0};  // level | orig_height<<8 | kind<<16
                                  // | ready<<24 | linked<<25 | life<<26

  static constexpr uint32_t kReadyBit = 1u << 24;
  // Cleared by init() and poison().  A guide pointer can name a block that
  // was retired, recycled and re-initialized by an insert that has stored
  // the node's next word but not linked it yet; that node passes every
  // kind/level/ikey check while being unreachable, so a search must not
  // anchor on a guide to an interior node without this bit (DESIGN.md §3.3).
  static constexpr uint32_t kLinkedBit = 1u << 25;
  // Six-bit count of the block's lives: poison() advances it and init()
  // keeps it.  A reader holding a guide pointer compares it before and
  // after reading the node's next word; equal counts mean every read in
  // between came from one life (DESIGN.md §3.3).  Aliasing needs 64
  // recycles of one block between a reader's two loads.
  static constexpr uint32_t kLifeShift = 26;
  static constexpr uint32_t kLifeMask = 0x3fu << kLifeShift;

  Ikey ikey() const { return ikey_.load(std::memory_order_relaxed); }
  NodeT* down() const { return down_.load(std::memory_order_relaxed); }
  NodeT* root() const { return root_.load(std::memory_order_relaxed); }
  uint32_t level() const {
    return meta.load(std::memory_order_relaxed) & 0xffu;
  }
  uint32_t orig_height() const {
    return (meta.load(std::memory_order_relaxed) >> 8) & 0xffu;
  }
  NodeKind kind() const {
    return static_cast<NodeKind>(
        (meta.load(std::memory_order_relaxed) >> 16) & 0xffu);
  }
  bool ready() const {
    return (meta.load(std::memory_order_acquire) & kReadyBit) != 0;
  }
  void set_ready() { meta.fetch_or(kReadyBit, std::memory_order_release); }
  bool linked() const {
    return (meta.load(std::memory_order_acquire) & kLinkedBit) != 0;
  }
  void set_linked() { meta.fetch_or(kLinkedBit, std::memory_order_release); }
  uint32_t life() const {
    return meta.load(std::memory_order_acquire) & kLifeMask;
  }
  // A usable search anchor reached through any pointer: a head, or an
  // interior node that has been linked (possibly marked since).
  bool anchorable() const {
    const uint32_t m = meta.load(std::memory_order_acquire);
    const auto k = static_cast<NodeKind>((m >> 16) & 0xffu);
    return k == NodeKind::kHead ||
           (k == NodeKind::kInterior && (m & kLinkedBit) != 0);
  }

  void init(Ikey ikey, uint32_t level, uint32_t orig_height, NodeKind kind,
            NodeT* down, NodeT* root) {
    next.store(0, std::memory_order_relaxed);
    ikey_.store(ikey, std::memory_order_relaxed);
    back.store(nullptr, std::memory_order_relaxed);
    down_.store(down, std::memory_order_relaxed);
    root_.store(root, std::memory_order_relaxed);
    prevw.store(0, std::memory_order_relaxed);
    stopw.store(0, std::memory_order_relaxed);
    meta.store(level | (orig_height << 8) |
                   (static_cast<uint32_t>(kind) << 16) |
                   (meta.load(std::memory_order_relaxed) & kLifeMask),
               std::memory_order_release);
  }

  // Turn retired storage into an obviously-invalid node.  Runs after the
  // EBR grace period; concurrent readers via stale guide pointers see either
  // the old fields or the poison values, never torn non-atomic data.
  void poison() {
    ikey_.store(ikey_all_ones<Ikey>(), std::memory_order_relaxed);
    back.store(nullptr, std::memory_order_relaxed);
    down_.store(nullptr, std::memory_order_relaxed);
    root_.store(nullptr, std::memory_order_relaxed);
    next.store(kMark, std::memory_order_relaxed);
    prevw.store(kMark, std::memory_order_relaxed);
    stopw.store(1, std::memory_order_relaxed);
    const uint32_t life =
        (meta.load(std::memory_order_relaxed) + (1u << kLifeShift)) &
        kLifeMask;
    meta.store(0xffu | (static_cast<uint32_t>(NodeKind::kPoison) << 16) |
                   life,
               std::memory_order_release);
  }
};

// The u64 fast path keeps the historical name; the templated engine uses
// NodeT<Traits::ikey_type> directly.
using Node = NodeT<uint64_t>;

static_assert(sizeof(Node) == kCacheLine, "Node must be one cache line");

}  // namespace skiptrie
