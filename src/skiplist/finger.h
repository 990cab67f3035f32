// Per-thread descent context ("search finger") for the skiplist engine.
//
// PR 3 drove hash probes down to ~log B, leaving node hops as the dominant
// predecessor cost (~2.3 visits per level of the descent plus the top-level
// walk).  The finger attacks that constant with distribution-adaptive reuse:
// every descent records, per level, the bracket (left, right) it traversed,
// and the next operation whose target falls inside a remembered level-l
// bracket starts its descent *at level l* — skipping levels l..top and, in
// the SkipTrie, the whole x-fast lowest_ancestor query (hash probes) too.
// On skewed workloads (zipf, clustered) consecutive operations concentrate
// on few brackets, so hits are frequent; on uniform workloads the finger
// almost never hits and costs only a few thread-local compares per descent.
//
// Safety (DESIGN.md §3.6): a finger outlives the EBR pin that recorded it,
// so a remembered node may have been retired — and, after a grace period,
// recycled into a different node — by the time it is reused.  Storage is
// type-stable (SlabArena never returns node memory to the OS), so the
// dereference is always a valid Node read; validation then rejects anything
// that is poisoned, re-leveled, re-keyed or marked, and an epoch check
// rejects brackets old enough for recycling to have been possible at all.
// A finger that survives validation is still only a *hint*: list_search
// re-validates its start and falls back to the level head, so correctness
// never depends on the finger — only the step count does.
//
// Fingers are thread-local and keyed by a never-reused per-engine owner id,
// so a finger recorded against a destroyed engine can never be consulted by
// a live one.  No finger is ever shared between threads.  The finger is a
// template over KeyTraits (DESIGN.md §6): bracket ikeys take the traits'
// ikey word, and each instantiation keeps its *own* per-thread registry, so
// a Bytes16 engine's brackets can never perturb (or be consulted by) a u64
// engine's descents.
//
// The per-thread registry grows on demand — one slot per live engine the
// thread has touched — and returns a *stable* object per owner: a slot is
// never rebound to another engine while its owner is alive, so references
// obtained for different engines never alias (DESIGN.md §4.2; the PR 4/5
// fixed-4-slot round-robin registry recycled objects in place, which both
// aliased held references and kept every finger permanently cold once a
// thread cycled through more engines than slots — exactly what a sharded
// split batch does).  Growth is bounded by *live* engines: destroyed
// engines release their owner id into a journal and each thread's registry
// drops the matching slots lazily on its next lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/key_traits.h"
#include "skiplist/node.h"

namespace skiptrie {

template <typename Traits>
class BasicSearchFinger {
 public:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;

  // Levels 0..kLevels-1 are cached.  The SkipTrie's truncated skiplist has
  // at most 7 levels (B=64; 8 levels at B=128 — still fully covered), so it
  // is fully covered; the full-height baseline only fingers its lowest
  // levels — exactly the ones whose hits skip the most work.
  static constexpr uint32_t kLevels = 8;
  // Brackets remembered per level.  Sized so the hot set of a zipf(0.99)
  // stream (a few dozen keys carrying ~30% of the mass) stays resident;
  // note a hot key consumes two level-0 entries (predecessor queries use
  // the (k, succ] bracket, membership queries (pred, k]), so the effective
  // hot-key capacity is kWays/2.  Misses scan every way of every level
  // with thread-local compares only, so the scan stays cache-resident.
  static constexpr uint32_t kWays = 32;
  // A bracket recorded more than this many global epochs ago is dropped.
  // This is a quality screen, not a correctness gate: identity validation
  // plus the type-stable arena already make any surviving entry a safe
  // descent start (DESIGN.md §3.6) — the only thing an ancient bracket can
  // still do is name a recycled same-key node that is momentarily unlinked,
  // costing a validation restart inside list_search.  The lag bounds how
  // often that happens under churn while leaving slow-moving hot brackets
  // (epochs advance only with retirement pressure) servable.
  static constexpr uint64_t kMaxEpochLag = 16;
  // How many levels below its entry level a descent records (the frequency
  // cascade — see descend_from): misses seed only the top rows; a target
  // must hit at level l to earn entries at l-1..l-kRecordDepth.  Hot keys
  // therefore sink kRecordDepth rows per repeat until they finger at level
  // 0, while the cold tail never reaches (and never evicts) the low rows.
  // Measured on zipf read_heavy at B=32: depth 1 beats 2 beats unlimited.
  static constexpr uint32_t kRecordDepth = 1;
  static constexpr int kMiss = -1;

  // One remembered bracket: the level's left node, the ikeys bracketing the
  // descent that recorded it, and the global epoch at record time.  `ref`
  // is the second-chance bit: set when the entry serves a hit or is
  // re-recorded, cleared as the victim clock sweeps past.  Without it the
  // per-level rings are FIFO, and on zipf streams the cold tail (most
  // draws) cycles a ring long before a hot bracket repeats — hot entries
  // must survive on use, not on recency of insertion.
  struct Entry {
    Node_t* left = nullptr;
    Ikey left_ikey = Ikey(0);
    Ikey right_ikey = Ikey(0);
    uint64_t epoch = 0;
    bool ref = false;
  };

  // (Re)bind this finger to engine `owner` with levels 0..top_level; drops
  // every cached bracket.
  void reset(uint64_t owner, uint32_t top_level);
  uint64_t owner() const { return owner_; }
  // Highest cacheable row.  Engines taller than kLevels must anchor the
  // record cascade here, not at their top — otherwise every miss records
  // only uncacheable levels and the finger never warms.
  uint32_t max_level() const { return levels_ - 1; }

  // Remember the level-`lvl` bracket a descent just traversed.  An entry
  // with the same left_ikey is updated in place (keeping its second
  // chance); otherwise the clock hand evicts the first entry it finds
  // whose ref bit is clear, clearing set bits as it sweeps.
  void record(uint32_t lvl, Node_t* left, Ikey left_ikey, Ikey right_ikey,
              uint64_t epoch);

  // Lowest cached level >= min_level holding a bracket that contains x
  // (left_ikey < x <= right_ikey) whose left node still validates (live
  // interior/head node at that level, same ikey, unmarked, epoch-fresh)
  // and is still adjacent to x (no node strictly between — see the
  // use-time adjacency check in the implementation).  Returns that level
  // and sets *out (marking the entry referenced), or returns kMiss.  Must
  // be called with the owner's EBR domain pinned.
  int try_start(Ikey x, uint32_t min_level, uint64_t now_epoch, Node_t** out);

  // Drop every cached bracket but keep the owner binding.
  void invalidate();

 private:
  uint64_t owner_ = 0;
  uint32_t levels_ = 0;  // min(top_level + 1, kLevels)
  uint32_t cursor_[kLevels] = {};
  Entry e_[kLevels][kWays];
};

// The calling thread's finger for the engine identified by `owner` (ids
// come from new_finger_owner() and are never reused).  The returned
// reference stays valid — and keeps denoting the same engine's finger —
// until the owning engine is destroyed; fetching fingers for any number of
// other engines never invalidates or rebinds it.  One registry per traits
// instantiation (see file comment).
template <typename Traits>
BasicSearchFinger<Traits>& tls_finger(uint64_t owner, uint32_t top_level);

// Unique, never-reused owner id — one per engine instance (any traits).
uint64_t new_finger_owner();

// Called by the engine's destructor: records `owner` in the dead-owner
// journal so every thread's finger/cursor registries drop their slots for
// it on their next lookup (keeping registry growth bounded by the engines
// actually alive).  Safe from any thread; must not race the owner's own
// engine still being used.
void release_finger_owner(uint64_t owner);

namespace detail {
// Dead-owner journal, shared by the finger and cursor registries of every
// traits instantiation (cursor.cpp): monotone version = number of owners
// ever released.
uint64_t dead_owner_version();
// Appends owners released since journal position `since` to `out` and
// returns the new position.
uint64_t dead_owners_since(uint64_t since, std::vector<uint64_t>& out);
}  // namespace detail

// Test hook: number of live slots in the calling thread's finger registry
// for this traits instantiation.
template <typename Traits>
size_t tls_finger_registry_size_of();

// The historical u64 names.
using SearchFinger = BasicSearchFinger<U64Traits>;
size_t tls_finger_registry_size();

}  // namespace skiptrie
