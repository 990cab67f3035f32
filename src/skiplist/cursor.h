// Resumable descent position over a SkipListEngine (DESIGN.md §3.7).
//
// A DescentCursor owns the per-level bracket state that a descent produces —
// for every level, the left node it passed through plus the ikeys that
// bracketed the target — and can be *reseeked* to a new key: when the new
// key still falls inside a retained bracket, the descent enters at the
// lowest such level, skipping the operation's fallback start (for the
// SkipTrie, the whole x-fast `lowest_ancestor` query) and every level above
// the entry.  Sorted key streams (the batch API, src/core/batch.h) therefore
// pay one full descent for the first key of each pinned chunk and
// O(1 + log distance) levels per key after it.  Single-key operations do
// not use a cursor: they run the engine's plain descend() from their own
// start.
//
// Safety: a retained row is only sound under the EBR pin it was recorded
// under.  After that pin ends its node may be retired, recycled and
// re-initialized by a same-key insert that has not linked it yet — storage
// that passes every identity screen (kind, level, ikey, unmarked) yet is
// unreachable, so a descent entered there answers from outside the set.
// Callers therefore hold one pin across every seek since the last
// invalidate() and invalidate at each new pin (batch_detail::
// for_each_sorted_pinned does both).  Under that contract no retained node
// can be recycled, and a seek only checks that the row's left node is
// unmarked before reusing it; list_search still re-validates the start.
//
// A DescentCursor is single-threaded state, like a stack variable: it must
// not be shared between threads, and it holds no resources (no pin, no
// allocation), so abandoning one at any time is free.  The batch API uses
// the calling thread's persistent cursor (`tls_cursor`, keyed by a
// never-reused engine owner id).
//
// Like the engine, the cursor is a template over KeyTraits (DESIGN.md §6) —
// retained ikeys take the traits' ikey word, and each instantiation keeps
// its own per-thread registry.
#pragma once

#include <cstddef>
#include <cstdint>

#include "skiplist/engine.h"

namespace skiptrie {

template <typename Traits>
class BasicDescentCursor {
 public:
  using Engine = BasicSkipListEngine<Traits>;
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Bracket = typename Engine::Bracket;
  using StartFn = typename Engine::StartFn;

  explicit BasicDescentCursor(Engine& engine) : eng_(&engine) {}

  BasicDescentCursor(const BasicDescentCursor&) = delete;
  BasicDescentCursor& operator=(const BasicDescentCursor&) = delete;

  // Position the cursor at x, returning the level-0 bracket
  // (left.ikey < x <= right.ikey).  A warm cursor first reuses the lowest
  // retained bracket that contains x (counted in steps.cursor_reuses), else
  // enters at its retained top row when x is a short jump to the right,
  // else runs `fallback` (both counted in steps.cursor_redescends).  A cold
  // cursor runs `fallback` and counts neither.
  Bracket seek(Ikey x, StartFn fallback, void* env);

  // Per-level left hints of the last seek (size engine.top_level()+1),
  // in the exact shape insert_from/erase_from consume (and mutate).
  Node_t** hints() { return left_; }

  // Drop every retained bracket; the next seek takes the cold path.  Call
  // at every new EBR pin (see the file comment).
  void invalidate() { warm_ = false; }

  // Fold a just-completed insert of x (tower height `height`) into the
  // retained brackets: the new tower becomes the level-0 left anchor and
  // the raise-refreshed hints get matching ikeys, so the next ascending
  // key enters beside the key just inserted.
  void note_insert(const typename Engine::InsertResult& r, Ikey x,
                   uint32_t height);
  // Fold a just-completed erase of x into the retained brackets (the tower
  // sweep moved the hints; re-stamp their ikeys so the containment screen
  // matches the nodes the rows now name).
  void note_erase(Ikey x);

 private:
  friend class BasicSkipListEngine<Traits>;

  // Short-jump screen for entering a redescent at the retained top row
  // rather than the fallback (see kTopEntryMaxGaps in cursor.cpp).
  bool top_entry_usable(Ikey x) const;

  Engine* eng_;
  bool warm_ = false;
  // Rows 0..engine.top_level().  A row not yet traversed by any seek holds
  // (head, 0, 0): a valid search start, but right_ikey_ = 0 can never
  // contain a target (ikeys are >= 1), so it is never "reused".
  Node_t* left_[Engine::kMaxLevels + 1];
  Ikey left_ikey_[Engine::kMaxLevels + 1];
  Ikey right_ikey_[Engine::kMaxLevels + 1];
};

// The calling thread's persistent cursor for the engine identified by
// `owner` (see SkipListEngine::cursor()).  The returned reference stays
// valid — and keeps denoting the same engine's cursor — until that engine
// is destroyed; fetching cursors for any number of other engines never
// rebinds it (DESIGN.md §4.2).  Slots of destroyed engines are swept lazily
// through the dead-owner journal.  One registry per traits instantiation.
template <typename Traits>
BasicDescentCursor<Traits>& tls_cursor(uint64_t owner,
                                       BasicSkipListEngine<Traits>& engine);

// Unique, never-reused owner id — one per engine instance (any traits).
uint64_t new_cursor_owner();

// Called by the engine's destructor: records `owner` in the dead-owner
// journal so every thread's cursor registry drops its slot for it on its
// next lookup (keeping registry growth bounded by the engines actually
// alive).  Safe from any thread; must not race the owner's own engine
// still being used.
void release_cursor_owner(uint64_t owner);

// Test hook: number of live slots in the calling thread's cursor registry
// for this traits instantiation.
template <typename Traits>
size_t tls_cursor_registry_size_of();

// The historical u64 names.
using DescentCursor = BasicDescentCursor<U64Traits>;
size_t tls_cursor_registry_size();

}  // namespace skiptrie
