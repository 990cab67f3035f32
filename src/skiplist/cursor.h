// Resumable descent position over a SkipListEngine (DESIGN.md §3.7).
//
// A DescentCursor owns the per-level bracket state that a descent produces —
// for every level, the left node it passed through plus the ikeys that
// bracketed the target — and can be *reseeked* to a new key: when the new
// key still falls inside a retained bracket, the descent enters at the
// lowest such level, skipping the operation's fallback start (for the
// SkipTrie, the whole x-fast `lowest_ancestor` query) and every level above
// the entry.  Sorted key streams (the batch API, src/core/batch.h) therefore
// pay one full descent for the first key and O(1 + log distance) levels per
// key after it; a cold cursor degenerates to exactly the PR 4 fingered entry
// protocol, which is how the single-key operations route through this same
// seam (they construct a fresh cursor per call).
//
// Safety is the finger story (DESIGN.md §3.6) verbatim: retained nodes may
// be retired, poisoned and recycled between seeks (the batch loop re-pins
// EBR per key), so every reuse candidate is screened by identity
// (kind/level/ikey), unmarkedness, and bracket containment before it is
// trusted — and even then it is only a start *hint* that `list_search`
// re-validates.  A stale cursor costs steps, never answers.
//
// A DescentCursor is single-threaded state, like a stack variable: it must
// not be shared between threads, and it holds no resources (no pin, no
// allocation), so abandoning one at any time is free.  The batch API uses
// the calling thread's persistent cursor (`tls_cursor`, keyed by the same
// never-reused engine owner id as the finger registry), so consecutive
// batches skip the cold first descent too; rows retained across calls are
// as stale as any finger entry and pass through the same screens.
//
// Like the engine and finger, the cursor is a template over KeyTraits
// (DESIGN.md §6) — retained ikeys take the traits' ikey word, and each
// instantiation keeps its own per-thread registry.
#pragma once

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

  // Re-seat this cursor onto another engine; drops every retained bracket.
  // The tls registry never calls this (slots are stable per owner,
  // DESIGN.md §4.2) — it exists for callers that own a cursor directly.
  void rebind(Engine& engine) {
    eng_ = &engine;
    warm_ = false;
    rows_real_ = false;
  }

  // Position the cursor at x, returning the level-0 bracket
  // (left.ikey < x <= right.ikey).  A warm cursor first tries to reuse a
  // retained bracket (counted in steps.cursor_reuses; a warm seek whose
  // brackets all fail counts in steps.cursor_redescends); a cold cursor —
  // or a failed reuse — runs the fingered entry protocol: consult the
  // calling thread's SearchFinger at `cold_min_level`, else `fallback`.
  // Write streams pass cold_min_level = top so that every retained row is
  // descent-fresh or a prior row, never a bare level head (their raise and
  // tower-sweep phases consume hints at every level; see cursor.cpp).
  Bracket seek(Ikey x, uint32_t cold_min_level, StartFn fallback, void* env);

  // Per-level left hints of the last seek (size engine.top_level()+1),
  // in the exact shape insert_from/erase_from consume (and mutate).
  Node_t** hints() { return left_; }

  bool warm() const { return warm_; }
  // Drop every retained bracket; the next seek takes the cold path.
  void invalidate() {
    warm_ = false;
    rows_real_ = false;
  }

  // Fold a just-completed insert of x (tower height `height`) into the
  // retained brackets: the new tower becomes the level-0 left anchor and
  // the raise-refreshed hints get matching ikeys, so the next ascending
  // key enters beside the key just inserted.
  void note_insert(const typename Engine::InsertResult& r, Ikey x,
                   uint32_t height);
  // Fold a just-completed erase of x into the retained brackets (the tower
  // sweep moved the hints; re-stamp their ikeys so the reuse screen and the
  // identity validation agree on what was recorded).
  void note_erase(Ikey x);

 private:
  friend class BasicSkipListEngine<Traits>;

  // Short-jump screen for entering a redescent at the retained top row
  // rather than the fallback (see kTopEntryMaxGaps in cursor.cpp).
  bool top_entry_usable(Ikey x) const;

  Engine* eng_;
  bool warm_ = false;
  // True once some descent entered at the top, i.e. every row holds a real
  // bracket rather than the bare level heads a cold partial descent leaves
  // above its entry.  Until then warm entries are gated at the caller's
  // cold_min_level so write paths never consume bare-head hints.
  bool rows_real_ = false;
  // Rows 0..engine.top_level().  A row not yet traversed by any seek holds
  // (head, 0, 0): a valid search start, but right_ikey_ = 0 can never
  // contain a target (ikeys are >= 1), so it is never "reused".
  Node_t* left_[Engine::kMaxLevels + 1];
  Ikey left_ikey_[Engine::kMaxLevels + 1];
  Ikey right_ikey_[Engine::kMaxLevels + 1];
};

// The calling thread's persistent cursor for the engine identified by
// `owner` (the finger registry's owner ids; see SkipListEngine::cursor()).
// Like tls_finger, the returned reference stays valid — and keeps denoting
// the same engine's cursor — until that engine is destroyed; fetching
// cursors for any number of other engines never rebinds it (DESIGN.md
// §4.2).  Dead owners are swept lazily via the shared journal in
// finger.cpp.  One registry per traits instantiation.
template <typename Traits>
BasicDescentCursor<Traits>& tls_cursor(uint64_t owner,
                                       BasicSkipListEngine<Traits>& engine);

// Test hook: number of live slots in the calling thread's cursor registry
// for this traits instantiation.
template <typename Traits>
size_t tls_cursor_registry_size_of();

// The historical u64 names.
using DescentCursor = BasicDescentCursor<U64Traits>;
size_t tls_cursor_registry_size();

}  // namespace skiptrie
