#include "skiplist/cursor.h"

#include <cstddef>

#include "common/stats.h"
#include "dcss/dcss.h"

namespace skiptrie {

namespace {
// A redescent may enter from the retained top row instead of the fallback
// (skipping the SkipTrie's hash probes) — but only for short jumps: the
// walk right from the retained position crosses one top node per top gap,
// so beyond a few gaps the fallback's O(log log u) probes are cheaper.  The
// jump length in gaps is estimated from the recorded top bracket's own
// width (right - left ikeys), the one sample of top spacing the cursor has.
constexpr uint64_t kTopEntryMaxGaps = 8;
}  // namespace

template <typename Traits>
auto BasicDescentCursor<Traits>::seek(Ikey x, StartFn fallback, void* env)
    -> Bracket {
  Engine& e = *eng_;
  const uint32_t top = e.top_level();
  auto& c = tls_counters();

  // Every retained node was traversed under the caller's current pin, so
  // none can have been recycled (cursor.h); a marked one may be unlinked
  // and is skipped.
  const auto row_validates = [&](uint32_t l) {
    return !is_marked(dcss_read(left_[l]->next));
  };

  if (warm_) {
    // Reuse: the lowest retained row whose bracket still contains x.
    // Containment against the *recorded* right ikey bounds the walk:
    // everything between left and x at seek time is at most what has been
    // inserted into the bracket since it was recorded.
    for (uint32_t l = 0; l <= top; ++l) {
      if (!(left_ikey_[l] < x && x <= right_ikey_[l])) continue;
      if (!row_validates(l)) continue;
      c.cursor_reuses++;
      return e.descend_from(x, left_[l], l, /*guide=*/false, left_, this);
    }
    c.cursor_redescends++;
    // Every bracket went stale, but on an ascending stream the retained
    // *top* row is still a position left of x — enter there and walk
    // right, skipping the fallback (for the SkipTrie: every hash probe
    // after the chunk's first key).  Amortized over a chunk, the top walk
    // crosses each top-level node of the swept range once.
    if (top_entry_usable(x) && row_validates(top)) {
      return e.descend_from(x, left_[top], top, /*guide=*/false, left_,
                            this);
    }
  } else {
    // Cold: head-fill every row first (the descent then overwrites the rows
    // it traverses), so rows above the entry never hold a stale node.
    warm_ = true;
    for (uint32_t l = 0; l <= top; ++l) {
      left_[l] = e.head_[l];
      left_ikey_[l] = Ikey(0);
      right_ikey_[l] = Ikey(0);
    }
  }
  Node_t* start = fallback != nullptr ? fallback(env, x) : e.head_[top];
  const uint32_t lvl = e.resolve_start(x, start);
  return e.descend_from(x, start, lvl, /*guide=*/true, left_, this);
}

template <typename Traits>
bool BasicDescentCursor<Traits>::top_entry_usable(Ikey x) const {
  const uint32_t top = eng_->top_level();
  if (!(left_ikey_[top] < x)) return false;  // descending/jumped-back stream
  const Ikey width = right_ikey_[top] - left_ikey_[top];
  if (width == Ikey(0)) return false;  // never-traversed row (0, 0)
  return (x - left_ikey_[top]) / width <= Ikey(kTopEntryMaxGaps);
}

template <typename Traits>
void BasicDescentCursor<Traits>::note_insert(
    const typename Engine::InsertResult& r, Ikey x, uint32_t height) {
  if (!r.inserted) return;  // duplicate: the seek already recorded the rows
  // The new level-0 node is the tightest possible left anchor for the next
  // ascending key; the old right bound still holds (the tower was linked
  // strictly before it).
  left_[0] = r.root;
  left_ikey_[0] = x;
  const uint32_t top = eng_->top_level();
  for (uint32_t l = 1; l <= height && l <= top; ++l) {
    // The raise loop advanced left_[l] in place (hints()); re-stamp the
    // recorded ikey to match the node the row now names.
    left_ikey_[l] = left_[l]->ikey();
  }
}

template <typename Traits>
void BasicDescentCursor<Traits>::note_erase(Ikey x) {
  (void)x;
  // The tower sweep advanced the hints at every level it searched; re-stamp
  // their ikeys.  Rows whose right bound *was* the erased key keep
  // right_ikey_ == x: containment for any later key fails there and the
  // seek enters one level up — the natural cost of deleting one's own
  // bracket edge.
  const uint32_t top = eng_->top_level();
  for (uint32_t l = 0; l <= top; ++l) {
    left_ikey_[l] = left_[l]->ikey();
  }
}

template class BasicDescentCursor<U64Traits>;
template class BasicDescentCursor<Bytes16Traits>;

}  // namespace skiptrie
