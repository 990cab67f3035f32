// Truncated lock-free skiplist engine (paper §2–§3).
//
// Levels 0..top_level each form a sorted Harris-style linked list with
// logical deletion (mark in the node's own `next` word), back pointers for
// recovery, and per-tower `stop` flags that halt concurrent raising when a
// delete claims the tower.  The top level additionally maintains the
// doubly-linked list of the paper's §3: `prev` guide pointers installed by
// fixPrev (Alg. 1) and repaired by toplevelDelete (Alg. 2) and by the
// insert of a new predecessor (Figure 2).
//
// The same engine powers both the SkipTrie's truncated skiplist
// (top_level = ceil(log2 B), i.e. log log u) and the full-height baseline
// skiplist (top_level ≈ log m) — the paper's comparison target.
//
// The engine is a template over KeyTraits (DESIGN.md §6): search keys are
// the traits' ikey word (uint64_t for U64Traits — the seed behavior, byte
// for byte — or u128 for Bytes16Traits), while every mutable link stays a
// tagged 64-bit pointer word.  `using SkipListEngine =
// BasicSkipListEngine<U64Traits>` keeps the historical name for the fast
// path; member definitions live in engine.cpp with explicit instantiations
// for both shipped traits.
//
// Concurrency contract: every public method must run under an
// EbrDomain::Guard on ctx.ebr (guards are reentrant; the SkipTrie wrapper
// pins once per operation).  Node storage comes from a type-stable
// SlabArena; see DESIGN.md §3.3 for why stale guide pointers are safe.
#pragma once

#include <cstdint>

#include "common/key_traits.h"
#include "dcss/dcss.h"
#include "reclaim/arena.h"
#include "skiplist/node.h"

namespace skiptrie {

template <typename Traits>
class BasicDescentCursor;

template <typename Traits>
class BasicSkipListEngine {
 public:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Cursor = BasicDescentCursor<Traits>;

  static constexpr uint32_t kMaxLevels = 40;  // supports the log-m baseline

  // top_level: index of the highest level (inclusive).
  BasicSkipListEngine(DcssContext ctx, SlabArena& arena, uint32_t top_level);
  ~BasicSkipListEngine();

  BasicSkipListEngine(const BasicSkipListEngine&) = delete;
  BasicSkipListEngine& operator=(const BasicSkipListEngine&) = delete;

  struct Bracket {
    Node_t* left;
    Node_t* right;
  };

  struct InsertResult {
    Node_t* root = nullptr;  // level-0 node; nullptr if the key was present
    Node_t* top = nullptr;   // top-level node if the tower reached top_level
    // CAS-fallback only: a top-level node we linked, then marked and
    // unlinked because a delete had already claimed the tower (DESIGN.md
    // §3.5(5)).  The caller must run the trie sweep for it, then
    // retire_node() it — while linked it may have entered the trie.
    Node_t* undone_top = nullptr;
    bool inserted = false;
  };

  struct EraseResult {
    bool erased = false;
    Node_t* top = nullptr;       // top-level node if one was removed
    Node_t* top_left = nullptr;  // top-level left hint for the trie sweep
    // Tower nodes this operation owns (mark-CAS winner); retire after the
    // trie sweep via retire_tower().
    Node_t* owned[kMaxLevels + 1];
    uint32_t owned_count = 0;
  };

  uint32_t top_level() const { return top_; }
  Node_t* head(uint32_t level) const { return head_[level]; }
  Node_t* tail() const { return tail_; }
  const DcssContext& ctx() const { return ctx_; }

  // The paper's listSearch(x, start) at a given level: returns (left, right)
  // with left.ikey < x <= right.ikey such that left was unmarked and
  // left.next == right at some point during the call; unlinks marked nodes
  // it crosses.  `start` is only a hint — it is validated and the search
  // falls back to the level head when the hint is unusable (stale guides,
  // poisoned storage, wrong level).  Pass guide = true unless `start` was
  // traversed under the caller's current EBR pin: a guide may name a
  // recycled block, so it must also carry the linked bit and keep one life
  // across the read of its next word (DESIGN.md §3.3).
  Bracket list_search(Ikey x, Node_t* start, uint32_t level,
                      bool guide = false);

  // Descend from `start` (any level; validated) to level 0, returning the
  // level-0 bracket.  If hints != nullptr it receives the per-level left
  // nodes (size must be >= top_level()+1).  This is the paper's descent
  // (Alg. 5) that every single-key operation runs: the SkipTrie starts it
  // at the x-fast pred_start, the baseline at the top-level head.
  // perfbench's per-layer report also calls it directly; keep the signature.
  Bracket descend(Ikey x, Node_t* start, Node_t** hints = nullptr);

  // Insert ikey with tower height `height` (0..top_level), starting the
  // search from `start`.  Duplicate detection is exact at level 0.
  InsertResult insert(Ikey x, Node_t* start, uint32_t height);

  // Delete ikey, starting from `start`.  Claims the tower via the root's
  // stop word, then removes the tower top-down (paper Alg. 2 / §2).
  EraseResult erase(Ikey x, Node_t* start);

  // --- Cursor entry points (DESIGN.md §3.7) --------------------------------
  // The batch API's descent seam, built on BasicDescentCursor
  // (skiplist/cursor.h): a resumable per-level bracket position.  A warm
  // cursor whose retained bracket still contains x enters the descent at
  // the lowest such level; otherwise `fallback(env, x)` lazily supplies the
  // start node (nullptr fallback means the top-level head).  Every seek
  // since the cursor's last invalidate() must run under one EBR pin.
  using StartFn = Node_t* (*)(void* env, Ikey x);

  Bracket cursor_descend(Cursor& cur, Ikey x, StartFn fallback, void* env);
  InsertResult cursor_insert(Cursor& cur, Ikey x, uint32_t height,
                             StartFn fallback, void* env);
  EraseResult cursor_erase(Cursor& cur, Ikey x, StartFn fallback, void* env);

  // The calling thread's persistent cursor for this engine (defined in
  // engine.cpp); the batch API streams each call's keys through it.
  Cursor& cursor();

  // Kept only for perfbench's per-layer report, which still calls them.
  // fingered_descend is descend() from fallback(env, x) (the top-level head
  // when fallback is nullptr); min_level is ignored.
  Bracket fingered_descend(Ikey x, uint32_t min_level, StartFn fallback,
                           void* env, Node_t** hints = nullptr);
  // Kept only for perfbench's empty-op span: the same object as cursor().
  Cursor& finger() { return cursor(); }

  // Algorithm 1.  Installs node.prev via DCSS guarded on the predecessor
  // remaining unmarked and adjacent; sets node.ready on exit.
  void fix_prev(Node_t* hint, Node_t* node);

  // Helper used by the trie's delete sweep (Alg. 7 line 16): propagate
  // right's mark into its prev word, or repair right.prev = left.
  void make_done(Node_t* left, Node_t* right);

  // Walk left from `from` until reaching a node with ikey < x, following
  // back pointers on marked nodes and prev pointers otherwise (Alg. 4 body).
  // Returns a linked top-level node or the top-level head: a node at any
  // other level (storage a stale guide names, recycled into a lower tower)
  // dead-ends like poison, and every dead end or an over-long walk falls
  // back to the head (DESIGN.md §3.3).
  Node_t* walk_left(Ikey x, Node_t* from);

  // Retire an owned tower (from EraseResult) after any trie sweep.
  void retire_owned(const EraseResult& r);
  // Retire a single never-published or owned node.
  void retire_node(Node_t* n);

  // --- Introspection (tests / benches; not linearizable snapshots) ---
  // First interior node at `level` (skips marked), nullptr when empty.
  Node_t* first_at(uint32_t level) const;
  // Next interior node after n at its level (skips marked), nullptr when
  // only the tail follows.  insert_from also uses it to find the successor
  // whose prev it repairs (DESIGN.md §3.5(7)).
  Node_t* next_at(Node_t* n) const;
  size_t approx_bytes() const { return arena_.bytes_reserved(); }

  // Allocate + initialize an interior node (exposed for the baseline).
  Node_t* make_node(Ikey ikey, uint32_t level, uint32_t orig_height,
                    Node_t* down, Node_t* root);

 private:
  friend class BasicDescentCursor<Traits>;

  enum class RaiseStatus {
    kOk,                   // linked at this level
    kStoppedUnpublished,   // not linked (or undone and already retired)
    kStoppedPublished,     // top-level CAS-fallback undo: caller must
                           // trie-sweep then retire the marked node
  };

  // Kind/level/ikey screen of a search anchor; a guide (see list_search)
  // must also carry the linked bit.
  bool usable_start(Node_t* n, Ikey x, uint32_t level, bool guide) const;
  // Validate `cur` as a descent start; falls back to the top-level head
  // (counting a restart).  Returns the level the descent begins at.
  uint32_t resolve_start(Ikey x, Node_t*& cur);
  // Core descent loop from (cur, lvl): fills hints[l] for every traversed
  // level (callers pre-fill untraversed levels) and, when rec != nullptr,
  // records every traversed bracket into the cursor's rows (hints is then
  // rec's own left array).  `guide` says whether cur is a guide (see
  // list_search); every lower level starts from a traversed node.
  Bracket descend_from(Ikey x, Node_t* cur, uint32_t lvl, bool guide,
                       Node_t** hints, Cursor* rec = nullptr);
  // Post-descent bodies shared by the single-key and cursor entry points.
  InsertResult insert_from(Ikey x, uint32_t height, Node_t** hints,
                           Bracket b);
  EraseResult erase_from(Ikey x, Node_t** hints, Bracket b0);
  // Marks n (setting back to back_hint first).  Returns true iff this call's
  // CAS performed the unmarked->marked transition (ownership for retiring).
  bool mark_node(Node_t* n, Node_t* back_hint);
  void set_prev_mark(Node_t* n);
  // Raise the tower one level; stopped when claimed or a same-key node
  // exists at the level.
  RaiseStatus raise_level(Node_t* root, Node_t* nnode, Ikey x, uint32_t lvl,
                          Node_t*& hint);
  // Find the tower node of `root` at `level` (walking equal-key runs);
  // nullptr if not present.
  Node_t* find_tower_node(Ikey x, Node_t* root, uint32_t level, Node_t*& left);

  DcssContext ctx_;
  SlabArena& arena_;
  const uint32_t top_;
  const uint64_t owner_;  // cursor-registry key (cursor.h)
  Node_t* head_[kMaxLevels + 1];
  Node_t* tail_;
};

// The historical u64 fast-path names.
using SkipListEngine = BasicSkipListEngine<U64Traits>;

}  // namespace skiptrie
