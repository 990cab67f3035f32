#include "skiplist/engine.h"

#include <cassert>
#include <new>

#include "common/backoff.h"
#include "common/stats.h"
#include "skiplist/cursor.h"

namespace skiptrie {

namespace {
// Guide walks (back/prev chains) are bounded before falling back to the
// level head; the bound only matters when stale guides loop through recycled
// storage, which validation makes rare.
constexpr uint32_t kWalkLimit = 4096;
// fixPrev retry bound: each retry implies a concurrent operation changed the
// neighborhood, so a bounded loop preserves lock-freedom; on exhaustion the
// prev pointer simply stays stale (it is a guide, repaired by later ops).
constexpr int kFixPrevRetries = 128;
// Bound on equal-key runs scanned when locating a tower node.
constexpr uint32_t kEqualRunLimit = 64;

}  // namespace

template <typename Traits>
BasicSkipListEngine<Traits>::BasicSkipListEngine(EbrDomain& ebr,
                                                 SlabArena& arena,
                                                 uint32_t top_level)
    : ebr_(ebr), arena_(arena), top_(top_level) {
  assert(top_ >= 1 && top_ <= kMaxLevels);
  assert(arena_.block_size() >= sizeof(Node_t));
  bool fresh = false;
  tail_ = new (arena_.allocate(&fresh)) Node_t();
  tail_->init(Traits::ikey_max(), 0xfe, 0, NodeKind::kTail, nullptr, nullptr);
  for (uint32_t l = 0; l <= top_; ++l) {
    head_[l] = new (arena_.allocate(&fresh)) Node_t();
    head_[l]->init(Ikey(0), l, top_, NodeKind::kHead,
                   l > 0 ? head_[l - 1] : nullptr, nullptr);
    head_[l]->next.store(pack_ptr(tail_), std::memory_order_release);
  }
}

// Out of line: destroying cursors_ needs the complete cursor type.  The
// arena owns all node storage.
template <typename Traits>
BasicSkipListEngine<Traits>::~BasicSkipListEngine() = default;

template <typename Traits>
auto BasicSkipListEngine<Traits>::cursor() -> Cursor& {
  return cursors_.local(*this);
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::make_node(Ikey ikey, uint32_t level,
                                            uint32_t orig_height, Node_t* down,
                                            Node_t* root) -> Node_t* {
  bool fresh = false;
  void* storage = arena_.allocate(&fresh);
  // Recycled blocks still hold a live (poisoned) Node — re-initialize in
  // place; only brand-new storage gets placement-new (DESIGN.md §3.3).
  Node_t* n = fresh ? new (storage) Node_t() : static_cast<Node_t*>(storage);
  n->init(ikey, level, orig_height, NodeKind::kInterior, down, root);
  return n;
}

template <typename Traits>
void BasicSkipListEngine<Traits>::retire_owned(const EraseResult& r) {
  tls_counters().retired_nodes += r.owned_count;
  for (uint32_t i = 0; i < r.owned_count; ++i) {
    ebr_.retire(
        r.owned[i],
        +[](void* p, void* a) {
          auto* node = static_cast<Node_t*>(p);
          node->poison();
          static_cast<SlabArena*>(a)->recycle(node);
        },
        &arena_);
  }
}

template <typename Traits>
bool BasicSkipListEngine<Traits>::usable_start(Node_t* n, Ikey x,
                                               uint32_t level,
                                               bool guide) const {
  if (n == nullptr) return false;
  if (guide) {
    if (!n->anchorable()) return false;
  } else {
    const NodeKind k = n->kind();
    if (k != NodeKind::kInterior && k != NodeKind::kHead) return false;
  }
  if (n->level() != level) return false;
  return n->ikey() < x;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::list_search(Ikey x, Node_t* start,
                                              uint32_t level, bool guide)
    -> Bracket {
  assert(level <= top_);
  auto& c = tls_counters();
  Node_t* left = start;
  for (;;) {
    // A guide may name a block that is recycled at any moment (DESIGN.md
    // §3.3): its life count, read before the screen and again after the
    // next word, shows whether all of those reads came from one life.
    const uint32_t life = guide && left != nullptr ? left->life() : 0;
    if (!usable_start(left, x, level, guide)) {
      c.restarts++;
      left = head_[level];
      guide = false;
    }
    Node_t* pred = left;
    const uint64_t pred_word = dcss_read(pred->next);
    if (guide && pred->life() != life) {
      c.restarts++;
      left = head_[level];
      guide = false;
      continue;
    }
    if (is_marked(pred_word)) {
      // Our anchor got marked: recover through its back pointer, a guide
      // (validated at the top of the loop; falls back to the head if it is
      // stale or poisoned).
      c.back_steps++;
      c.bytes_touched += kCacheLine;
      left = pred->back.load(std::memory_order_acquire);
      guide = true;
      continue;
    }
    // An unmarked word read under the pin from a linked life: the anchor
    // cannot be recycled before the pin ends, like any traversed node.
    guide = false;
    Node_t* curr = unpack_ptr<Node_t>(pred_word);
    bool restart = false;
    while (!restart) {
      if (curr == nullptr) {  // defensive: only poisoned chains end in null
        c.restarts++;
        left = head_[level];
        restart = true;
        break;
      }
      c.node_hops++;
      c.bytes_touched += kCacheLine;  // one node == one line (DESIGN.md §5.5)
      if (level == top_) {
        c.hops_top++;  // attribution only; hops_top+hops_descent == node_hops
      } else {
        c.hops_descent++;
      }
      const uint64_t curr_word = dcss_read(curr->next);
      if (is_marked(curr_word)) {
        // curr is logically deleted: unlink it from pred.  The CAS can only
        // succeed while pred is unmarked (the mark would change the word),
        // which is exactly what makes the unlink safe.
        if (!counted_cas(pred->next, pack_ptr(curr),
                         without_tags(curr_word))) {
          left = pred;  // neighborhood changed; revalidate from pred
          restart = true;
          break;
        }
        curr = unpack_ptr<Node_t>(without_tags(curr_word));
        continue;
      }
      if (curr->ikey() >= x) {
        return Bracket{pred, curr};
      }
      pred = curr;
      curr = unpack_ptr<Node_t>(curr_word);
    }
  }
}

template <typename Traits>
uint32_t BasicSkipListEngine<Traits>::resolve_start(Ikey x, Node_t*& cur) {
  if (cur != nullptr && cur->anchorable() && cur->level() <= top_ &&
      cur->ikey() < x) {
    return cur->level();
  }
  tls_counters().restarts++;
  cur = head_[top_];
  return top_;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::descend_from(Ikey x, Node_t* cur,
                                               uint32_t lvl, bool guide,
                                               Node_t** hints, Cursor* rec)
    -> Bracket {
  for (;;) {
    Bracket b = list_search(x, cur, lvl, guide);
    guide = false;  // down() of a traversed node is traversed too
    if (hints != nullptr) hints[lvl] = b.left;
    if (rec != nullptr) {
      rec->left_[lvl] = b.left;
      rec->left_ikey_[lvl] = b.left->ikey();
      rec->right_ikey_[lvl] = b.right->ikey();
    }
    if (lvl == 0) return b;
    // The next level's bracket often ends at right's tower node one level
    // down: for an absent key whenever that node was promoted (p = 1/2),
    // for a present key at every level below its tower's top.  Ask for its
    // line while the walk there starts (DESIGN.md §2.5).
    if (b.right->kind() == NodeKind::kInterior) prefetch_line(b.right->down());
    --lvl;
    cur = b.left->kind() == NodeKind::kHead ? head_[lvl] : b.left->down();
    if (cur == nullptr) cur = head_[lvl];  // defensive
  }
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::descend(Ikey x, Node_t* start,
                                          Node_t** hints) -> Bracket {
  if (hints != nullptr) {
    for (uint32_t l = 0; l <= top_; ++l) hints[l] = head_[l];
  }
  Node_t* cur = start;
  const uint32_t lvl = resolve_start(x, cur);
  return descend_from(x, cur, lvl, /*guide=*/true, hints);
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::cursor_descend(Cursor& cur, Ikey x,
                                                 StartFn fallback, void* env)
    -> Bracket {
  return cur.seek(x, fallback, env);
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::cursor_insert(Cursor& cur, Ikey x,
                                                uint32_t height,
                                                StartFn fallback, void* env)
    -> InsertResult {
  Bracket b = cur.seek(x, fallback, env);
  InsertResult r = insert_from(x, height, cur.hints(), b);
  cur.note_insert(r, x, height);
  return r;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::cursor_erase(Cursor& cur, Ikey x,
                                               StartFn fallback, void* env)
    -> EraseResult {
  Bracket b0 = cur.seek(x, fallback, env);
  EraseResult r = erase_from(x, cur.hints(), b0);
  cur.note_erase(x);
  return r;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::fingered_descend(Ikey x, uint32_t min_level,
                                                   StartFn fallback, void* env,
                                                   Node_t** hints)
    -> Bracket {
  (void)min_level;
  return descend(x, fallback != nullptr ? fallback(env, x) : head_[top_],
                 hints);
}

template <typename Traits>
bool BasicSkipListEngine<Traits>::mark_node(Node_t* n, Node_t* back_hint) {
  Backoff bo;
  for (;;) {
    const uint64_t w = dcss_read(n->next);
    if (is_marked(w)) return false;
    if (back_hint != nullptr) {
      n->back.store(back_hint, std::memory_order_release);
    }
    if (counted_cas(n->next, w, with_mark(w))) return true;
    bo.spin();  // the next word is contended (racing unlink/insert/delete)
  }
}

template <typename Traits>
void BasicSkipListEngine<Traits>::set_prev_mark(Node_t* n) {
  Backoff bo;
  for (;;) {
    const uint64_t pv = dcss_read(n->prevw);
    if (is_marked(pv)) return;
    if (counted_cas(n->prevw, pv, with_mark(pv))) return;
    bo.spin();
  }
}

template <typename Traits>
void BasicSkipListEngine<Traits>::fix_prev(Node_t* hint, Node_t* node) {
  // Algorithm 1, with ready set on every exit path (DESIGN.md §3.5(2)).
  const Ikey x = node->ikey();
  Bracket b = list_search(x, hint, top_);
  Backoff bo;
  for (int i = 0; i < kFixPrevRetries; ++i) {
    if (is_marked(dcss_read(node->next))) break;  // node being deleted
    const uint64_t pv = dcss_read(node->prevw);
    if (is_marked(pv)) break;
    if (unpack_ptr<Node_t>(pv) == b.left) break;  // already correct
    // Install left as node's prev, guarded on left being unmarked and
    // adjacent (left.next == node): the paper's DCSS(node.prev, pv, left,
    // left.succ, (node, 0)).
    const DcssResult r = dcss(ebr_, node->prevw, pv, pack_ptr(b.left),
                              b.left->next, pack_ptr(node));
    if (r.success) break;
    bo.spin();  // every retry implies a concurrent neighborhood change
    if (r.guard_failed) {
      b = list_search(x, b.left, top_);
    }
    // On a prevw mismatch the loop re-reads prevw.
  }
  node->set_ready();
}

template <typename Traits>
void BasicSkipListEngine<Traits>::make_done(Node_t* left, Node_t* right) {
  // Alg. 7's makeDone (not defined in the paper; see DESIGN.md §3.5(6)):
  // make right's prev word consistent so the DCSS guard
  // (right.prev, right.marked) == (left, 0) can be evaluated meaningfully.
  if (is_marked(dcss_read(right->next))) {
    set_prev_mark(right);
    return;
  }
  const uint64_t pv = dcss_read(right->prevw);
  if (is_marked(pv) || unpack_ptr<Node_t>(pv) == left) return;
  dcss(ebr_, right->prevw, pv, pack_ptr(left), left->next, pack_ptr(right));
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::walk_left(Ikey x, Node_t* from) -> Node_t* {
  auto& c = tls_counters();
  Node_t* curr = from;
  for (uint32_t steps = 0;; ++steps) {
    if (curr == nullptr || steps > kWalkLimit) {
      // Guide chain dead-ended (null back/prev) or exceeded the walk bound:
      // the trie's start hint is discarded and the caller restarts from the
      // top-level head.  That restart costs a full head-to-x top-level scan,
      // so it gets its own counter (walk_fallbacks) on top of the generic
      // restart tally — a high rate here means pred_start hints are bad or
      // the walk bound is being hit, not that validation is churning.
      c.restarts++;
      c.walk_fallbacks++;
      return head_[top_];
    }
    if (curr->kind() == NodeKind::kHead) return head_[top_];
    // Poison, tail, an unlinked insert, or a block recycled below the top
    // level: a descent must never start from a foreign node (DESIGN.md §3.3).
    if (!curr->anchorable() || curr->level() != top_) {
      c.restarts++;
      c.walk_fallbacks++;
      return head_[top_];
    }
    if (curr->ikey() < x) return curr;
    // Alg. 4: back pointers across marked nodes, prev pointers otherwise.
    c.bytes_touched += kCacheLine;
    if (is_marked(dcss_read(curr->next))) {
      c.back_steps++;
      curr = curr->back.load(std::memory_order_acquire);
    } else {
      c.prev_steps++;
      curr = unpack_ptr<Node_t>(dcss_read(curr->prevw));
    }
  }
}

template <typename Traits>
bool BasicSkipListEngine<Traits>::raise_level(Node_t* root, Node_t* nnode,
                                              Ikey x, uint32_t lvl,
                                              Node_t*& hint) {
  Backoff bo;
  for (;;) {
    if (root->stopw.load(std::memory_order_seq_cst) != 0) return false;
    Bracket b = list_search(x, hint, lvl);
    hint = b.left;
    if (b.right->ikey() == x) return false;  // same key already here
    // Release: a reader that reads this word through a stale guide then
    // sees the block's advanced life count (DESIGN.md §3.3).
    nnode->next.store(pack_ptr(b.right), std::memory_order_release);
    // The paper (§2): "Each insertion is conditioned on the stop flag of the
    // root remaining unset" — DCSS on the predecessor link guarded by stopw,
    // so no link lands after a delete claims the tower (erase_from).
    const DcssResult r = dcss(ebr_, b.left->next, pack_ptr(b.right),
                              pack_ptr(nnode), root->stopw, 0);
    if (r.success) {
      nnode->set_linked();
      return true;
    }
    // On any failure, retry from the loop head: the stopw re-check there is
    // the authoritative stop signal.  guard_failed alone is not — guard
    // evaluation may spuriously abort our descriptor to serialize against a
    // crossed DCSS (see dcss.cpp guard_value), so treating it as "claimed"
    // would silently truncate the tower below its drawn height.
    bo.spin();
  }
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::insert(Ikey x, Node_t* start,
                                         uint32_t height) -> InsertResult {
  Node_t* hints[kMaxLevels + 1];
  Bracket b = descend(x, start, hints);
  return insert_from(x, height, hints, b);
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::insert_from(Ikey x, uint32_t height,
                                              Node_t** hints, Bracket b)
    -> InsertResult {
  assert(height <= top_);
  InsertResult res;
  Node_t* root = nullptr;
  Backoff bo;
  for (;;) {
    if (b.right->ikey() == x) {
      // Observed an unmarked node with this key: the key is present.
      if (root != nullptr) {
        root->poison();
        arena_.recycle(root);  // never published
      }
      return res;
    }
    if (root == nullptr) root = make_node(x, 0, height, nullptr, nullptr);
    // Release: see raise_level.
    root->next.store(pack_ptr(b.right), std::memory_order_release);
    // Linearization point of a successful insert: linking at level 0.
    if (counted_cas(b.left->next, pack_ptr(b.right), pack_ptr(root))) break;
    bo.spin();  // lost to a concurrent writer in this neighborhood
    b = list_search(x, b.left, 0);
  }
  root->set_linked();
  res.root = root;
  res.inserted = true;

  Node_t* below = root;
  for (uint32_t lvl = 1; lvl <= height; ++lvl) {
    Node_t* n = make_node(x, lvl, height, below, root);
    if (!raise_level(root, n, x, lvl, hints[lvl])) {
      n->poison();
      arena_.recycle(n);  // never published
      return res;
    }
    below = n;
  }
  if (height == top_) {
    res.top = below;
    fix_prev(hints[top_], res.top);
    // The successor's prev still names our old predecessor: repair it, as
    // the paper's Figure 2 insert does and erase does for its successor
    // (DESIGN.md §3.5(7)).
    if (Node_t* succ = next_at(res.top)) fix_prev(res.top, succ);
  }
  return res;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::find_tower_node(Ikey x, Node_t* root,
                                                  uint32_t level,
                                                  Node_t*& left) -> Node_t* {
  Bracket b = list_search(x, left, level);
  left = b.left;
  Node_t* c = b.right;
  // Equal-key runs can transiently hold several nodes (a marked old tower
  // plus a new one); scan for ours.
  for (uint32_t i = 0; c != nullptr && c->ikey() == x && i < kEqualRunLimit;
       ++i) {
    if (c->root() == root) return c;
    c = unpack_ptr<Node_t>(without_tags(dcss_read(c->next)));
  }
  return nullptr;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::erase(Ikey x, Node_t* start) -> EraseResult {
  Node_t* hints[kMaxLevels + 1];
  const Bracket b0 = descend(x, start, hints);
  return erase_from(x, hints, b0);
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::erase_from(Ikey x, Node_t** hints,
                                             Bracket b0) -> EraseResult {
  EraseResult res;
  if (b0.right->ikey() != x || b0.right->level() != 0 ||
      b0.right->kind() != NodeKind::kInterior) {
    return res;  // not present
  }
  Node_t* root = b0.right;
  // Claim the tower (paper §2: set the root's stop flag).  Losing the claim
  // means another delete owns this tower; our erase linearizes after its
  // level-0 mark as "not present".
  uint64_t expect = 0;
  if (!root->stopw.compare_exchange_strong(expect, 1,
                                           std::memory_order_seq_cst)) {
    return res;
  }

  // One top-down pass finds every tower node.  Each raise links by DCSS
  // guarded on stopw == 0, so none can land after the claim above; a link
  // decided before it is in place or still in its descriptor, which the
  // pass's reads help to finish.
  for (int lvl = static_cast<int>(top_); lvl >= 1; --lvl) {
    Node_t* left = hints[lvl];
    Node_t* tn = find_tower_node(x, root, static_cast<uint32_t>(lvl), left);
    hints[lvl] = left;
    if (tn == nullptr) continue;
    if (static_cast<uint32_t>(lvl) == top_) {
      res.top = tn;
      // Alg. 2: make sure the node was completely inserted first.
      if (!tn->ready()) {
        fix_prev(left, tn);
      }
      const bool won = mark_node(tn, left);
      set_prev_mark(tn);  // mirror the mark into the prev word (Alg. 7)
      list_search(x, left, static_cast<uint32_t>(lvl));  // force unlink
      if (won) res.owned[res.owned_count++] = tn;
    } else {
      const bool won = mark_node(tn, left);
      list_search(x, left, static_cast<uint32_t>(lvl));
      if (won) res.owned[res.owned_count++] = tn;
    }
  }

  // Level 0 last: this mark is the linearization point of the delete.
  const bool won0 = mark_node(root, hints[0]);
  list_search(x, hints[0], 0);
  if (won0) res.owned[res.owned_count++] = root;
  res.erased = true;

  if (res.top != nullptr) {
    // Alg. 2 lines 4-7: repair the successor's prev pointer until the
    // successor itself is stable.
    Node_t* l = hints[top_];
    Backoff bo;
    for (int i = 0; i < kFixPrevRetries; ++i) {
      Bracket b = list_search(x, l, top_);
      l = b.left;
      fix_prev(b.left, b.right);
      if (!is_marked(dcss_read(b.right->next))) break;
      bo.spin();  // successor is being deleted too; let its owner finish
    }
    res.top_left = l;
  }
  return res;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::first_at(uint32_t level) const -> Node_t* {
  Node_t* n = unpack_ptr<Node_t>(without_tags(dcss_read(head_[level]->next)));
  while (n != nullptr && n->kind() == NodeKind::kInterior) {
    if (!is_marked(dcss_read(n->next))) return n;
    n = unpack_ptr<Node_t>(without_tags(dcss_read(n->next)));
  }
  return nullptr;
}

template <typename Traits>
auto BasicSkipListEngine<Traits>::next_at(Node_t* n) const -> Node_t* {
  Node_t* m = unpack_ptr<Node_t>(without_tags(dcss_read(n->next)));
  while (m != nullptr && m->kind() == NodeKind::kInterior) {
    if (!is_marked(dcss_read(m->next))) return m;
    m = unpack_ptr<Node_t>(without_tags(dcss_read(m->next)));
  }
  return nullptr;
}

template class BasicSkipListEngine<U64Traits>;
template class BasicSkipListEngine<Bytes16Traits>;

}  // namespace skiptrie
