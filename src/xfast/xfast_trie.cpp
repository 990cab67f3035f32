#include "xfast/xfast_trie.h"

#include <cassert>
#include <new>

#include "common/bitops.h"
#include "common/stats.h"

namespace skiptrie {

namespace {
// A trie child pointer should name a live top-level interior node; heads,
// tails and poisoned storage read as ikey 0 / all-ones.
template <typename Ikey>
inline bool plausible_candidate(Ikey ik) {
  return ik != Ikey(0) && ik != ikey_all_ones<Ikey>();
}

// Per-thread hint: an EWMA (x4 fixed point) of the prefix lengths where
// recent lowest_ancestor calls landed.  Ancestor depth concentrates near
// log2 of the top-level population, so seeding the binary search near the
// running mean collapses the usual ~log B probes to ~2-4; the average beats
// the raw last sample because |depth - mean| is stochastically smaller than
// the distance between two independent draws.  Shared across trie
// instances of the same traits by design — a stale hint costs a few extra
// gallop probes before the search degrades gracefully to plain binary
// search; correctness never depends on it.  One hint per traits
// instantiation (depths live in different ranges at different W).
template <typename Traits>
uint32_t& tl_anc_len_hint4() {
  thread_local uint32_t v = 0;
  return v;
}
}  // namespace

template <typename Traits>
BasicXFastTrie<Traits>::BasicXFastTrie(DcssContext ctx, Engine& engine,
                                       uint32_t bits, SlabArena& tree_pool,
                                       SlabArena& hash_pool)
    : ctx_(ctx), strict_ctx_{ctx.ebr, DcssMode::kDcss}, engine_(engine),
      bits_(bits), tree_pool_(tree_pool), map_(strict_ctx_, hash_pool) {
  assert(bits_ >= 4 && bits_ <= Traits::kMaxBits);
  assert(tree_pool_.block_size() >= sizeof(TreeNode));
  root_ = make_tree_node();
  const bool ok = map_.insert(Traits::encode_prefix(Ikey(0), 0, bits_),
                              reinterpret_cast<uint64_t>(root_));
  assert(ok);
  (void)ok;
}

template <typename Traits>
TreeNode* BasicXFastTrie<Traits>::make_tree_node() {
  return new (tree_pool_.allocate()) TreeNode();
}

template <typename Traits>
size_t BasicXFastTrie<Traits>::approx_bytes() const {
  return map_.approx_bytes() + map_.size() * sizeof(TreeNode);
}

template <typename Traits>
auto BasicXFastTrie<Traits>::lowest_ancestor(Ikey key, Ikey x) -> Node_t* {
  // Algorithm 3 as a binary search on prefix length, see DESIGN.md §3.5(4),
  // restructured for probe economy:
  //  - the search is seeded from tl_anc_len_hint4 (running mean landing
  //    depth), so a stable workload pays ~2-4 probes instead of ~log B;
  //  - interior hits do NOT read the hit entry's child pointers — only the
  //    deepest hit is read (both words, batched, once, after the search).
  //    Sequentially that loses nothing: the lowest ancestor's opposite-
  //    direction pointer is the tight candidate (predecessor or successor
  //    of x among top-level keys), and every shallower ancestor's pointers
  //    are strictly looser.  Concurrently a killed/emptied deepest entry
  //    can yield no candidate, in which case we fall back to the root's
  //    pointers (always present) — pred_start is only a hint, walk_left
  //    and the descent validate everything.
  auto& c = tls_counters();
  Node_t* best = nullptr;
  Ikey best_dist = Traits::ikey_max();
  bool have_best = false;
  auto consider = [&](uint64_t word) {
    Node_t* cand = unpack_ptr<Node_t>(word);
    if (cand == nullptr) return;
    const Ikey ik = cand->ikey();
    if (!plausible_candidate(ik)) return;
    const Ikey d = Traits::abs_diff(ik, x);
    if (!have_best || d < best_dist) {
      best_dist = d;
      best = cand;
      have_best = true;
    }
  };

  TreeNode* deepest = nullptr;  // entry of the longest prefix found so far
  auto probe = [&](uint32_t len) -> bool {
    c.probes_binsearch++;
    const auto found = map_.lookup(Traits::encode_prefix(key, len, bits_));
    if (!found.has_value()) return false;
    deepest = reinterpret_cast<TreeNode*>(*found);
    return true;
  };

  uint32_t lo = 0;
  uint32_t hi = bits_ - 1;
  // Seed: probe at the hinted depth, then gallop away from it with doubling
  // strides until the answer is bracketed, then binary search the remaining
  // window.  Ancestor depth concentrates near log2(top-level population),
  // so the true depth is usually within a couple of levels of the hint:
  // cost ~2 + 2*log2(|true - hint|) probes instead of ~log2 B.
  uint32_t& hint4 = tl_anc_len_hint4<Traits>();
  const uint32_t hint = (hint4 + 2) / 4;
  const uint32_t seed = hint < 1 ? 1 : (hint > hi ? hi : hint);
  if (probe(seed)) {
    lo = seed;
    uint32_t step = 1;
    while (lo < hi) {  // gallop up: lo is a hit, find the first miss above
      const uint32_t next = hi - lo > step ? lo + step : hi;
      if (probe(next)) {
        lo = next;
        step *= 2;
      } else {
        hi = next - 1;
        break;
      }
    }
  } else {
    hi = seed - 1;
    uint32_t step = 1;
    while (hi > lo) {  // gallop down: hi+1 is a miss, find a hit below
      const uint32_t next = hi - lo >= step ? hi - (step - 1) : lo;
      if (next == lo) break;  // lo (the root at 0) needs no probe
      if (probe(next)) {
        lo = next;
        break;
      }
      hi = next - 1;
      step *= 2;
    }
  }
  while (lo < hi) {
    const uint32_t mid = (lo + hi + 1) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  hint4 = (hint4 * 3) / 4 + lo;  // EWMA, alpha = 1/4

  // Read the deepest hit's two child words (the only consider reads on the
  // common path).  `deepest` corresponds to length lo: hits happen at
  // strictly increasing lengths, so the last one recorded is the final lo.
  if (deepest != nullptr) {
    consider(dcss_read(deepest->ptrs[0]));
    consider(dcss_read(deepest->ptrs[1]));
  }
  if (best == nullptr) {
    // No usable candidate below the root (empty trie, or the deepest entry
    // died under us): fall back to the root entry, paper line 4, querying
    // the key-direction subtree first and the opposite as a last resort.
    const uint64_t b0 = Traits::bit(key, 0, bits_);
    consider(dcss_read(root_->ptrs[b0]));
    consider(dcss_read(root_->ptrs[1 - b0]));
  }
  return best;
}

template <typename Traits>
auto BasicXFastTrie<Traits>::pred_start(Ikey key, Ikey x) -> Node_t* {
  Node_t* anc = lowest_ancestor(key, x);
  if (anc == nullptr) anc = engine_.head(engine_.top_level());
  // Algorithm 4: walk back/prev guides until ikey < x.
  return engine_.walk_left(x, anc);
}

template <typename Traits>
bool BasicXFastTrie<Traits>::kill_entry(Ikey p, TreeNode* tn) {
  // Irreversible entry removal (DESIGN.md §3.5(3)).  The naive protocol —
  // read (0, 0), then compareAndDelete — loses concurrent inserts: a writer
  // can install its node into ptrs[d] between the read and the unlink, and
  // the write silently disappears with the entry.  Instead, death is made
  // irreversible *per word* before the unlink:
  //
  //   1. condemn ptrs[0]: DCSS 0 -> kMark, guarded on ptrs[1] == 0;
  //   2. condemn ptrs[1]: CAS 0 -> kMark (no live write can land once
  //      ptrs[0] carries the tombstone, because empty-word installs are
  //      DCSS-guarded on the opposite word — see cover_level);
  //   3. unlink from the hash table; the CAD winner retires the TreeNode.
  //
  // Writers that observe a tombstone help finish the kill and then recreate
  // a fresh entry, so no install can ever be resurrected-over or lost.
  for (;;) {
    const uint64_t q0 = dcss_read(tn->ptrs[0]);
    const uint64_t q1 = dcss_read(tn->ptrs[1]);
    if ((q0 != 0 && q0 != kMark) || (q1 != 0 && q1 != kMark)) {
      return false;  // a side is live: the entry is not killable
    }
    if (q0 == 0) {
      dcss(strict_ctx_, tn->ptrs[0], 0, kMark, tn->ptrs[1], 0);
      continue;  // re-examine: either condemned or a writer won the word
    }
    if (q1 == 0) {
      counted_cas(tn->ptrs[1], 0, kMark);
      continue;
    }
    // Both sides tombstoned: dead for good.  Exactly one unlinker wins the
    // compareAndDelete and owns the retirement.
    if (map_.compare_and_delete(p, reinterpret_cast<uint64_t>(tn))) {
      ctx_.ebr->retire(tn, &SlabArena::recycle_retired, &tree_pool_);
    }
    return true;
  }
}

template <typename Traits>
bool BasicXFastTrie<Traits>::cover_level(Ikey p, uint32_t len, uint64_t d,
                                         Node_t* node) {
  auto& c = tls_counters();
  for (;;) {
    c.trie_level_ops++;
    const uint64_t nodeword = dcss_read(node->next);
    if (is_marked(nodeword)) return false;  // node deleted: stop climbing
    const auto found = map_.lookup(p);
    if (!found.has_value()) {
      // Create the prefix entry (Alg. 6 lines 9-12); the hash insert is
      // DCSS-guarded on node staying unmarked (DESIGN.md §3.5(1)) so a
      // trie entry can never be born pointing at a marked node.
      TreeNode* tn = make_tree_node();
      tn->ptrs[d].store(pack_ptr(node), std::memory_order_relaxed);
      bool guard_failed = false;
      if (map_.insert(p, reinterpret_cast<uint64_t>(tn), &node->next,
                      nodeword, &guard_failed)) {
        return true;  // crossed this level
      }
      tree_pool_.recycle(tn);  // never published
      continue;  // entry appeared or node's next changed; re-examine
    }
    auto* tn = reinterpret_cast<TreeNode*>(*found);
    const uint64_t curr = dcss_read(tn->ptrs[d]);
    const uint64_t other = dcss_read(tn->ptrs[1 - d]);
    if (curr == kMark || other == kMark) {
      // The entry is being killed (DESIGN.md §3.5(3)): help finish, then
      // re-examine from scratch — the next iteration recreates a fresh
      // entry (Alg. 6 lines 13-14).  (The root entry is never condemned;
      // the len guard is belt-and-suspenders.)
      if (len > 0) kill_entry(p, tn);
      continue;
    }
    Node_t* cn = unpack_ptr<Node_t>(curr);
    if (cn != nullptr) {
      const Ikey ck = cn->ikey();
      const Ikey nk = node->ikey();
      if (plausible_candidate(ck) && is_marked(dcss_read(cn->next))) {
        // A marked candidate neither covers (its delete sweep may already
        // be past this prefix) nor may we simply overwrite it with our own
        // node: the candidate may be covering *other* live keys between
        // ours and it, and replacing it with a smaller key would strand
        // them while its deleter — finding the word no longer naming its
        // node — skips the repair.  Help the deleter instead: perform its
        // Alg. 7 swing to the candidate's top-level neighbor (which covers
        // everything the candidate covered), then re-examine.
        Node_t* hint = engine_.head(engine_.top_level());
        sweep_level(p, len, d, ck, cn, hint);
        continue;
      }
      const bool covered = plausible_candidate(ck) &&
                           ((d == 0) ? ck >= nk : ck <= nk);
      if (covered) return true;  // adequately represented (Alg. 6 line 17)
      // Swing the live pointer to node, conditioned on node remaining
      // unmarked (Alg. 6 lines 18-19).  While ptrs[d] is non-empty the
      // entry cannot die, so no liveness guard is needed here.  (An
      // unmarked candidate below ours cannot be covering anyone we would
      // strand: coverage is monotone — see DESIGN.md §3.4.)
      const DcssResult r = dcss(strict_ctx_, tn->ptrs[d], curr,
                                pack_ptr(node), node->next, nodeword);
      if (r.success) return true;
      continue;  // value or mark moved; re-read and re-check
    }
    // Empty word.  The install must be guarded on the *opposite* word so it
    // cannot race kill_entry's condemnation of this side (an equality guard
    // on ptrs[1-d] == other fails if the entry started dying, and
    // kill_entry's own guard fails if we won first).  This gives up the
    // node-unmarked guard, so compensate after the fact: if node got marked,
    // its deleter may already have swept past this prefix — run the
    // deleter's level sweep ourselves (DESIGN.md §3.5(3)).
    const DcssResult r = dcss(strict_ctx_, tn->ptrs[d], 0, pack_ptr(node),
                              tn->ptrs[1 - d], other);
    if (!r.success) continue;
    if (is_marked(dcss_read(node->next))) {
      Node_t* hint = engine_.head(engine_.top_level());
      sweep_level(p, len, d, node->ikey(), node, hint);
      return false;
    }
    return true;
  }
}

template <typename Traits>
void BasicXFastTrie<Traits>::insert_prefixes(Ikey key, Node_t* node) {
  // Bottom-up: longest proper prefix first (Alg. 6 line 5).
  for (int len = static_cast<int>(bits_) - 1; len >= 0; --len) {
    const Ikey p = Traits::encode_prefix(key, static_cast<uint32_t>(len),
                                         bits_);
    const uint64_t d = Traits::bit(key, static_cast<uint32_t>(len), bits_);
    if (!cover_level(p, static_cast<uint32_t>(len), d, node)) return;
  }
}

template <typename Traits>
void BasicXFastTrie<Traits>::sweep_level(Ikey p, uint32_t len, uint64_t d,
                                         Ikey x, Node_t* node,
                                         Node_t*& left_hint) {
  auto& c = tls_counters();
  const uint32_t top = engine_.top_level();
  c.trie_level_ops++;
  const auto found = map_.lookup(p);
  if (!found.has_value()) return;  // Alg. 7 line 9
  auto* tn = reinterpret_cast<TreeNode*>(*found);
  uint64_t curr = dcss_read(tn->ptrs[d]);
  // Unbounded like the paper's Alg. 7 loop: every failed swing means a
  // concurrent operation changed the neighborhood, so lock-freedom holds.
  // (A bounded clear-to-null fallback is NOT sound: it permanently trades
  // away another live key's coverage, which later cascades into wrongful
  // entry death — DESIGN.md §3.5(3).)
  while (unpack_ptr<Node_t>(curr) == node) {
    const typename Engine::Bracket b = engine_.list_search(x, left_hint, top);
    left_hint = b.left;
    if (d == 0) {
      // Swing backwards to left, guarded on left unmarked and adjacent
      // (Alg. 7 lines 13-14).
      dcss(strict_ctx_, tn->ptrs[d], curr, pack_ptr(b.left), b.left->next,
           pack_ptr(b.right));
    } else {
      // Swing forwards to right, guarded on (right.prev, right.marked)
      // == (left, 0) (Alg. 7 lines 16-17).
      engine_.make_done(b.left, b.right);
      dcss(strict_ctx_, tn->ptrs[d], curr, pack_ptr(b.right), b.right->prevw,
           pack_ptr(b.left));
    }
    curr = dcss_read(tn->ptrs[d]);
  }
  // If the pointer left the p.d subtree entirely, the subtree is empty:
  // clear it (Alg. 7 lines 19-20).
  Node_t* cn = unpack_ptr<Node_t>(curr);
  if (cn != nullptr) {
    const Ikey ck = cn->ikey();
    const bool in_subtree =
        plausible_candidate(ck) &&
        cn->kind() == NodeKind::kInterior &&
        Traits::prefix_matches(p, ck - Ikey(1), len, bits_);
    if (!in_subtree) {
      counted_cas(tn->ptrs[d], curr, 0);
    }
  }
  // If both subtrees are empty, kill the entry (Alg. 7 lines 21-22, via the
  // tombstone protocol).  The root (empty prefix) entry is permanent.
  if (len > 0) {
    kill_entry(p, tn);
  }
}

template <typename Traits>
void BasicXFastTrie<Traits>::remove_prefixes(Ikey key, Node_t* node,
                                             Node_t* top_left_hint) {
  const Ikey x = node->ikey();
  Node_t* left_hint = top_left_hint != nullptr
                          ? top_left_hint
                          : engine_.head(engine_.top_level());
  // Top-down: shortest prefix first (Alg. 7 line 5).
  for (uint32_t len = 0; len < bits_; ++len) {
    const Ikey p = Traits::encode_prefix(key, len, bits_);
    const uint64_t d = Traits::bit(key, len, bits_);
    sweep_level(p, len, d, x, node, left_hint);
  }
}

template class BasicXFastTrie<U64Traits>;
template class BasicXFastTrie<Bytes16Traits>;

}  // namespace skiptrie
