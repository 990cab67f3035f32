// Software DCSS (double-compare single-swap) built from CAS.
//
// The paper (§1, "On the choice of atomic primitives") uses
//   DCSS(X, old_X, new_X, Y, old_Y):  X <- new_X  iff  X == old_X && Y == old_Y
// to avoid swinging list/trie pointers onto nodes that are already marked for
// deletion: Y is a "guard" word (typically a node's next/prev/stop word) that
// is only compared, never written.
//
// No mainstream ISA exposes DCSS, so we implement the classic descriptor
// construction (Harris, Fraser & Pratt, "A practical multi-word
// compare-and-swap", DISC 2002):
//
//   1. install: CAS the target word from `expected` to a tagged descriptor
//      pointer (tag bit kDesc).
//   2. decide:  read the guard word; CAS the descriptor's `outcome` from
//      UNDECIDED to SUCCESS/FAIL (all helpers agree via this CAS).
//   3. uninstall: CAS the target from the descriptor back to `desired`
//      (on success) or `expected` (on failure).
//
// Readers of DCSS-capable words go through dcss_read(), which helps complete
// any installed descriptor, so the logical value of a word is always defined
// and the construction is lock-free.
//
// Guard words may themselves be DCSS targets (the paper guards on `next`
// words that other operations DCSS).  Unlike the original RDCSS we do not
// forbid this.  A decided descriptor found in a guard word is read through
// (`desired`/`expected` per its outcome).  An UNDECIDED descriptor must not
// be read through blindly — with crossed guards (two operations each
// guarding the other's target) both could decide success — so guard
// evaluation serializes by target-address order: it helps complete a
// lower-target descriptor and force-aborts a higher-target one (a spurious
// but benign failure; callers retry on guard_failed).  The strict order
// both prevents mutual-helping cycles and guarantees exactly one of two
// crossed operations wins.
//
// The paper notes that plain CAS (dropping the guard) would also keep the
// SkipTrie linearizable and lock-free; every guarded swing here is a real
// DCSS all the same (DESIGN.md §3.1).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/marked_ptr.h"
#include "reclaim/ebr.h"

namespace skiptrie {

struct DcssResult {
  bool success = false;
  bool guard_failed = false;  // failed because the guard word mismatched
};

// Perform DCSS on `target`.  expected/desired must be untagged-with-kDesc
// values (kMark is fine).  The calling thread must hold an EbrDomain::Guard
// on `ebr`, which also reclaims the descriptor, for the duration of the
// enclosing operation.
DcssResult dcss(EbrDomain& ebr, std::atomic<uint64_t>& target,
                uint64_t expected, uint64_t desired,
                std::atomic<uint64_t>& guard, uint64_t guard_expected);

// Slow path of dcss_read: `w` was loaded from `word` and holds a
// descriptor.  Helps it (and any that follow) to completion, then returns
// the word's first descriptor-free value.
uint64_t dcss_read_help(const std::atomic<uint64_t>& word, uint64_t w);

// Read the logical value of a DCSS-capable word, helping any installed
// descriptor to completion first.  Caller must be pinned.  Inline: every
// list hop and hash chain step reads through here, and almost every word
// holds no descriptor.
inline uint64_t dcss_read(const std::atomic<uint64_t>& word) {
  const uint64_t w = word.load(std::memory_order_seq_cst);
  if (!is_desc(w)) [[likely]] return w;
  return dcss_read_help(word, w);
}

// Plain structural CAS with step accounting (used where no guard is needed).
bool counted_cas(std::atomic<uint64_t>& word, uint64_t expected,
                 uint64_t desired);

}  // namespace skiptrie
