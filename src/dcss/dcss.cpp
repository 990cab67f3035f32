#include "dcss/dcss.h"

#include <cassert>
#include <functional>

#include "common/stats.h"

namespace skiptrie {

namespace {

enum Outcome : uint32_t { kUndecided = 0, kSuccess = 1, kFail = 2 };

struct alignas(16) Descriptor {
  std::atomic<uint64_t>* target;
  uint64_t expected;
  uint64_t desired;
  std::atomic<uint64_t>* guard;
  uint64_t guard_expected;
  std::atomic<uint32_t> outcome{kUndecided};
};

void help(Descriptor* d);

// Evaluate the logical value of d's guard word for d's decision.  A foreign
// UNDECIDED descriptor occupying the guard must not be read through blindly:
// with *crossed* guards — two DCSS operations each guarding the other's
// target, as in the trie's entry-kill protocol (condemn ptrs[0] guarded on
// ptrs[1]==0, vs. install into ptrs[1] guarded on ptrs[0]) — blind
// read-through lets BOTH decide success, writing a state neither guard
// permits.  Serialize by target-address order instead: complete the
// lower-target descriptor, force-abort the higher one.  A forced abort is a
// spurious DCSS failure, which is benign because guard_failed never carries
// semantic weight on its own: every caller either retries after re-reading
// the world (trie swings, raise_level re-checks stopw at its loop head) or
// was writing a best-effort guide (make_done) — and the strict ordering
// both breaks helping cycles and guarantees one of two crossed operations
// always wins.
uint64_t guard_value(Descriptor* d) {
  auto& c = tls_counters();
  for (;;) {
    const uint64_t w = d->guard->load(std::memory_order_seq_cst);
    if (!is_desc(w)) return w;
    auto* e = unpack_ptr<Descriptor>(w);
    const uint32_t out = e->outcome.load(std::memory_order_acquire);
    if (out != kUndecided) {
      return out == kSuccess ? e->desired : e->expected;
    }
    if (std::less<std::atomic<uint64_t>*>{}(e->target, d->target)) {
      c.dcss_helps++;
      help(e);  // strictly decreasing target addresses: no cycle
      continue;
    }
    c.dcss_helps++;  // settling e on its behalf, by aborting it
    uint32_t expect = kUndecided;
    e->outcome.compare_exchange_strong(expect, kFail,
                                       std::memory_order_acq_rel);
    // e is now settled either way; the next iteration reads its outcome.
  }
}

// Complete an installed descriptor: decide, then uninstall.  Idempotent and
// safe to run from any thread (helpers), as long as the caller is pinned so
// the descriptor memory is live.
void help(Descriptor* d) {
  uint32_t out = d->outcome.load(std::memory_order_acquire);
  if (out == kUndecided) {
    const uint64_t g = guard_value(d);
    const uint32_t decided = (g == d->guard_expected) ? kSuccess : kFail;
    uint32_t expect = kUndecided;
    d->outcome.compare_exchange_strong(expect, decided,
                                       std::memory_order_acq_rel);
    out = d->outcome.load(std::memory_order_acquire);
  }
  const uint64_t installed = pack_ptr(d, kDesc);
  const uint64_t final_value = (out == kSuccess) ? d->desired : d->expected;
  uint64_t expect = installed;
  d->target->compare_exchange_strong(expect, final_value,
                                     std::memory_order_seq_cst);
}

}  // namespace

uint64_t dcss_read_help(const std::atomic<uint64_t>& word, uint64_t w) {
  while (is_desc(w)) {
    tls_counters().dcss_helps++;
    help(unpack_ptr<Descriptor>(w));
    w = word.load(std::memory_order_seq_cst);
  }
  return w;
}

bool counted_cas(std::atomic<uint64_t>& word, uint64_t expected,
                 uint64_t desired) {
  auto& c = tls_counters();
  c.cas_attempts++;
  uint64_t e = expected;
  if (word.compare_exchange_strong(e, desired, std::memory_order_seq_cst)) {
    return true;
  }
  c.cas_failures++;
  return false;
}

DcssResult dcss(EbrDomain& ebr, std::atomic<uint64_t>& target,
                uint64_t expected, uint64_t desired,
                std::atomic<uint64_t>& guard, uint64_t guard_expected) {
  // All DCSS-word values are tagged pointer words: bit 1 (kDesc) is
  // reserved for descriptors and must never appear in caller values.
  assert(!is_desc(expected) && !is_desc(desired) && !is_desc(guard_expected));
  auto& c = tls_counters();
  DcssResult r;
  c.dcss_attempts++;
  auto* d = new Descriptor();
  d->target = &target;
  d->expected = expected;
  d->desired = desired;
  d->guard = &guard;
  d->guard_expected = guard_expected;

  const uint64_t installed = pack_ptr(d, kDesc);
  for (;;) {
    uint64_t e = expected;
    if (target.compare_exchange_strong(e, installed,
                                       std::memory_order_seq_cst)) {
      break;
    }
    if (is_desc(e)) {
      // Someone else's descriptor occupies the word: help it, then retry.
      c.dcss_helps++;
      help(unpack_ptr<Descriptor>(e));
      continue;
    }
    // Genuine value mismatch.
    delete d;  // never published, safe to free immediately
    return r;
  }

  help(d);
  const bool ok = d->outcome.load(std::memory_order_acquire) == kSuccess;
  r.success = ok;
  r.guard_failed = !ok;
  if (!ok) c.dcss_guard_fails++;
  ebr.retire_delete(d);
  return r;
}

}  // namespace skiptrie
