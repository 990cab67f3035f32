// Per-thread operation step counters.
//
// The paper's headline result is a *step-complexity* bound
// (O(log log u + c_OI) expected amortized steps per operation), so the
// benchmark harness must be able to count steps, not just wall time.  Every
// potentially-shared-memory step of interest increments a thread-local
// counter; the harness snapshots counters around a measured phase and
// aggregates across threads.  Counting is branch-free increments on
// thread-local cache lines, cheap enough to leave enabled.
#pragma once

#include <cstdint>

namespace skiptrie {

struct StepCounters {
  uint64_t node_hops = 0;        // list-node traversal steps (all levels)
  // Fine-grained attribution of node_hops (see DESIGN.md §5.2).  Like the
  // probe attribution below, these do NOT enter search_steps()/
  // total_steps(): hops_top + hops_descent == node_hops always.
  uint64_t hops_top = 0;         // node_hops incurred at the engine's top level
  uint64_t hops_descent = 0;     // node_hops incurred below the top level
  uint64_t hash_probes = 0;      // hash-chain nodes visited (all find() calls)
  // Fine-grained attribution of hash_probes (see DESIGN.md §5.1).  These do
  // NOT enter search_steps()/total_steps() — they attribute work hash_probes
  // already counts, and adding them again would double count.  Note
  // probes_lookup counts lookup() calls only, while probes_chain covers
  // every find() caller (insert/erase paths too), so
  // probes_lookup + probes_chain == hash_probes only on read-only streams.
  uint64_t probes_lookup = 0;    // SplitOrderedMap::lookup() calls issued
  uint64_t probes_chain = 0;     // chain nodes visited beyond the first per
                                 // find(), any caller (constant-factor slack)
  uint64_t probes_binsearch = 0; // lookups issued by the x-fast binary
                                 // search over prefix lengths (~log B ideal)
  uint64_t hash_updates = 0;     // prefix hash-table insert/delete attempts
  uint64_t cas_attempts = 0;     // structural CAS attempts
  uint64_t cas_failures = 0;     // failed structural CAS
  uint64_t dcss_attempts = 0;    // DCSS attempts (descriptor installs)
  uint64_t dcss_guard_fails = 0; // DCSS aborted because the guard mismatched
  uint64_t dcss_helps = 0;       // descriptors completed on behalf of others
  uint64_t back_steps = 0;       // back-pointer follows (marked-node recovery)
  uint64_t prev_steps = 0;       // prev-pointer follows (top-level walk)
  uint64_t restarts = 0;         // validation-triggered restarts from a head
  uint64_t walk_fallbacks = 0;   // walk_left gave up (limit/dead-end) and
                                 // discarded its start hint for the top head
  uint64_t trie_level_ops = 0;   // x-fast-trie per-level update iterations
  uint64_t retired_nodes = 0;    // nodes handed to reclamation
  // Cache-line traffic model of the list layer (DESIGN.md §5.5): kCacheLine
  // per node hop / guide-pointer follow.  Hash-layer traffic is already a
  // line count (hash_probes) and stays separate.  Attribution only: it does
  // not enter search_steps()/total_steps().
  uint64_t bytes_touched = 0;
  // Always 0: the structure has no leaf chunks and no search finger.  Kept
  // only for perfbench's per-layer report, which still reads them; nothing
  // writes them, so operator+= and operator- leave them out.
  uint64_t chunk_scans = 0;
  uint64_t finger_hits = 0;
  uint64_t finger_misses = 0;
  // Batched-operation attribution (schema v4, DESIGN.md §5.3).  Like the
  // probe/hop attribution these count events, not shared-memory steps, and
  // do NOT enter search_steps()/total_steps().
  uint64_t cursor_reuses = 0;     // warm DescentCursor seeks served from a
                                  // retained bracket (entered below the top)
  uint64_t cursor_redescends = 0; // warm seeks whose brackets all failed and
                                  // that entered at the top row or fallback
  uint64_t batch_ops = 0;         // batch API calls issued (any size)
  uint64_t batch_keys = 0;        // keys processed through the batch API
  // Always 0: tower heights are the fixed deterministic draw.  Kept only
  // for perfbench's per-layer report, which still reads them (and, like
  // chunk_scans, left out of operator+= and operator-).
  uint64_t adapt_checks = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;

  StepCounters& operator+=(const StepCounters& o);
  StepCounters operator-(const StepCounters& o) const;

  // Steps in the sense of the paper's bound: shared-memory accesses made
  // while searching (hops + probes + guide-pointer follows).
  uint64_t search_steps() const {
    return node_hops + hash_probes + back_steps + prev_steps;
  }
  uint64_t total_steps() const {
    return search_steps() + hash_updates + cas_attempts + dcss_attempts +
           trie_level_ops;
  }
};

// Always empty: the structure has no leaf chunks.  Kept only for
// perfbench's per-layer report, which still reads it.
struct LeafLiveStats {
  double avg_occupancy() const { return 0.0; }
};

// Cheap, always-current structural totals.  Read from atomic counters
// maintained by the operation paths, so any thread may sample them mid-run
// — unlike structure_stats(), which walks the structure and is only
// meaningful at quiescence.  Approximate under races by at most the number
// of in-flight operations; exact at quiescence.
struct StructureLiveStats {
  uint64_t keys = 0;       // current set size
  uint64_t top_count = 0;  // towers currently reaching the top level
};

// The calling thread's counters.  Distinct threads get distinct instances.
StepCounters& tls_counters();

// Snapshot/restore helpers for measurement phases.
inline StepCounters snapshot_counters() { return tls_counters(); }

}  // namespace skiptrie
