// Infrastructure for bench_suite.
//
// Three layers:
//   1. Table helpers (header/row_sep) for the console digest.
//   2. A cell runner: CellSpec names {structure, universe bits,
//      WorkloadConfig}; run_cell() constructs the structure, drives
//      run_workload, and collects quiescent structure stats.
//   3. A JSON emitter producing the BENCH_*.json schema documented in
//      README "Benchmarks": suite header (schema version, git rev, host),
//      then one record per measured cell.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "baseline/lockfree_skiplist.h"
#include "baseline/locked_map.h"
#include "common/bitops.h"
#include "common/json.h"
#include "common/key_traits.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"
#include "workload/driver.h"

namespace skiptrie::bench {

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row_sep(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// Key-generator space covering the whole B-bit universe: every key up to
// the largest usable one (B=64 reserves two sentinels).
inline uint64_t bench_key_space(uint32_t bits) {
  const uint64_t mask = universe_mask(bits);
  return (bits >= 64 ? mask - 2 : mask) + 1;
}

// ---------------------------------------------------------------------------
// Flag parsing (tiny: --flag or --flag=value / --flag value).

class Args {
 public:
  Args(int argc, char** argv) : argv_(argv, argv + argc) {}

  bool has(const char* flag) const {
    for (const std::string& a : argv_) {
      if (a == flag || a.rfind(std::string(flag) + "=", 0) == 0) return true;
    }
    return false;
  }

  std::string get(const char* flag, const std::string& def = "") const {
    const std::string prefix = std::string(flag) + "=";
    for (size_t i = 1; i < argv_.size(); ++i) {
      if (argv_[i].rfind(prefix, 0) == 0) return argv_[i].substr(prefix.size());
      // Space-separated form; a following "--..." is the next flag, not a
      // value ("--out --quick" must not create a file named --quick).
      if (argv_[i] == flag && i + 1 < argv_.size() &&
          argv_[i + 1].rfind("--", 0) != 0) {
        return argv_[i + 1];
      }
    }
    return def;
  }

  uint64_t get_u64(const char* flag, uint64_t def) const {
    const std::string v = get(flag);
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 10);
  }

 private:
  std::vector<std::string> argv_;
};

// ---------------------------------------------------------------------------
// Named axes.

struct NamedMix {
  const char* name;
  OpMix mix;
};

inline const std::vector<NamedMix>& all_mixes() {
  static const std::vector<NamedMix> mixes = {
      {"read_only", OpMix::read_only()},
      {"read_heavy", OpMix::read_heavy()},
      {"balanced", OpMix::balanced()},
      {"write_heavy", OpMix::write_heavy()},
      // Single-op-type mixes used by the batched section (bulk load /
      // multi-get shapes); resolvable from --mixes everywhere.
      {"insert_only", OpMix::insert_only()},
      {"lookup_only", OpMix::lookup_only()},
  };
  return mixes;
}

inline const std::vector<KeyDist>& all_dists() {
  static const std::vector<KeyDist> dists = {
      KeyDist::kUniform, KeyDist::kZipf, KeyDist::kClustered,
      KeyDist::kSequential};
  return dists;
}

// ---------------------------------------------------------------------------
// Shared cell runner.

struct CellSpec {
  std::string section;            // e.g. "grid", "universe_scaling"
  std::string structure;          // "skiptrie" | "skiplist" | "locked_map"
  std::string mix_name = "balanced";
  uint32_t universe_bits = 32;
  // Key-traits instantiation driving the cell (v6 axis, DESIGN.md §6):
  // "u64" is the fast path; "bytes16" runs the same u64 key stream through
  // BasicSkipTrie<Bytes16Traits> via an order-preserving spread into the
  // 120-bit encoded space, so the cell delta is pure W-widening cost.
  std::string key_kind = "u64";
  uint32_t repeat = 0;            // repeat index within identical specs
  WorkloadConfig wc;
};

struct CellResult {
  WorkloadResult r;
  bool has_structure_stats = false;
  SkipTrie::StructureStats stats;   // skiptrie only, quiescent post-run walk
  uint32_t skiplist_levels = 0;     // skiplist only
};

// Skiplist baseline sized for its contents: ~log2(n) index levels.
inline uint32_t skiplist_levels_for(uint64_t n) {
  return ceil_log2(n < 2 ? 2 : n) + 2;
}

// Drives the 128-bit instantiation with the driver's u64 key stream via the
// order-preserving injection k -> k << 56 (recoverable by >> 56): the wide
// trie then holds keys in a 120-bit universe whose order matches the u64
// stream exactly, so hit counts agree with the matched u64 cell and every
// step delta is W-widening cost (deeper prefix walks, wider compares), not
// workload drift.  No batch API on purpose — HasBatchApi fails and batched
// configs fall back to the per-key loop.
class Bytes16WorkloadAdapter {
 public:
  static constexpr uint32_t kSpread = 56;
  static constexpr uint32_t kUniverseBits = 64 + kSpread;

  Bytes16WorkloadAdapter()
      : trie_([] {
          Config c;
          c.universe_bits = kUniverseBits;
          return c;
        }()) {}

  bool insert(uint64_t k) { return trie_.insert(wide(k)); }
  bool erase(uint64_t k) { return trie_.erase(wide(k)); }
  bool contains(uint64_t k) const { return trie_.contains(wide(k)); }
  std::optional<uint64_t> predecessor(uint64_t k) const {
    const auto p = trie_.predecessor(wide(k));
    if (!p) return std::nullopt;
    return static_cast<uint64_t>(*p >> kSpread);
  }

  const BasicSkipTrie<Bytes16Traits>& trie() const { return trie_; }

 private:
  static u128 wide(uint64_t k) { return u128(k) << kSpread; }
  BasicSkipTrie<Bytes16Traits> trie_;
};

inline CellResult run_cell(const CellSpec& spec) {
  CellResult res;
  if (spec.structure == "skiptrie" && spec.key_kind == "bytes16") {
    Bytes16WorkloadAdapter a;
    res.r = run_workload(a, spec.wc);
    // The wide trie's StructureStats is a distinct nested type (deeper
    // level_counts); copy the scalar fields the emitter reports.
    const auto st = a.trie().structure_stats();
    res.stats.keys = st.keys;
    res.stats.top_count = st.top_count;
    res.stats.trie_entries = st.trie_entries;
    res.stats.avg_top_gap = st.avg_top_gap;
    res.stats.max_top_gap = st.max_top_gap;
    res.stats.arena_bytes = st.arena_bytes;
    res.stats.trie_bytes = st.trie_bytes;
    res.stats.hash_buckets = st.hash_buckets;
    res.stats.hash_dummies = st.hash_dummies;
    res.stats.hash_load_factor = st.hash_load_factor;
    res.has_structure_stats = true;
  } else if (spec.structure == "skiptrie") {
    Config cfg;
    cfg.universe_bits = spec.universe_bits;
    SkipTrie t(cfg);
    res.r = run_workload(t, spec.wc);
    res.stats = t.structure_stats();  // quiescent: workers joined
    res.has_structure_stats = true;
  } else if (spec.structure == "skiplist") {
    res.skiplist_levels = skiplist_levels_for(spec.wc.prefill);
    LockFreeSkipList s(res.skiplist_levels);
    res.r = run_workload(s, spec.wc);
  } else if (spec.structure == "locked_map") {
    LockedMap m;
    res.r = run_workload(m, spec.wc);
  } else {
    std::fprintf(stderr, "unknown structure '%s'\n", spec.structure.c_str());
    std::abort();
  }
  return res;
}

// ---------------------------------------------------------------------------
// Shared JSON emitter (schema documented in README "Benchmarks").

inline std::string iso8601_utc_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

// Git revision for provenance: flag wins, then $SKIPTRIE_GIT_REV (set by
// tools/run_bench.sh), then "unknown".
inline std::string git_rev(const Args& args) {
  std::string rev = args.get("--git-rev");
  if (rev.empty()) {
    const char* env = std::getenv("SKIPTRIE_GIT_REV");
    rev = env != nullptr ? env : "unknown";
  }
  return rev;
}

// Opens nothing; writes the suite-level provenance keys into the (already
// open) top-level object.
// Schema history:
//   v1  initial unified schema (PR 2).
//   v2  probe attribution: steps.{probes_lookup, probes_chain,
//       probes_binsearch, walk_fallbacks}; structure_stats.{hash_buckets,
//       hash_dummies, hash_load_factor}.  Purely additive — v1 consumers
//       keep working on every key they knew about.
//   v3  hop attribution + fingered descent (PR 4): steps.{hops_top,
//       hops_descent} plus three search-finger counters (dropped in v10).
//       hops_top + hops_descent == node_hops; the finger counters tally
//       descents/levels, not shared-memory steps (DESIGN.md §5.2).
//       Purely additive again.
//   v4  batched ops + descent cursor (PR 5): cells gain the `batch_size`
//       axis (default 1 — older files join as batch_size = 1) and
//       steps.{cursor_reuses, cursor_redescends, batch_ops, batch_keys}
//       (DESIGN.md §5.3; event counters, not shared-memory steps); a new
//       "batch" section sweeps batch sizes.  Purely additive again.
//   v5  sharded engine + service front-end: cells gain the `shards` axis
//       (default 1 — older files join as shards = 1), and steps gain a
//       shard sub-batch counter and five queue counters (event counters,
//       not shared-memory steps); a new "service" section runs the client
//       simulator against the queued Service front-end, and run_cell grows
//       a "sharded" structure (the sharded engine under the plain workload
//       driver).  Purely additive again.
//   v6  key-traits generalization (PR 7, DESIGN.md §6): cells gain the
//       `key_kind` axis ("u64" | "bytes16"; default "u64" — older files
//       join as key_kind = "u64") naming the KeyTraits instantiation that
//       ran the cell, and a new "bytes16" section replays matched u64 key
//       streams through BasicSkipTrie<Bytes16Traits> (128-bit ikeys) so the
//       u64-vs-bytes16 cell delta isolates W-widening cost.  Purely
//       additive again.
//   v7  leaf-chunk hint index: an ablation axis, modeled cache-line
//       counters, chunk structure stats and mid-run chunk checkpoints.
//   v8  adaptive tower heights: an ablation axis, a hot-set drift axis,
//       policy counters, structure_stats.level_counts (the tower-height
//       histogram) and `structure_checkpoints` (25/50/75% mid-run samples
//       + final).
//   v9  both layers deleted (DESIGN.md §5.5): cells lose the v7/v8 axes,
//       the report-only finger flag and `leaf_checkpoints`; steps lose
//       the chunk and policy counters (bytes_touched stays);
//       structure_stats loses the chunk fields; structure_checkpoints lose
//       the promotion/demotion totals; the "leaf_ablation" and
//       "toplevel_ablation" sections and their summaries are gone.  Cells
//       join older files on the remaining axes.
//   v10 search finger deleted (DESIGN.md §5.2): steps lose the three v3
//       finger counters.  No axis changed, so cells join v9 files
//       unchanged.
//   v11 Service front-end deleted: the "service" section,
//       `service_summary`, the config.service_* keys and the five v5 queue
//       counters are gone (the shard counter stays).  No axis changed,
//       so cells join v10 files unchanged; v10 service cells match
//       nothing.
//   v12 sharded engine deleted: the "sharded" structure, the `shards`
//       cell axis, config.shards and the v5 shard counter are gone.  Every
//       remaining cell runs one SkipTrie or a baseline, as a v11 cell at
//       shards = 1 did, so v11 cells join their v12 twins on the remaining
//       axes; v11 sharded cells match nothing.
inline void write_suite_header(JsonWriter& j, const char* suite,
                               const std::string& rev, bool quick) {
  j.kv("schema_version", 12);
  j.kv("suite", suite);
  j.kv("git_rev", rev);
  j.kv("timestamp_utc", iso8601_utc_now());
  j.kv("quick", quick);
  j.key("host").begin_object();
  j.kv("hardware_threads",
       static_cast<uint64_t>(std::thread::hardware_concurrency()));
#if defined(__unix__) || defined(__APPLE__)
  struct utsname un{};
  if (uname(&un) == 0) {
    j.kv("os", un.sysname).kv("release", un.release).kv("machine", un.machine);
  }
#endif
#if defined(__clang__)
  j.kv("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  j.kv("compiler", "gcc " __VERSION__);
#endif
#if defined(NDEBUG)
  j.kv("assertions", false);
#else
  j.kv("assertions", true);
#endif
  j.end_object();
}

inline void write_step_counters(JsonWriter& j, const StepCounters& s) {
  j.begin_object();
  j.kv("node_hops", s.node_hops);
  j.kv("hops_top", s.hops_top);
  j.kv("hops_descent", s.hops_descent);
  j.kv("hash_probes", s.hash_probes);
  j.kv("probes_lookup", s.probes_lookup);
  j.kv("probes_chain", s.probes_chain);
  j.kv("probes_binsearch", s.probes_binsearch);
  j.kv("hash_updates", s.hash_updates);
  j.kv("cas_attempts", s.cas_attempts);
  j.kv("cas_failures", s.cas_failures);
  j.kv("dcss_attempts", s.dcss_attempts);
  j.kv("dcss_guard_fails", s.dcss_guard_fails);
  j.kv("dcss_helps", s.dcss_helps);
  j.kv("back_steps", s.back_steps);
  j.kv("prev_steps", s.prev_steps);
  j.kv("restarts", s.restarts);
  j.kv("walk_fallbacks", s.walk_fallbacks);
  j.kv("trie_level_ops", s.trie_level_ops);
  j.kv("retired_nodes", s.retired_nodes);
  j.kv("bytes_touched", s.bytes_touched);
  j.kv("cursor_reuses", s.cursor_reuses);
  j.kv("cursor_redescends", s.cursor_redescends);
  j.kv("batch_ops", s.batch_ops);
  j.kv("batch_keys", s.batch_keys);
  j.end_object();
}

// One record per measured cell; keys stable across suites so files from two
// revisions can be joined on (section, structure, universe_bits, threads,
// mix, dist, batch_size, key_kind, repeat).
inline void write_cell(JsonWriter& j, const CellSpec& spec,
                       const CellResult& res) {
  const WorkloadResult& r = res.r;
  j.begin_object();
  j.kv("section", spec.section);
  j.kv("structure", spec.structure);
  j.kv("universe_bits", spec.universe_bits);
  j.kv("threads", spec.wc.threads);
  j.kv("mix", spec.mix_name);
  j.kv("dist", key_dist_name(spec.wc.dist));
  j.kv("batch_size", spec.wc.batch_size);
  j.kv("key_kind", spec.key_kind);
  j.kv("key_space", spec.wc.key_space);
  j.kv("prefill", spec.wc.prefill);
  j.kv("seed", spec.wc.seed);
  j.kv("repeat", spec.repeat);
  j.kv("total_ops", r.total_ops);
  j.kv("seconds", r.seconds);
  j.kv("mops", r.mops());
  j.key("latency_ns").begin_object();
  j.kv("p50", r.latency_percentile_ns(0.50));
  j.kv("p99", r.latency_percentile_ns(0.99));
  j.kv("samples", r.latency_samples());
  j.end_object();
  j.key("steps_per_op").begin_object();
  j.kv("search", r.search_steps_per_op());
  j.kv("total", r.total_steps_per_op());
  j.end_object();
  j.key("steps");
  write_step_counters(j, r.steps);
  j.key("per_op").begin_object();
  for (size_t k = 0; k < kOpTypeCount; ++k) {
    const OpType t = static_cast<OpType>(k);
    const OpTypeStats& ts = r.of(t);
    if (ts.ops == 0) continue;
    j.key(op_type_name(t)).begin_object();
    j.kv("ops", ts.ops);
    j.kv("hits", ts.hits);
    j.kv("search_steps_per_op", ts.search_steps_per_op());
    j.kv("p50_ns", r.latency_percentile_ns(t, 0.50));
    j.kv("p99_ns", r.latency_percentile_ns(t, 0.99));
    j.end_object();
  }
  j.end_object();
  if (res.has_structure_stats) {
    const SkipTrie::StructureStats& st = res.stats;
    j.key("structure_stats").begin_object();
    j.kv("keys", static_cast<uint64_t>(st.keys));
    j.kv("top_count", static_cast<uint64_t>(st.top_count));
    j.kv("trie_entries", static_cast<uint64_t>(st.trie_entries));
    j.kv("avg_top_gap", st.avg_top_gap);
    j.kv("max_top_gap", static_cast<uint64_t>(st.max_top_gap));
    j.kv("arena_bytes", static_cast<uint64_t>(st.arena_bytes));
    j.kv("trie_bytes", static_cast<uint64_t>(st.trie_bytes));
    j.kv("hash_buckets", static_cast<uint64_t>(st.hash_buckets));
    j.kv("hash_dummies", static_cast<uint64_t>(st.hash_dummies));
    j.kv("hash_load_factor", st.hash_load_factor);
    // Level populations: level_counts[l] = towers reaching level l.
    // Trimmed at the highest populated level; empty for bytes16 cells
    // (their adapter copies scalar fields only, the wide trie's histogram
    // has a different depth).
    size_t top_lvl = 0;
    for (size_t l = 0; l <= SkipTrie::Engine::kMaxLevels; ++l) {
      if (st.level_counts[l] != 0) top_lvl = l + 1;
    }
    j.key("level_counts").begin_array();
    for (size_t l = 0; l < top_lvl; ++l) {
      j.value(static_cast<uint64_t>(st.level_counts[l]));
    }
    j.end_array();
    j.end_object();
  }
  if (r.structure.samples > 0) {
    j.key("structure_checkpoints").begin_object();
    j.kv("samples", r.structure.samples);
    j.kv("min_top", r.structure.min_top);
    j.kv("max_top", r.structure.max_top);
    j.kv("final_top", r.structure.final_top);
    j.kv("final_keys", r.structure.final_keys);
    j.end_object();
  }
  if (spec.structure == "skiplist") {
    j.kv("skiplist_levels", res.skiplist_levels);
  }
  j.end_object();
  j.newline();
}

inline bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

}  // namespace skiptrie::bench
