// Multi-threaded workload driver with step-counter aggregation.
//
// Runs a fixed operation mix from N threads against any set type exposing
// insert/erase/contains/predecessor(uint64_t), aggregates wall time,
// per-operation counts and the thread-local StepCounters deltas (the paper's
// step-complexity currency).  Also samples per-operation latency (for
// p50/p99 reporting) and attributes search steps to each operation type.
// Used by integration tests, stress tests and every benchmark binary.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/spin_barrier.h"
#include "common/stats.h"
#include "workload/distributions.h"

namespace skiptrie {

struct OpMix {
  // Fractions; must sum to <= 1.0, remainder goes to contains().
  double insert = 0.0;
  double erase = 0.0;
  double predecessor = 0.0;

  static OpMix read_only() { return OpMix{0, 0, 1.0}; }
  static OpMix read_heavy() { return OpMix{0.05, 0.05, 0.60}; }
  static OpMix write_heavy() { return OpMix{0.40, 0.40, 0.10}; }
  static OpMix balanced() { return OpMix{0.25, 0.25, 0.25}; }
  // Single-op-type mixes for the batched sections: the bulk-load /
  // multi-get shapes where amortizing one descent is the whole point.
  static OpMix insert_only() { return OpMix{1.0, 0, 0}; }
  static OpMix lookup_only() { return OpMix{0, 0, 0}; }  // all contains()
};

// The four operation kinds a workload issues, in dispatch order.
enum class OpType : uint8_t { kInsert = 0, kErase, kPredecessor, kLookup };
inline constexpr size_t kOpTypeCount = 4;
const char* op_type_name(OpType t);

struct WorkloadConfig {
  uint32_t threads = 2;
  uint64_t ops_per_thread = 100000;
  OpMix mix = OpMix::balanced();
  KeyDist dist = KeyDist::kUniform;
  uint64_t key_space = 1ull << 20;
  uint64_t seed = 42;
  uint64_t prefill = 0;  // keys inserted (single-threaded) before timing
  // Distribution shape: zipf skew and clustered geometry.  Cluster centers
  // are derived from `seed` alone, so the prefill pass and every worker
  // thread draw from the same clusters (distinct streams, same hot sets).
  double zipf_theta = 0.99;
  uint32_t clusters = 64;
  uint64_t cluster_span = 1024;
  // Sample the wall-clock latency of every Nth operation per thread
  // (steady_clock around the call).  0 disables sampling.
  uint32_t latency_sample_every = 64;
  // Keys per dispatch window of the batch API (DESIGN.md §3.7).  1 = the
  // classic per-key loop.  > 1 draws (op type, key) per key exactly as the
  // per-key loop would — so every key receives the same operation at every
  // batch size — then partitions the window by op type and issues one
  // *_batch call per type present.  Cells at different batch sizes
  // therefore run the identical (key, op) multiset per window; what
  // batching necessarily changes is the *order within a window* (types
  // flush grouped, so e.g. an erase drawn before an insert of the same key
  // can execute after it) — inherent to grouping, bounded by batch_size,
  // and part of what a batched-system comparison measures.  Sets without
  // a batch API fall back to the per-key loop.  Batched latency samples
  // record each sub-batch's wall time divided by its key count (amortized
  // per-key latency).
  uint32_t batch_size = 1;
};

// Per-operation-type tallies: counts, hits, attributed search steps, and the
// merged latency samples (nanoseconds, unsorted).
struct OpTypeStats {
  uint64_t ops = 0;
  uint64_t hits = 0;
  uint64_t search_steps = 0;
  std::vector<uint64_t> latency_ns;

  double search_steps_per_op() const {
    return ops ? static_cast<double>(search_steps) / static_cast<double>(ops)
               : 0.0;
  }
  double hit_rate() const {
    return ops ? static_cast<double>(hits) / static_cast<double>(ops) : 0.0;
  }
};

// Structural checkpoint digest (DESIGN.md §5.5).  Worker 0 reads
// StructureLiveStats — two relaxed atomic loads, cheap enough inside the
// timed phase — at 25/50/75% of its own stream, and the driver takes one
// final sample at quiescence.  min/max range over every sample taken.
// `samples` is 0 when the set type exposes no structure stats.
struct StructureCheckpoints {
  uint32_t samples = 0;
  uint64_t min_top = 0, max_top = 0, final_top = 0;
  uint64_t final_keys = 0;

  void fold(const StructureLiveStats& s, bool is_final) {
    if (samples == 0 || s.top_count < min_top) min_top = s.top_count;
    if (samples == 0 || s.top_count > max_top) max_top = s.top_count;
    if (is_final) {
      final_top = s.top_count;
      final_keys = s.keys;
    }
    ++samples;
  }
};

struct WorkloadResult {
  double seconds = 0.0;
  uint64_t total_ops = 0;
  uint64_t inserts = 0, insert_hits = 0;
  uint64_t erases = 0, erase_hits = 0;
  uint64_t preds = 0, pred_hits = 0;
  uint64_t lookups = 0, lookup_hits = 0;
  StepCounters steps;
  OpTypeStats by_type[kOpTypeCount];
  StructureCheckpoints structure;

  const OpTypeStats& of(OpType t) const {
    return by_type[static_cast<size_t>(t)];
  }

  double mops() const {
    return seconds > 0.0 ? total_ops / seconds / 1e6 : 0.0;
  }
  double search_steps_per_op() const {
    return total_ops ? static_cast<double>(steps.search_steps()) /
                           static_cast<double>(total_ops)
                     : 0.0;
  }
  double total_steps_per_op() const {
    return total_ops ? static_cast<double>(steps.total_steps()) /
                           static_cast<double>(total_ops)
                     : 0.0;
  }

  // Latency percentile (q in [0,1]) over the merged samples of all op types,
  // or of one type.  0 when nothing was sampled.
  double latency_percentile_ns(double q) const;
  double latency_percentile_ns(OpType t, double q) const;
  uint64_t latency_samples() const;

  std::string summary() const;
};

namespace detail {
// Percentile by nearest-rank over an unsorted sample vector (copied; the
// result object stays const-usable).
double percentile_ns(std::vector<uint64_t> samples, double q);
}  // namespace detail

// Detects the batch API of DESIGN.md §3.7 (SkipTrie and the lock-free
// skiplist baseline implement it; the locked map does not and runs batched
// configs through the per-key loop).
template <typename Set>
concept HasBatchApi = requires(Set& s, const Set& cs, const uint64_t* k,
                               size_t n, uint8_t* r,
                               std::optional<uint64_t>* p) {
  { s.insert_batch(k, n, r) } -> std::convertible_to<size_t>;
  { s.erase_batch(k, n, r) } -> std::convertible_to<size_t>;
  { cs.contains_batch(k, n, r) } -> std::convertible_to<size_t>;
  { cs.predecessor_batch(k, n, p) } -> std::convertible_to<size_t>;
};

// Detects the mid-run-safe structural sampler (SkipTrie exposes it; the
// baselines do not and skip structure checkpointing).
template <typename Set>
concept HasStructureLive = requires(const Set& cs) {
  { cs.structure_live_stats() } -> std::convertible_to<StructureLiveStats>;
};

// Runs cfg against `set`.  Set must provide bool insert(uint64_t),
// bool erase(uint64_t), bool contains(uint64_t) const and
// std::optional<uint64_t> predecessor(uint64_t) const; the batch API is
// used when cfg.batch_size > 1 and the set provides it.
template <typename Set>
WorkloadResult run_workload(Set& set, const WorkloadConfig& cfg) {
  // Cluster centers must agree across the prefill stream and every worker
  // stream, so all generators share cfg.seed as the cluster seed.
  const uint64_t cluster_seed =
      cfg.seed != 0 ? cfg.seed : 0x9e3779b97f4a7c15ull;  // 0 = "per-stream"

  // Prefill from the *configured* distribution (a deterministic stream
  // distinct from every worker's): a zipf or clustered read phase must find
  // the keys its queries concentrate on, otherwise it measures misses.
  if (cfg.prefill > 0) {
    KeyGenerator gen(cfg.dist, cfg.key_space, cfg.seed ^ 0x9e3779b9,
                     cfg.zipf_theta, cfg.clusters, cfg.cluster_span,
                     cluster_seed);
    for (uint64_t i = 0; i < cfg.prefill; ++i) set.insert(gen.next());
  }

  WorkloadResult result;
  std::mutex agg_mu;
  // Mid-run checkpoints: written by worker 0 only, read by the main thread
  // after join — no locking needed.
  std::vector<StructureLiveStats> structure_samples;
  SpinBarrier barrier(cfg.threads + 1);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);

  // The measured interval is [first worker's first op, last worker's last
  // op], taken from per-worker clocks.  The main thread cannot timestamp
  // the window itself: on an oversubscribed machine the workers can run the
  // whole op phase between the main thread's release from the start barrier
  // and its next time-stamping instruction, collapsing the measured window
  // to ~0.
  using Clock = std::chrono::steady_clock;
  Clock::time_point first_start = Clock::time_point::max();
  Clock::time_point last_end = Clock::time_point::min();

  for (uint32_t t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      KeyGenerator gen(cfg.dist, cfg.key_space, cfg.seed + 0x1234 * (t + 1),
                       cfg.zipf_theta, cfg.clusters, cfg.cluster_span,
                       cluster_seed);
      Xoshiro256 op_rng(cfg.seed ^ (0xabcdull * (t + 1)));
      WorkloadResult local;
      StepCounters& tls = tls_counters();
      const uint32_t sample_every = cfg.latency_sample_every;
      bool use_batch = false;
      std::vector<uint64_t> kbuf[kOpTypeCount];
      if constexpr (HasBatchApi<Set>) {
        use_batch = cfg.batch_size > 1;
        if (use_batch) {
          for (auto& b : kbuf) b.reserve(cfg.batch_size);
        }
      }
      const auto draw_type = [&cfg, &op_rng]() {
        const double r = op_rng.next_double();
        if (r < cfg.mix.insert) return OpType::kInsert;
        if (r < cfg.mix.insert + cfg.mix.erase) return OpType::kErase;
        if (r < cfg.mix.insert + cfg.mix.erase + cfg.mix.predecessor) {
          return OpType::kPredecessor;
        }
        return OpType::kLookup;
      };
      // 25/50/75% checkpoints over worker 0's own op stream.
      const uint64_t cp_at[3] = {
          cfg.ops_per_thread / 4, cfg.ops_per_thread / 2,
          cfg.ops_per_thread / 4 * 3};
      uint32_t next_cp = 0;
      barrier.arrive_and_wait();  // start together
      const Clock::time_point my_start = Clock::now();
      const StepCounters before = tls;
      for (uint64_t i = 0; i < cfg.ops_per_thread;) {
        while (next_cp < 3 && i >= cp_at[next_cp]) {
          if constexpr (HasStructureLive<Set>) {
            if (t == 0) {
              structure_samples.push_back(set.structure_live_stats());
            }
          }
          ++next_cp;
        }
        if constexpr (HasBatchApi<Set>) {
          if (use_batch) {
            // Draw (op, key) per key exactly as the per-key loop below
            // would (same streams, same draw cadence), then partition the
            // window by op type and flush one batch call per type: the
            // cell runs the identical (key, op) multiset per window at
            // every batch size; only the grouping — and the intra-window
            // ordering grouping implies — differs (see batch_size above).
            const uint64_t n =
                std::min<uint64_t>(cfg.batch_size, cfg.ops_per_thread - i);
            for (auto& b : kbuf) b.clear();
            for (uint64_t j = 0; j < n; ++j) {
              kbuf[static_cast<size_t>(draw_type())].push_back(gen.next());
            }
            const bool sampled = sample_every != 0 && (i % sample_every) < n;
            for (size_t k = 0; k < kOpTypeCount; ++k) {
              const std::vector<uint64_t>& b = kbuf[k];
              if (b.empty()) continue;
              OpTypeStats& ts = local.by_type[k];
              const uint64_t steps0 = tls.search_steps();
              std::chrono::steady_clock::time_point bt0;
              if (sampled) bt0 = std::chrono::steady_clock::now();
              size_t hits = 0;
              switch (static_cast<OpType>(k)) {
                case OpType::kInsert:
                  hits = set.insert_batch(b.data(), b.size());
                  break;
                case OpType::kErase:
                  hits = set.erase_batch(b.data(), b.size());
                  break;
                case OpType::kPredecessor:
                  hits = set.predecessor_batch(b.data(), b.size());
                  break;
                case OpType::kLookup:
                  hits = set.contains_batch(b.data(), b.size());
                  break;
              }
              if (sampled) {
                const auto bt1 = std::chrono::steady_clock::now();
                ts.latency_ns.push_back(static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        bt1 - bt0)
                        .count() /
                    b.size()));
              }
              ts.ops += b.size();
              ts.hits += hits;
              ts.search_steps += tls.search_steps() - steps0;
            }
            i += n;
            continue;
          }
        }
        const OpType ot = draw_type();
        OpTypeStats& ts = local.by_type[static_cast<size_t>(ot)];
        const uint64_t key = gen.next();
        const bool sampled = sample_every != 0 && i % sample_every == 0;
        const uint64_t steps0 = tls.search_steps();
        std::chrono::steady_clock::time_point op_t0;
        if (sampled) op_t0 = std::chrono::steady_clock::now();
        bool hit = false;
        switch (ot) {
          case OpType::kInsert: hit = set.insert(key); break;
          case OpType::kErase: hit = set.erase(key); break;
          case OpType::kPredecessor:
            hit = set.predecessor(key).has_value();
            break;
          case OpType::kLookup: hit = set.contains(key); break;
        }
        if (sampled) {
          const auto op_t1 = std::chrono::steady_clock::now();
          ts.latency_ns.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(op_t1 -
                                                                   op_t0)
                  .count()));
        }
        ts.ops++;
        ts.hits += hit ? 1 : 0;
        ts.search_steps += tls.search_steps() - steps0;
        ++i;
      }
      local.steps = tls - before;
      const Clock::time_point my_end = Clock::now();
      barrier.arrive_and_wait();  // stop together
      std::lock_guard<std::mutex> lk(agg_mu);
      if (my_start < first_start) first_start = my_start;
      if (my_end > last_end) last_end = my_end;
      for (size_t k = 0; k < kOpTypeCount; ++k) {
        OpTypeStats& dst = result.by_type[k];
        OpTypeStats& src = local.by_type[k];
        dst.ops += src.ops;
        dst.hits += src.hits;
        dst.search_steps += src.search_steps;
        dst.latency_ns.insert(dst.latency_ns.end(), src.latency_ns.begin(),
                              src.latency_ns.end());
      }
      result.steps += local.steps;
    });
  }

  barrier.arrive_and_wait();  // release the workers
  barrier.arrive_and_wait();  // wait for the op phase to finish
  for (auto& th : threads) th.join();

  if constexpr (HasStructureLive<Set>) {
    for (const StructureLiveStats& s : structure_samples) {
      result.structure.fold(s, false);
    }
    result.structure.fold(set.structure_live_stats(), true);
  }
  result.seconds =
      cfg.threads > 0 && last_end > first_start
          ? std::chrono::duration<double>(last_end - first_start).count()
          : 0.0;
  result.total_ops =
      static_cast<uint64_t>(cfg.threads) * cfg.ops_per_thread;
  result.inserts = result.of(OpType::kInsert).ops;
  result.insert_hits = result.of(OpType::kInsert).hits;
  result.erases = result.of(OpType::kErase).ops;
  result.erase_hits = result.of(OpType::kErase).hits;
  result.preds = result.of(OpType::kPredecessor).ops;
  result.pred_hits = result.of(OpType::kPredecessor).hits;
  result.lookups = result.of(OpType::kLookup).ops;
  result.lookup_hits = result.of(OpType::kLookup).hits;
  return result;
}

}  // namespace skiptrie
