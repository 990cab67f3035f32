// bench_suite — the unified benchmark driver.
//
// Sweeps {SkipTrie, lock-free skiplist baseline, locked std::map baseline}
// x thread counts x op mixes x key distributions x universe bits and emits
// every measured cell into a machine-readable BENCH_suite.json (schema in
// README "Benchmarks").  Sections:
//
//   universe_scaling  single-threaded predecessor-only cells whose prefill
//                     grows with the universe (n ~ sqrt(u), capped): the
//                     paper's headline contrast — SkipTrie search steps
//                     track log log u while the skiplist baseline tracks
//                     log n.
//   grid              the full cross product at a fixed modest prefill:
//                     throughput, latency percentiles and step attribution
//                     under contention, skew and clustering.
//   batch             batched-op cells (DESIGN.md §3.7): single-threaded
//                     {skiptrie, skiplist} x {insert_only, lookup_only,
//                     balanced, write_heavy} x {uniform, zipf, clustered}
//                     x --batch-sizes at --batch-bits, same seed across
//                     batch sizes so cells run the same per-window
//                     (key, op) multiset and differ only in grouping (and
//                     the intra-window reordering grouping implies; see
//                     WorkloadConfig::batch_size) — the amortization read
//                     is hops+probes per key at batch_size = n vs 1.
//   bytes16           key-traits widening (DESIGN.md §6): the same u64 key
//                     stream run through the u64 fast path and through
//                     BasicSkipTrie<Bytes16Traits> (128-bit ikeys, keys
//                     spread order-preserving into the 120-bit encoded
//                     space).  Matched cells differ only in `key_kind`, so
//                     the step delta is the measured cost of W-widening —
//                     the log log u story's other direction.
//
// `--quick` shrinks every axis so the suite finishes in seconds; it is
// registered in ctest so the subsystem cannot bit-rot.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace skiptrie;
using namespace skiptrie::bench;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<uint32_t> split_csv_u32(const std::string& s) {
  std::vector<uint32_t> out;
  for (const std::string& tok : split_csv(s)) {
    out.push_back(static_cast<uint32_t>(std::strtoul(tok.c_str(), nullptr, 10)));
  }
  return out;
}

// Deterministic per-cell seed from the axis values alone, so re-runs (and
// runs of the same cell from different suite compositions) agree.
uint64_t cell_seed(uint32_t bits, uint32_t threads, size_t mix_idx,
                   size_t dist_idx, size_t structure_idx, uint32_t repeat) {
  return mix64(bits * 1000003ull + threads * 10007ull +
               (mix_idx + 1) * 1009ull + (dist_idx + 1) * 101ull +
               (structure_idx + 1) * 11ull + repeat + 1);
}

// Canonical structure id for seeding, independent of --structures order.
size_t structure_seed_idx(const std::string& s) {
  if (s == "skiptrie") return 0;
  if (s == "skiplist") return 1;
  return 2;  // locked_map
}

struct ScalingPoint {
  std::string structure;
  uint32_t bits = 0;
  uint64_t prefill = 0;
  double pred_steps_per_op = 0.0;
  uint32_t count = 0;
};

struct BatchPoint {
  std::string structure;
  std::string mix;
  std::string dist;
  uint32_t batch_size = 0;
  double hops_probes_per_key = 0.0;  // (node_hops + hash_probes) / keys
  double reuse_rate = 0.0;           // cursor_reuses / (reuses + redescends)
};

struct Bytes16Point {
  std::string mix;
  uint32_t threads = 0;
  double u64_steps = 0.0;      // search steps/op, u64 fast path
  double bytes16_steps = 0.0;  // search steps/op, 128-bit instantiation
  double ratio() const {
    return u64_steps > 0.0 ? bytes16_steps / u64_steps : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("--help")) {
    std::printf(
        "bench_suite [--quick] [--out FILE] [--git-rev REV]\n"
        "            [--repeat N]  (universe_scaling cells only; grid cells\n"
        "                           are single-sample by design)\n"
        "            [--structures a,b] [--threads 1,2,4,8] [--bits 16,24,32,64]\n"
        "            [--mixes read_only,...] [--dists uniform,...]\n"
        "            [--ops TOTAL_PER_CELL] [--prefill N] [--scaling-ops N]\n"
        "            [--batch-sizes 1,16,256] [--batch-bits B]\n"
        "            [--batch-space N] [--batch-prefill N]  (batch section)\n"
        "            [--bytes16-bits B] [--bytes16-threads 1,2]\n"
        "            [--bytes16-mixes a,b]  (bytes16 section)\n");
    return 0;
  }
  const bool quick = args.has("--quick");
  const std::string out_path =
      args.get("--out", quick ? "BENCH_suite_quick.json" : "BENCH_suite.json");
  const std::string rev = git_rev(args);
  const uint32_t repeats =
      static_cast<uint32_t>(args.get_u64("--repeat", quick ? 1 : 2));

  std::vector<std::string> structures =
      split_csv(args.get("--structures", "skiptrie,skiplist,locked_map"));
  std::vector<uint32_t> threads_axis =
      split_csv_u32(args.get("--threads", quick ? "1,2" : "1,2,4,8"));
  std::vector<uint32_t> bits_axis =
      split_csv_u32(args.get("--bits", quick ? "16,32" : "16,24,32,64"));
  std::vector<std::string> mix_names = split_csv(
      args.get("--mixes", quick ? "balanced" :
                                  "read_only,read_heavy,balanced,write_heavy"));
  std::vector<std::string> dist_names = split_csv(
      args.get("--dists",
               quick ? "uniform,zipf" : "uniform,zipf,clustered,sequential"));
  const uint64_t grid_ops = args.get_u64("--ops", quick ? 2000 : 24000);
  const uint64_t grid_prefill = args.get_u64("--prefill", quick ? 256 : 8192);
  const uint64_t scaling_ops = args.get_u64("--scaling-ops", quick ? 2000 : 30000);
  const uint32_t latency_every =
      static_cast<uint32_t>(args.get_u64("--latency-every", quick ? 16 : 64));
  std::vector<uint32_t> batch_sizes =
      split_csv_u32(args.get("--batch-sizes", quick ? "1,16" : "1,16,256"));
  const uint32_t batch_bits =
      static_cast<uint32_t>(args.get_u64("--batch-bits", 32));
  // The batch section's workload shape: a dense active key range (bulk
  // ingest / multi-get against a bounded ID space).  Cursor amortization is
  // governed by present-keys-per-batch-gap = n/batch_size — a *population*
  // ratio, not a key-space one — so the section keeps n modest; the sparse
  // full-universe regime is ROADMAP-documented rather than swept.
  const uint64_t batch_space = args.get_u64("--batch-space", 2048);
  const uint64_t batch_prefill = args.get_u64("--batch-prefill", 512);
  // Bytes16 section axes: the stream's universe bits (the wide trie itself
  // always runs the 120-bit spread universe), submitter threads and mixes.
  const uint32_t bytes16_bits =
      static_cast<uint32_t>(args.get_u64("--bytes16-bits", 32));
  std::vector<uint32_t> bytes16_threads =
      split_csv_u32(args.get("--bytes16-threads", quick ? "1" : "1,2"));
  std::vector<std::string> bytes16_mix_names = split_csv(
      args.get("--bytes16-mixes",
               quick ? "balanced" : "read_only,balanced,write_heavy"));

  // Resolve named axes against the registries in bench_util.h; a token that
  // matches nothing is an error, not a silently shrunken sweep.
  std::vector<NamedMix> mixes;
  for (const std::string& name : mix_names) {
    bool found = false;
    for (const NamedMix& m : all_mixes()) {
      if (name == m.name) {
        mixes.push_back(m);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "bench_suite: unknown mix '%s' (read_only, read_heavy, "
                   "balanced, write_heavy)\n",
                   name.c_str());
      return 1;
    }
  }
  std::vector<KeyDist> dists;
  for (const std::string& name : dist_names) {
    bool found = false;
    for (const KeyDist d : all_dists()) {
      if (name == key_dist_name(d)) {
        dists.push_back(d);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "bench_suite: unknown dist '%s' (uniform, zipf, "
                   "clustered, sequential)\n",
                   name.c_str());
      return 1;
    }
  }
  for (const std::string& s : structures) {
    if (s != "skiptrie" && s != "skiplist" && s != "locked_map") {
      std::fprintf(stderr,
                   "bench_suite: unknown structure '%s' (skiptrie, skiplist, "
                   "locked_map)\n",
                   s.c_str());
      return 1;
    }
  }
  for (const uint32_t t : threads_axis) {
    if (t == 0 || t > 256) {
      std::fprintf(stderr, "bench_suite: bad thread count %u\n", t);
      return 1;
    }
  }
  for (const uint32_t b : bits_axis) {
    if (b < 4 || b > 64) {
      std::fprintf(stderr, "bench_suite: universe bits must be 4..64\n");
      return 1;
    }
  }
  if (batch_bits < 4 || batch_bits > 64) {
    std::fprintf(stderr, "bench_suite: --batch-bits must be 4..64\n");
    return 1;
  }
  if (bytes16_bits < 4 || bytes16_bits > 64) {
    std::fprintf(stderr, "bench_suite: --bytes16-bits must be 4..64\n");
    return 1;
  }
  for (const uint32_t t : bytes16_threads) {
    if (t == 0 || t > 256) {
      std::fprintf(stderr, "bench_suite: bad bytes16 thread count %u\n", t);
      return 1;
    }
  }
  std::vector<NamedMix> bytes16_mixes;
  for (const std::string& name : bytes16_mix_names) {
    bool found = false;
    for (const NamedMix& m : all_mixes()) {
      if (name == m.name) {
        bytes16_mixes.push_back(m);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "bench_suite: unknown bytes16 mix '%s'\n",
                   name.c_str());
      return 1;
    }
  }
  for (const uint32_t bs : batch_sizes) {
    if (bs == 0 || bs > (1u << 20)) {
      std::fprintf(stderr, "bench_suite: bad batch size %u\n", bs);
      return 1;
    }
  }
  if (mixes.empty() || dists.empty() || structures.empty() ||
      threads_axis.empty() || bits_axis.empty()) {
    std::fprintf(stderr, "bench_suite: empty axis\n");
    return 1;
  }

  JsonWriter j;
  j.begin_object();
  write_suite_header(j, "bench_suite", rev, quick);
  j.key("config").begin_object();
  j.kv("grid_ops_per_cell", grid_ops);
  j.kv("grid_prefill", grid_prefill);
  j.kv("scaling_ops", scaling_ops);
  // --repeat applies to the universe_scaling section (the headline numbers,
  // where run-to-run variance matters); grid cells are single-sample.
  j.kv("scaling_repeats", static_cast<uint64_t>(repeats));
  j.kv("latency_sample_every", static_cast<uint64_t>(latency_every));
  j.kv("batch_bits", batch_bits);
  j.kv("batch_space", batch_space);
  j.kv("batch_prefill", batch_prefill);
  j.key("batch_sizes").begin_array();
  for (const uint32_t bs : batch_sizes) j.value(static_cast<uint64_t>(bs));
  j.end_array();
  j.kv("bytes16_bits", bytes16_bits);
  j.key("bytes16_threads").begin_array();
  for (const uint32_t t : bytes16_threads) j.value(static_cast<uint64_t>(t));
  j.end_array();
  j.end_object();
  j.key("cells").begin_array();
  j.newline();

  size_t cells_run = 0;
  const auto progress = [&cells_run](const char* section) {
    if (++cells_run % 32 == 0) {
      std::fprintf(stderr, "  ... %zu cells (%s)\n", cells_run, section);
    }
  };

  // --- Section 1: universe scaling -----------------------------------------
  // n grows with u (n ~ u^(1/2), capped at 2^17) so the skiplist baseline's
  // log n depth grows alongside the SkipTrie's log log u.
  std::vector<ScalingPoint> scaling;
  for (size_t si = 0; si < structures.size(); ++si) {
    const std::string& structure = structures[si];
    if (structure == "locked_map") continue;  // no step counters to compare
    for (const uint32_t bits : bits_axis) {
      const uint32_t prefill_pow =
          quick ? 8 : std::min(bits / 2 + 2, 17u);
      ScalingPoint pt;
      pt.structure = structure;
      pt.bits = bits;
      pt.prefill = 1ull << prefill_pow;
      for (uint32_t rep = 0; rep < repeats; ++rep) {
        CellSpec spec;
        spec.section = "universe_scaling";
        spec.structure = structure;
        spec.mix_name = "read_only";
        spec.universe_bits = bits;
        spec.repeat = rep;
        spec.wc.threads = 1;
        spec.wc.ops_per_thread = scaling_ops;
        spec.wc.mix = OpMix::read_only();
        spec.wc.dist = KeyDist::kUniform;
        spec.wc.key_space = bench_key_space(bits);
        spec.wc.prefill = pt.prefill;
        spec.wc.seed =
            cell_seed(bits, 1, 0, 0, structure_seed_idx(structure), rep);
        spec.wc.latency_sample_every = latency_every;
        const CellResult res = run_cell(spec);
        write_cell(j, spec, res);
        pt.pred_steps_per_op +=
            res.r.of(OpType::kPredecessor).search_steps_per_op();
        pt.count++;
        progress("universe_scaling");
      }
      pt.pred_steps_per_op /= pt.count > 0 ? pt.count : 1;
      scaling.push_back(pt);
    }
  }

  // --- Section 2: the full grid --------------------------------------------
  for (const uint32_t bits : bits_axis) {
    const uint64_t space = bench_key_space(bits);
    const uint64_t prefill = std::min<uint64_t>(grid_prefill, space / 2);
    for (size_t si = 0; si < structures.size(); ++si) {
      for (const uint32_t threads : threads_axis) {
        for (size_t mi = 0; mi < mixes.size(); ++mi) {
          for (size_t di = 0; di < dists.size(); ++di) {
            CellSpec spec;
            spec.section = "grid";
            spec.structure = structures[si];
            spec.mix_name = mixes[mi].name;
            spec.universe_bits = bits;
            spec.wc.threads = threads;
            spec.wc.ops_per_thread = std::max<uint64_t>(grid_ops / threads, 1);
            spec.wc.mix = mixes[mi].mix;
            spec.wc.dist = dists[di];
            spec.wc.key_space = space;
            spec.wc.prefill = prefill;
            spec.wc.seed = cell_seed(bits, threads, mi, di,
                                     structure_seed_idx(structures[si]), 0);
            spec.wc.latency_sample_every = latency_every;
            const CellResult res = run_cell(spec);
            write_cell(j, spec, res);
            progress("grid");
          }
        }
      }
    }
  }

  // --- Section 3: batched ops ----------------------------------------------
  // One key stream per (structure, mix, dist) — the cell seed ignores
  // batch_size — regrouped at each batch size, so the per-key step deltas
  // measure batching (grouping plus the bounded intra-window reordering it
  // implies; see WorkloadConfig::batch_size).  Single-threaded: the
  // amortization claim is a step-count claim, and 1t cells are the
  // deterministic, CI-gated ones.
  std::vector<BatchPoint> batch_pts;
  {
    std::vector<std::string> batch_mix_names =
        quick ? std::vector<std::string>{"insert_only", "lookup_only"}
              : std::vector<std::string>{"insert_only", "lookup_only",
                                         "balanced", "write_heavy"};
    // clustered is the batch API's home turf (multi-get / range ingest:
    // sorted batch keys are adjacent at any population size); uniform and
    // zipf bound the scattered-key regimes.
    const std::vector<KeyDist> batch_dists = {
        KeyDist::kUniform, KeyDist::kZipf, KeyDist::kClustered};
    for (size_t si = 0; si < structures.size(); ++si) {
      const std::string& structure = structures[si];
      if (structure == "locked_map") continue;  // no batch API
      for (size_t mi = 0; mi < batch_mix_names.size(); ++mi) {
        const NamedMix* nm = nullptr;
        for (const NamedMix& m : all_mixes()) {
          if (batch_mix_names[mi] == m.name) nm = &m;
        }
        if (nm == nullptr) continue;  // unreachable: fixed registry names
        for (size_t di = 0; di < batch_dists.size(); ++di) {
          for (const uint32_t bs : batch_sizes) {
            CellSpec spec;
            spec.section = "batch";
            spec.structure = structure;
                spec.mix_name = nm->name;
            spec.universe_bits = batch_bits;
            spec.wc.threads = 1;
            spec.wc.ops_per_thread = grid_ops;
            spec.wc.mix = nm->mix;
            spec.wc.dist = batch_dists[di];
            spec.wc.key_space =
                std::min<uint64_t>(batch_space, bench_key_space(batch_bits));
            spec.wc.prefill = std::min<uint64_t>(batch_prefill,
                                                 spec.wc.key_space / 2);
            // Identical across batch sizes: same keys, same heights
            // (heights are seed-stable per key), different grouping only.
            spec.wc.seed = cell_seed(batch_bits, 1, mi + 64, di,
                                     structure_seed_idx(structure), 0);
            spec.wc.latency_sample_every = latency_every;
            spec.wc.batch_size = bs;
            const CellResult res = run_cell(spec);
            write_cell(j, spec, res);
            BatchPoint pt;
            pt.structure = structure;
            pt.mix = nm->name;
            pt.dist = key_dist_name(batch_dists[di]);
            pt.batch_size = bs;
            const uint64_t keys = res.r.total_ops;
            pt.hops_probes_per_key =
                keys ? static_cast<double>(res.r.steps.node_hops +
                                           res.r.steps.hash_probes) /
                           static_cast<double>(keys)
                     : 0.0;
            const uint64_t warm =
                res.r.steps.cursor_reuses + res.r.steps.cursor_redescends;
            pt.reuse_rate =
                warm ? static_cast<double>(res.r.steps.cursor_reuses) /
                           static_cast<double>(warm)
                     : 0.0;
            batch_pts.push_back(pt);
            progress("batch");
          }
        }
      }
    }
  }

  // --- Section 4: key-traits widening (u64 vs bytes16) ---------------------
  // Matched pairs: the cell seed ignores key_kind, so the u64 cell and the
  // bytes16 cell run the identical (key, op) stream; the bytes16 cell maps
  // it order-preserving into the 120-bit encoded universe.  Hit counts must
  // agree; the search-step ratio is the measured cost of W = 64 -> 128
  // (about log log 2^120 / log log u_stream more trie levels, DESIGN.md §6).
  std::vector<Bytes16Point> bytes16_pts;
  for (size_t mi = 0; mi < bytes16_mixes.size(); ++mi) {
    for (const uint32_t threads : bytes16_threads) {
      Bytes16Point pt;
      pt.mix = bytes16_mixes[mi].name;
      pt.threads = threads;
      for (const char* kind : {"u64", "bytes16"}) {
        CellSpec spec;
        spec.section = "bytes16";
        spec.structure = "skiptrie";
        spec.mix_name = bytes16_mixes[mi].name;
        spec.universe_bits = bytes16_bits;  // the *stream's* universe
        spec.key_kind = kind;
        spec.wc.threads = threads;
        spec.wc.ops_per_thread = std::max<uint64_t>(grid_ops / threads, 1);
        spec.wc.mix = bytes16_mixes[mi].mix;
        spec.wc.dist = KeyDist::kUniform;
        spec.wc.key_space = bench_key_space(bytes16_bits);
        spec.wc.prefill =
            std::min<uint64_t>(grid_prefill, spec.wc.key_space / 2);
        spec.wc.seed = cell_seed(bytes16_bits, threads, mi + 128, 0, 0, 0);
        spec.wc.latency_sample_every = latency_every;
        const CellResult res = run_cell(spec);
        write_cell(j, spec, res);
        if (spec.key_kind == "u64") {
          pt.u64_steps = res.r.search_steps_per_op();
        } else {
          pt.bytes16_steps = res.r.search_steps_per_op();
        }
        progress("bytes16");
      }
      bytes16_pts.push_back(pt);
    }
  }

  j.end_array();

  // Scaling digest: the acceptance-criterion numbers, directly readable.
  j.key("scaling_summary").begin_array();
  for (const ScalingPoint& pt : scaling) {
    j.begin_object();
    j.kv("structure", pt.structure);
    j.kv("universe_bits", pt.bits);
    j.kv("prefill", pt.prefill);
    j.kv("pred_search_steps_per_op", pt.pred_steps_per_op);
    j.end_object();
  }
  j.end_array();

  // Batch digest: hops+probes per key by batch size (the amortization
  // acceptance read), plus the cursor reuse rate.
  j.key("batch_summary").begin_array();
  for (const BatchPoint& pt : batch_pts) {
    j.begin_object();
    j.kv("structure", pt.structure);
    j.kv("mix", pt.mix);
    j.kv("dist", pt.dist);
    j.kv("batch_size", pt.batch_size);
    j.kv("hops_probes_per_key", pt.hops_probes_per_key);
    j.kv("cursor_reuse_rate", pt.reuse_rate);
    j.end_object();
  }
  j.end_array();

  // Bytes16 digest: the W-widening step ratio per (mix, threads).
  j.key("bytes16_summary").begin_array();
  for (const Bytes16Point& pt : bytes16_pts) {
    j.begin_object();
    j.kv("mix", pt.mix);
    j.kv("threads", pt.threads);
    j.kv("u64_search_steps_per_op", pt.u64_steps);
    j.kv("bytes16_search_steps_per_op", pt.bytes16_steps);
    j.kv("widening_ratio", pt.ratio());
    j.end_object();
  }
  j.end_array();

  j.kv("cells_total", static_cast<uint64_t>(cells_run));
  j.end_object();
  j.newline();

  if (!write_file(out_path, j.str())) return 1;

  header("bench_suite: universe scaling (predecessor search steps/op)");
  std::printf("%-10s %-8s %-10s %-14s\n", "structure", "bits", "prefill",
              "steps/op");
  row_sep(48);
  for (const ScalingPoint& pt : scaling) {
    std::printf("%-10s %-8u %-10llu %-14.1f\n", pt.structure.c_str(), pt.bits,
                static_cast<unsigned long long>(pt.prefill),
                pt.pred_steps_per_op);
  }
  if (!batch_pts.empty()) {
    header("bench_suite: batched ops (node_hops+probes per key)");
    std::printf("%-10s %-12s %-10s %-8s %-12s %-10s\n", "structure", "mix",
                "dist", "batch", "steps/key", "reuse");
    row_sep(68);
    for (const BatchPoint& pt : batch_pts) {
      std::printf("%-10s %-12s %-10s %-8u %-12.1f %-10.2f\n",
                  pt.structure.c_str(), pt.mix.c_str(), pt.dist.c_str(),
                  pt.batch_size, pt.hops_probes_per_key, pt.reuse_rate);
    }
  }
  if (!bytes16_pts.empty()) {
    header("bench_suite: key-traits widening (search steps/op, same stream)");
    std::printf("%-12s %-8s %-10s %-10s %-8s\n", "mix", "threads", "u64",
                "bytes16", "ratio");
    row_sep(52);
    for (const Bytes16Point& pt : bytes16_pts) {
      std::printf("%-12s %-8u %-10.1f %-10.1f %-8.2f\n", pt.mix.c_str(),
                  pt.threads, pt.u64_steps, pt.bytes16_steps, pt.ratio());
    }
  }
  std::printf("\n%zu cells -> %s\n", cells_run, out_path.c_str());
  std::printf(
      "Paper shape: SkipTrie steps track log log u across universe bits;\n"
      "the skiplist baseline tracks log n of its contents.\n");
  return 0;
}
