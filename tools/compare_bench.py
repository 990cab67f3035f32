#!/usr/bin/env python3
"""Diff two BENCH_suite.json files on step counts and probe counters.

Joins the "cells" arrays on (section, structure, universe_bits, threads,
mix, dist, batch_size, key_kind, repeat) — the stable key documented in
README "Benchmarks"; batch_size defaults to 1 and key_kind to "u64" for
files that predate them — and reports, per matched cell, the relative
change in:

  - steps_per_op.search and steps_per_op.total
  - per-op rates of the probe counters (hash_probes, probes_lookup,
    probes_chain, probes_binsearch, node_hops, walk_fallbacks, restarts)
  - per_op.predecessor.search_steps_per_op when present

A change worse than --threshold (default 10%) counts as a regression.
Wall-clock metrics (mops, latency) are intentionally NOT compared: they
are host-bound, while step counts are the durable signal (ROADMAP).

Exit status: 0 unless --fail-on-regress is given and regressions exist.
Designed to run as a non-fatal CI report step:

    tools/compare_bench.py BENCH_suite.json build/BENCH_suite_quick.json

Schema: accepts v1 through v12 files; counters missing from an older file
are skipped (reported as "new"), never treated as zero.  The v7/v8
ablation axes were dropped in v9 together with the layers they toggled;
v7/v8 cells join v9 cells on the remaining axes, and cells of the deleted
ablation sections match nothing.  v10 only dropped the finger counters and
v11 the queue counters and the "service" section, so v9, v10 and v11 cells
join on the same key (v10 service cells match nothing).  v12 dropped the
v5 `shards` axis with the sharded engine: the join key ignores it, so a
v5-v11 cell (which carries shards = 1 unless it is a "sharded" cell) lands
on its v12 twin, and "sharded" cells match nothing.

`--self-test` runs the built-in join unit test and checks that a reader
closing the report early gets no traceback (no input files needed); it is
registered in ctest so the cross-version join cannot bit-rot.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

JOIN_KEY = ("section", "structure", "universe_bits", "threads", "mix",
            "dist", "batch_size", "key_kind", "repeat")

# Per-key defaults applied when a file predates an axis, so older suites
# still join cleanly (batch_size was introduced in schema v4 and key_kind
# in v6; every earlier cell was implicitly unbatched and u64-keyed).
JOIN_DEFAULTS = {"batch_size": 1, "key_kind": "u64"}

# Of the schema-v4 cursor counters, cursor_redescends is compared (within a
# joined cell the batching axis is fixed, so more redescends on the same
# stream means retained brackets stopped serving — a silent constant
# regression); cursor_reuses is its complement and "more is better", which
# this worse-when-higher comparator cannot express, so it stays report-only.
# bytes_touched is a fixed multiple of the hop and guide-pointer counts
# (DESIGN.md §5.5), so gating it would double count node_hops.
RATE_COUNTERS = ("hash_probes", "probes_lookup", "probes_chain",
                 "probes_binsearch", "node_hops", "hops_top",
                 "hops_descent", "walk_fallbacks", "restarts",
                 "cursor_redescends")


def cells_of(doc):
    cells = {}
    for cell in doc.get("cells", []):
        key = tuple(cell.get(k, JOIN_DEFAULTS.get(k)) for k in JOIN_KEY)
        cells[key] = cell
    return cells


def load_cells(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, cells_of(doc)


def self_test():
    """Unit test of the cross-version join: a pre-v4 cell (no `batch_size`)
    must land on the batch_size == 1 cell; a pre-v6 cell (no `key_kind`)
    must land on the key_kind == "u64" cell and never on a bytes16 cell; a
    v9 cell must land on its v10 twin; a v11 cell (shards = 1) must land on
    its v12 twin, and v11 "sharded" and "service" cells on nothing."""
    def cell(**kw):
        c = {"section": "grid", "structure": "skiptrie", "universe_bits": 32,
             "threads": 1, "mix": "balanced", "dist": "uniform", "repeat": 0,
             "total_ops": 100, "steps_per_op": {"search": 5.0, "total": 9.0},
             "steps": {"node_hops": 300, "hash_probes": 200}}
        c.update(kw)
        return c

    # v3 baseline: no `batch_size` axis at all.  v4 candidate: every cell
    # carries batch_size; the batch_size=16 cell is new.
    v3 = {"schema_version": 3, "cells": [
        cell(),
        cell(dist="zipf"),
    ]}
    v4 = {"schema_version": 4, "cells": [
        cell(batch_size=1, steps_per_op={"search": 5.5, "total": 9.5}),
        cell(batch_size=16),
        cell(dist="zipf", batch_size=1),
    ]}
    base, cand = cells_of(v3), cells_of(v4)
    shared = set(base) & set(cand)
    bi = JOIN_KEY.index("batch_size")
    assert len(shared) == 2 and all(k[bi] == 1 for k in shared), \
        "both v3 cells must join v4 batch_size=1 cells, got %d" % len(shared)
    unmatched = set(cand) - set(base)
    assert len(unmatched) == 1 and next(iter(unmatched))[bi] == 16, \
        "the batch_size=16 cell must NOT join any v3 cell"
    # Joined metrics compare the same named counters on both sides.
    joined_key = next(k for k in shared
                      if k[JOIN_KEY.index("dist")] == "uniform")
    mb, mc = metrics_of(base[joined_key]), metrics_of(cand[joined_key])
    assert mb["steps_per_op.search"] == 5.0
    assert abs(mc["steps_per_op.search"] - 5.5) < 1e-9
    assert "steps.node_hops/op" in mb and "steps.node_hops/op" in mc

    # v5 -> v6: the key_kind axis.  A v5 cell (no key_kind) joins the v6
    # u64 cell; the bytes16 twin of the same cell must stay unmatched.
    v5 = {"schema_version": 5, "cells": [cell(batch_size=1, shards=1)]}
    v6 = {"schema_version": 6, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64"),
        cell(batch_size=1, shards=1, key_kind="bytes16",
             section="bytes16"),
        cell(batch_size=1, shards=1, key_kind="bytes16"),  # same axes, wide
    ]}
    cand6 = cells_of(v6)
    shared6 = set(cells_of(v5)) & set(cand6)
    ki = JOIN_KEY.index("key_kind")
    assert len(shared6) == 1 and next(iter(shared6))[ki] == "u64", \
        "a pre-v6 cell must join exactly the key_kind='u64' v6 cell"
    # --key-kind filtering keeps only the named instantiation.
    kept6 = [k for k in cand6 if k[ki] == "u64"]
    assert len(kept6) == 1, "--key-kind u64 must drop both bytes16 cells"

    # v9 -> v10: the finger counters left `steps`; the join key did not
    # change, so a v9 cell lands on its v10 twin and compares the counters
    # both sides still carry.
    v9 = {"schema_version": 9, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64",
             steps={"node_hops": 300, "hash_probes": 200, "finger_hits": 7,
                    "finger_misses": 3}),
    ]}
    v10 = {"schema_version": 10, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64",
             steps={"node_hops": 330, "hash_probes": 200}),
    ]}
    base10, cand10 = cells_of(v9), cells_of(v10)
    shared10 = set(base10) & set(cand10)
    assert len(shared10) == 1, "a v9 cell must join its v10 twin"
    k10 = next(iter(shared10))
    mb10, mc10 = metrics_of(base10[k10]), metrics_of(cand10[k10])
    assert set(mb10) == set(mc10), "v9/v10 twins must compare the same metrics"
    assert abs(mc10["steps.node_hops/op"] - 3.3) < 1e-9

    # v11 -> v12: the `shards` axis left the cells.  A v11 cell at shards=1
    # lands on its v12 twin (which has no shards key); the v11 "sharded"
    # cells at any shard count, and a v10-style "service" cell, match
    # nothing.
    v11 = {"schema_version": 11, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64"),
        cell(batch_size=1, shards=1, key_kind="u64", structure="sharded"),
        cell(batch_size=1, shards=4, key_kind="u64", structure="sharded"),
        cell(batch_size=1, shards=1, key_kind="u64", structure="service"),
    ]}
    v12 = {"schema_version": 12, "cells": [
        cell(batch_size=1, key_kind="u64",
             steps={"node_hops": 330, "hash_probes": 200}),
    ]}
    base12, cand12 = cells_of(v11), cells_of(v12)
    shared12 = set(base12) & set(cand12)
    si = JOIN_KEY.index("structure")
    assert len(shared12) == 1 and next(iter(shared12))[si] == "skiptrie", \
        "a v11 shards=1 cell must join exactly its v12 twin"
    assert {k[si] for k in set(base12) - shared12} == {"sharded", "service"}, \
        "v11 sharded and service cells must match nothing"
    k12 = next(iter(shared12))
    mb12, mc12 = metrics_of(base12[k12]), metrics_of(cand12[k12])
    assert set(mb12) == set(mc12), \
        "v11/v12 twins must compare the same metrics"
    assert abs(mc12["steps.node_hops/op"] - 3.3) < 1e-9

    # A reader that stops early (`compare_bench.py a b | head -1`) must end
    # the report quietly, with nothing on stderr.  The report is far larger
    # than a pipe's buffer, so the writer is still printing when the reader
    # closes its end.
    n = 2000
    worse = {"search": 9.0, "total": 19.0}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, cells in (
                ("base", [cell(repeat=i) for i in range(n)]),
                ("cand", [cell(repeat=i, steps_per_op=worse)
                          for i in range(n)])):
            paths.append(os.path.join(tmp, name + ".json"))
            with open(paths[-1], "w") as f:
                json.dump({"schema_version": 12, "cells": cells}, f)
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--top", str(4 * n),
             *paths], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        proc.wait()
    assert first.startswith(b"compare_bench: %d joinable cells" % n), first
    assert err == b"", \
        "a reader closing the report early must leave stderr empty, got:\n" \
        + err.decode(errors="replace")

    print("compare_bench --self-test: ok (join v3->v4, v5->v6, v9->v10, "
          "v11->v12, batch_size/key_kind defaults, --key-kind filter, "
          "reader closing early)")
    return 0


def metrics_of(cell):
    """Flatten one cell into {metric_name: per-op value}."""
    out = {}
    spo = cell.get("steps_per_op", {})
    for name in ("search", "total"):
        if name in spo:
            out["steps_per_op.%s" % name] = spo[name]
    ops = cell.get("total_ops", 0)
    steps = cell.get("steps", {})
    if ops:
        for name in RATE_COUNTERS:
            if name in steps:
                out["steps.%s/op" % name] = steps[name] / ops
    pred = cell.get("per_op", {}).get("predecessor")
    if pred and "search_steps_per_op" in pred:
        out["per_op.predecessor.search_steps_per_op"] = \
            pred["search_steps_per_op"]
    return out


def main():
    ap = argparse.ArgumentParser(
        description="diff two BENCH_suite.json files on steps/op and "
                    "probe counters")
    ap.add_argument("baseline", nargs="?", help="older suite JSON")
    ap.add_argument("candidate", nargs="?", help="newer suite JSON")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in join unit test and exit")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative worsening that counts as a regression "
                         "(default 0.10 = 10%%)")
    ap.add_argument("--min-rate", type=float, default=0.05,
                    help="ignore metrics below this per-op rate in both "
                         "files (noise floor, default 0.05)")
    ap.add_argument("--fail-on-regress", action="store_true",
                    help="exit 1 when regressions are found (default: "
                         "report only)")
    ap.add_argument("--max-threads", type=int, default=None,
                    help="only compare cells with threads <= N (multi-"
                         "thread step counts vary with interleaving and "
                         "host parallelism; single-thread cells are "
                         "deterministic up to cell order)")
    ap.add_argument("--key-kind", default=None,
                    help="only compare cells with this key_kind (e.g. "
                         "'u64': the gated fast path whose step counts are "
                         "pinned; 'bytes16' cells stay report-only until "
                         "their variance is characterized)")
    ap.add_argument("--top", type=int, default=20,
                    help="show at most N worst regressions / best "
                         "improvements (default 20)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        ap.error("baseline and candidate are required unless --self-test")

    base_doc, base = load_cells(args.baseline)
    cand_doc, cand = load_cells(args.candidate)

    shared = sorted(set(base) & set(cand), key=lambda k: tuple(map(str, k)))
    if args.max_threads is not None:
        ti = JOIN_KEY.index("threads")
        shared = [k for k in shared
                  if k[ti] is not None and k[ti] <= args.max_threads]
    if args.key_kind is not None:
        ki = JOIN_KEY.index("key_kind")
        shared = [k for k in shared if k[ki] == args.key_kind]
    if not shared:
        print("compare_bench: no joinable cells between %s and %s "
              "(different axes?)" % (args.baseline, args.candidate))
        print("  baseline: %d cells, schema v%s" %
              (len(base), base_doc.get("schema_version")))
        print("  candidate: %d cells, schema v%s" %
              (len(cand), cand_doc.get("schema_version")))
        return 0

    regressions = []   # (rel_change, key, metric, old, new)
    improvements = []
    new_metrics = set()
    for key in shared:
        mb = metrics_of(base[key])
        mc = metrics_of(cand[key])
        for name, new_v in mc.items():
            if name not in mb:
                new_metrics.add(name)
                continue
            old_v = mb[name]
            if max(old_v, new_v) < args.min_rate:
                continue
            if old_v <= 0:
                continue
            rel = (new_v - old_v) / old_v
            row = (rel, key, name, old_v, new_v)
            if rel > args.threshold:
                regressions.append(row)
            elif rel < -args.threshold:
                improvements.append(row)

    def fmt(row):
        rel, key, name, old_v, new_v = row
        cell = "/".join(str(v) for v in key)
        return "  %+7.1f%%  %-45s %s: %.3f -> %.3f" % (
            rel * 100, name, cell, old_v, new_v)

    print("compare_bench: %d joinable cells "
          "(baseline %s @ %s, candidate %s @ %s)" %
          (len(shared), args.baseline, base_doc.get("git_rev", "?"),
           args.candidate, cand_doc.get("git_rev", "?")))
    if new_metrics:
        print("metrics only in candidate (schema additions, not compared): "
              + ", ".join(sorted(new_metrics)))

    regressions.sort(key=lambda r: -r[0])
    improvements.sort(key=lambda r: r[0])
    print("\n%d regressions beyond %.0f%%:" %
          (len(regressions), args.threshold * 100))
    for row in regressions[:args.top]:
        print(fmt(row))
    if len(regressions) > args.top:
        print("  ... and %d more" % (len(regressions) - args.top))
    print("\n%d improvements beyond %.0f%%:" %
          (len(improvements), args.threshold * 100))
    for row in improvements[:args.top]:
        print(fmt(row))
    if len(improvements) > args.top:
        print("  ... and %d more" % (len(improvements) - args.top))

    if regressions and args.fail_on_regress:
        return 1
    return 0


def run():
    """main(), ending quietly when the reader of stdout goes away early
    (`compare_bench.py a b | head -5`) instead of printing a traceback."""
    try:
        code = main()
        sys.stdout.flush()  # surface a closed pipe here, not at exit
        return code
    except BrokenPipeError:
        # Nothing more can be shown.  Point stdout at /dev/null so the
        # interpreter's own flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(run())
