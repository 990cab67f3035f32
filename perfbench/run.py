#!/usr/bin/env python3
"""Build and run the SkipTrie wall-clock benchmark.

    python3 perfbench/run.py --workload pred_uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["pred_uniform", "hot_zipf", "churn"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src/core/skiptrie.h").is_file():
        fail(f"library sources not found under {ROOT}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def git_rev():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def run_bench(out, workload, seed, seconds, trace, capture=False):
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--git-rev", git_rev()]
    if trace:
        traces = out.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return r.returncode, r.stdout


def self_test(out):
    """Oracle unit test, then a short run of every workload in both modes,
    checking each result line against BENCHMARK.json."""
    if subprocess.run([str(out / "perfbench_oracle_test")]).returncode != 0:
        fail("oracle test failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, text = run_bench(out, w, 7, 2, trace, capture=True)
            res = json.loads(text.strip().splitlines()[-1])
            names = {m["name"]: m["unit"] for m in want[trace]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = (code == 0 and res["correct"] and res["failed"] == 0
                  and res["attempted"] > 0 and got == names)
            print(f"self-test {w} trace={trace}: {'OK' if ok else 'FAIL'}")
            if not ok:
                print(text)
                fail(f"self-test failed on {w} trace={trace}")
    print("self-test: OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test(build(["perfbench", "perfbench_oracle_test"]))
        return 0
    if a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    out = build(["perfbench"])
    code = 0
    for w in WORKLOADS if a.workload == "all" else [a.workload]:
        sys.stdout.flush()
        code, _ = run_bench(out, w, a.seed, a.seconds, a.trace)
        if code != 0:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
