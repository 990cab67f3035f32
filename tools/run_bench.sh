#!/usr/bin/env bash
# Build (Release) and run the unified benchmark suite, writing BENCH_suite.json
# at the repo root.  All flags pass through to bench_suite; the useful ones:
#
#   tools/run_bench.sh                 full sweep -> BENCH_suite.json
#   tools/run_bench.sh --quick         tiny axes  -> BENCH_suite_quick.json
#   tools/run_bench.sh --out FILE      choose the output path
#
# Compare two suites by joining their "cells" arrays on
# (section, structure, universe_bits, threads, mix, dist, batch_size,
# key_kind, repeat); see README "Benchmarks" and tools/compare_bench.py.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DSKIPTRIE_BUILD_TESTS=OFF \
  -DSKIPTRIE_BUILD_EXAMPLES=OFF \
  -DSKIPTRIE_BUILD_TOOLS=OFF \
  -DSKIPTRIE_BUILD_BENCH=ON >/dev/null
cmake --build "$BUILD_DIR" --target bench_suite -j"$(nproc)" >/dev/null

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet 2>/dev/null || ! git diff --cached --quiet 2>/dev/null; then
  rev="${rev}-dirty"
fi

SKIPTRIE_GIT_REV="$rev" exec "$BUILD_DIR/bench/bench_suite" "$@"
