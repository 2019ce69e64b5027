#!/usr/bin/env bash
# Smoke-test the built tree: run the quickstart example, a small per-cell
# Monte-Carlo failure-rate sweep (FailureAnalyzer::analyze for both cell
# kinds), the other examples at their defaults, the process-corner bench at
# 2000 samples, a fast pass of the micro-kernel bench, and the four contract
# harnesses at reduced budgets. Each harness exits nonzero when one of its
# checks fails (adaptive-MC oracle agreement, bit-identity across threads,
# paths or shards, coalescing), and so does this script; a harness (and
# hynapse_cli) given an argument it does not parse must exit 2. Used by CI
# and handy after a local build.
#
# Usage: scripts/run_smoke.sh [build-dir]   (default: build/release)
set -euo pipefail

build_dir=${1:-build/release}

if [[ ! -d "${build_dir}" ]]; then
  echo "error: build dir '${build_dir}' not found (configure+build first)" >&2
  exit 1
fi

echo "== quickstart =="
"${build_dir}/examples/quickstart"

echo "== hynapse_cli failure-rates (2000 samples) =="
"${build_dir}/examples/hynapse_cli" failure-rates 2000

echo "== bitcell_margin_analysis =="
"${build_dir}/examples/bitcell_margin_analysis"

echo "== voltage_scaling_explorer =="
"${build_dir}/examples/voltage_scaling_explorer"

echo "== design_space_explorer =="
"${build_dir}/examples/design_space_explorer"

echo "== bench_corners (2000 samples) =="
"${build_dir}/bench/bench_corners" --samples 2000

echo "== bench_table1_ann --no-such-flag exits 2 =="
status=0
"${build_dir}/bench/bench_table1_ann" --no-such-flag 2>/dev/null || status=$?
if [[ ${status} -ne 2 ]]; then
  echo "error: bench_table1_ann --no-such-flag exited ${status}, not 2" >&2
  exit 1
fi

echo "== hynapse_cli characterize --bogus exits 2 =="
status=0
"${build_dir}/examples/hynapse_cli" characterize --bogus >/dev/null 2>&1 || status=$?
if [[ ${status} -ne 2 ]]; then
  echo "error: hynapse_cli characterize --bogus exited ${status}, not 2" >&2
  exit 1
fi

if [[ -x "${build_dir}/bench/bench_micro_kernels" ]]; then
  echo "== bench_micro_kernels (reduced iterations) =="
  # Every microbenchmark, BM_DeltaResolveLowV (one low-vdd Table-I chip's
  # fault resolve) and the served start-up's BM_GenerateDigits and
  # BM_TrainServedNetwork included. Plain-double min_time works on both
  # benchmark 1.7 (only form accepted) and 1.8+ (deprecated but accepted).
  "${build_dir}/bench/bench_micro_kernels" --benchmark_min_time=0.01
else
  echo "== bench_micro_kernels not built (Google Benchmark missing); skipped =="
fi

cache=$(mktemp -d)
trap 'rm -rf "${cache}"' EXIT

echo "== bench_fig5_failure_rates --adaptive (12000 samples, fresh) =="
HYNAPSE_CACHE_DIR="${cache}" "${build_dir}/bench/bench_fig5_failure_rates" \
  --fresh --samples 12000 --adaptive

echo "== bench_serve_throughput (300 samples) =="
"${build_dir}/bench/bench_serve_throughput" --samples 300

echo "== bench_eval_hotpath (24 chips) =="
"${build_dir}/bench/bench_eval_hotpath" --chips 24

echo "== bench_shard_scaling (2000 samples) =="
"${build_dir}/bench/bench_shard_scaling" --samples 2000

echo "smoke OK"
