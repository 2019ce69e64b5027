#!/usr/bin/env bash
# Collect the perf-trajectory artifacts as BENCH_*.json:
#   * bench_micro_kernels in Google-Benchmark JSON format
#   * the fig5 Monte-Carlo failure-table build, from scratch, serial vs
#     parallel -- the wall-clock anchor for the engine's thread pool.
#   * the fig5 adaptive-MC arm (BENCH_fig5_adaptive_mc.json): CI-targeted
#     sampling vs the fixed-sample oracle at the paper-default budget --
#     sample reduction, oracle agreement, and fixed-path bit-identity.
#   * bench_serve_throughput: the 200-request mixed trace, naive (one
#     table build and one evaluation per request, outside the service) vs
#     coalesced serve::EvalService (requests/sec + table builds), plus the
#     offered-load saturation sweep (BENCH_serve_latency.json:
#     p50/p95/p99 latency per load level around the measured capacity).
#   * bench_eval_hotpath: chips/sec through the ANN fault-injection hot
#     path, full-rebuild reference vs delta+workspace on each backend.
#   * bench_shard_scaling: monolithic vs sharded (scatter/merge) failure-
#     table builds over the {1,2,5} shard x {1,3,8} thread matrix, with
#     bit-identity asserted.
#
# scripts/plot_bench.py graphs these files across runs/PRs
# (scripts/fetch_bench_history.sh downloads past CI runs' artifacts).
#
# Usage: scripts/run_bench.sh [build-dir] [out-dir]
#   (defaults: build/release bench-results)
# Env: HYNAPSE_BENCH_SAMPLES        MC samples per mechanism for the fig5
#                                   timing run (default 12000; the paper
#                                   default 40000 is too slow for CI).
#      HYNAPSE_SERVE_BENCH_SAMPLES  MC samples per table build in the serve
#                                   trace (default 300: the naive arm pays
#                                   for one build per request).
#      HYNAPSE_EVAL_BENCH_CHIPS     chips per sweep point for the hot-path
#                                   A/B (default 24).
#      HYNAPSE_SHARD_BENCH_SAMPLES  MC samples per mechanism for the shard
#                                   scaling matrix (default 2000: it pays
#                                   for 10 table builds).
set -euo pipefail

build_dir=${1:-build/release}
out_dir=${2:-bench-results}
mkdir -p "${out_dir}"

if [[ ! -d "${build_dir}" ]]; then
  echo "error: build dir '${build_dir}' not found (configure+build first)" >&2
  exit 1
fi

echo "== bench_micro_kernels (JSON) =="
if [[ -x "${build_dir}/bench/bench_micro_kernels" ]]; then
  "${build_dir}/bench/bench_micro_kernels" \
    --benchmark_format=json \
    --benchmark_out="${out_dir}/BENCH_micro_kernels.json" \
    --benchmark_min_time=0.05
  # Fold the per-backend kernel arms (BM_Gemm*Backend/{reference,simd}/N)
  # into a "backend_speedups" key: simd speedup over reference per
  # kernel/size, so the trajectory plots don't have to re-derive it.
  python3 - "${out_dir}/BENCH_micro_kernels.json" <<'PYEOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
times = {}
for b in doc.get("benchmarks", []):
    parts = b["name"].split("/")
    if len(parts) == 3 and parts[0].endswith("Backend"):
        kernel = parts[0][len("BM_"):-len("Backend")].lower()
        times[(kernel, parts[2], parts[1])] = b["cpu_time"]
speedups = {}
for (kernel, size, backend), t in sorted(times.items()):
    ref = times.get((kernel, size, "reference"))
    if backend == "simd" and ref:
        speedups[f"{kernel}/{size}"] = round(ref / t, 3)
doc["backend_speedups"] = speedups
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
print("backend_speedups:", json.dumps(speedups))
PYEOF
else
  echo "bench_micro_kernels not built (Google Benchmark missing); skipped"
fi

echo "== fig5 failure-table build: serial vs parallel =="
samples=${HYNAPSE_BENCH_SAMPLES:-12000}
cache=$(mktemp -d)
trap 'rm -rf "${cache}"' EXIT
timing="${cache}/timing.json"

HYNAPSE_CACHE_DIR="${cache}" "${build_dir}/bench/bench_fig5_failure_rates" \
  --fresh --samples "${samples}" --threads 1 --json "${timing}" > /dev/null
HYNAPSE_CACHE_DIR="${cache}" "${build_dir}/bench/bench_fig5_failure_rates" \
  --fresh --samples "${samples}" --json "${timing}" > /dev/null

# timing.json now holds two records (serial first, parallel second); merge
# them into one BENCH_ file with the speedup computed.
serial=$(sed -n '1s/.*"seconds":\([0-9.eE+-]*\)}.*/\1/p' "${timing}")
parallel=$(sed -n '2s/.*"seconds":\([0-9.eE+-]*\)}.*/\1/p' "${timing}")
threads=$(sed -n '2s/.*"threads":\([0-9]*\).*/\1/p' "${timing}")
speedup=$(awk -v s="${serial}" -v p="${parallel}" 'BEGIN { printf "%.3f", s / p }')

cat > "${out_dir}/BENCH_fig5_failure_rates.json" <<EOF
{
  "name": "fig5_failure_table_build",
  "mc_samples": ${samples},
  "serial_seconds": ${serial},
  "parallel_seconds": ${parallel},
  "parallel_threads": ${threads},
  "speedup": ${speedup}
}
EOF

echo "serial ${serial}s, parallel ${parallel}s (threads=${threads}), speedup ${speedup}x"

echo "== fig5 adaptive MC: CI-targeted sampling vs fixed oracle =="
adaptive_json="${cache}/adaptive.json"
HYNAPSE_CACHE_DIR="${cache}" "${build_dir}/bench/bench_fig5_failure_rates" \
  --fresh --samples "${samples}" --adaptive --json "${adaptive_json}" \
  | grep -E '^\[adaptive\]|^  ' || true
# The bench appends one fig5_adaptive_mc record; keep just that line.
grep '"name":"fig5_adaptive_mc"' "${adaptive_json}" | tail -1 \
  > "${out_dir}/BENCH_fig5_adaptive_mc.json"
reduction=$(sed -n 's/.*"reduction":\([0-9.eE+-]*\),.*/\1/p' \
  "${out_dir}/BENCH_fig5_adaptive_mc.json")
echo "adaptive sample reduction: ${reduction}x"

echo "== bench_serve_throughput: naive vs coalesced + saturation sweep =="
serve_samples=${HYNAPSE_SERVE_BENCH_SAMPLES:-300}
"${build_dir}/bench/bench_serve_throughput" \
  --samples "${serve_samples}" \
  --json "${out_dir}/BENCH_serve_throughput.json" \
  --latency-json "${out_dir}/BENCH_serve_latency.json"

echo "== bench_eval_hotpath: reference rebuild vs delta+workspace =="
eval_chips=${HYNAPSE_EVAL_BENCH_CHIPS:-24}
"${build_dir}/bench/bench_eval_hotpath" \
  --chips "${eval_chips}" \
  --json "${out_dir}/BENCH_eval_hotpath.json"

echo "== bench_shard_scaling: monolithic vs scatter/merge =="
shard_samples=${HYNAPSE_SHARD_BENCH_SAMPLES:-2000}
"${build_dir}/bench/bench_shard_scaling" \
  --samples "${shard_samples}" \
  --json "${out_dir}/BENCH_shard_scaling.json"

echo "bench JSON written to ${out_dir}/"
