#!/usr/bin/env bash
# Chaos smoke test (docs/robustness.md): the serve fleet and the request
# journal under injected faults.
#
#   Leg 1 -- fleet under fire: scatter a table build over two loopback
#   workers with failpoints armed (one worker crashes its first shard
#   build, the coordinator drops its first connection before sending), and
#   byte-compare the merged CSV against a clean single-process build.
#
#   Leg 2 -- crash recovery: replay a request trace through hynapse_served
#   with a journal, kill -9 the process mid-trace, restart it with
#   --recover, and check the combined responses are bit-identical (per
#   tag) to an uninterrupted run.
#
# Usage: scripts/run_chaos_smoke.sh [build-dir]   (default: build/release)
set -euo pipefail

build_dir=${1:-build/release}
cli="${build_dir}/examples/hynapse_cli"
served="${build_dir}/examples/hynapse_served"

for bin in "${cli}" "${served}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found (configure+build first)" >&2
    exit 1
  fi
done

samples=600
seed=20160312
shards=3

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill -9 "${pid}" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "${work}"
}
trap cleanup EXIT

# Starts one fleet worker and sets `port`; runs in the script's own shell
# (never inside $(...)), so the pid lands in pids for the EXIT trap.
start_worker() {
  local cache_dir=$1 log=$2 failpoints=$3
  port=
  HYNAPSE_CACHE_DIR="${cache_dir}" HYNAPSE_FAILPOINTS="${failpoints}" \
    "${cli}" fleet-worker 0 "${samples}" "${seed}" >"${log}" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^fleet-worker listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "${log}")
    if [[ -n "${port}" ]]; then
      return 0
    fi
    sleep 0.1
  done
  echo "error: fleet worker did not come up; log:" >&2
  cat "${log}" >&2
  return 1
}

echo "== leg 1: fleet build with failpoints armed =="
# Worker 1 throws inside its first shard build (the coordinator sees a
# failed response and fails the shard over); the coordinator additionally
# drops one connection before sending (that worker thread retires and the
# survivors plus the local pool absorb its work).
start_worker "${work}/worker1" "${work}/worker1.log" "serve.shard_crash=first:1"
p1=${port}
start_worker "${work}/worker2" "${work}/worker2.log" ""
p2=${port}
echo "workers on ports ${p1} (shard_crash armed) and ${p2} (clean)"

HYNAPSE_CACHE_DIR="${work}/fleet" \
  HYNAPSE_FAILPOINTS="fleet.drop_before_send=first:1" \
  "${cli}" fleet-build "${shards}" \
  --workers "127.0.0.1:${p1},127.0.0.1:${p2}" "${samples}" "${seed}"

echo "== clean single-process build of the same provenance =="
HYNAPSE_CACHE_DIR="${work}/solo" "${cli}" shard-build 0 1 "${samples}" "${seed}"
HYNAPSE_CACHE_DIR="${work}/solo" "${cli}" shard-merge 1 "${samples}" "${seed}"

fleet_csv=$(find "${work}/fleet" -name 'failure_table_*.csv' ! -name '*_shard*' | head -1)
solo_csv=$(find "${work}/solo" -name 'failure_table_*.csv' ! -name '*_shard*' | head -1)
if [[ -z "${fleet_csv}" || -z "${solo_csv}" ]]; then
  echo "error: merged CSV missing (fleet='${fleet_csv}' solo='${solo_csv}')" >&2
  exit 1
fi
if ! cmp "${fleet_csv}" "${solo_csv}"; then
  echo "error: fleet-under-faults table differs from the clean build" >&2
  exit 1
fi
echo "merged CSV byte-identical under injected faults ($(wc -l <"${fleet_csv}") lines)"

for pid in "${pids[@]}"; do
  kill -TERM "${pid}" 2>/dev/null || true
done
for pid in "${pids[@]}"; do
  wait "${pid}" 2>/dev/null || true
done
for pid in "${pids[@]}"; do
  if kill -0 "${pid}" 2>/dev/null; then
    echo "error: fleet worker ${pid} still running after SIGTERM" >&2
    exit 1
  fi
done
pids=()

echo "== leg 2: kill -9 mid-trace, then --recover =="
# Each request pins a distinct Monte-Carlo sample count, so each builds
# its own failure table: completions stagger instead of landing together,
# which keeps the kill window wide enough to interrupt the trace.
trace="${work}/trace.jsonl"
cat >"${trace}" <<'EOF'
{"op":"evaluate","config":"all6t","vdd":0.65,"samples":1500,"tag":"t1"}
{"op":"evaluate","config":"all6t","vdd":0.70,"samples":1600,"tag":"t2"}
{"op":"evaluate","config":"hybrid2","vdd":0.65,"samples":1700,"tag":"t3"}
{"op":"evaluate","config":"hybrid2","vdd":0.70,"samples":1800,"tag":"t4"}
{"op":"evaluate","config":"hybrid3","vdd":0.65,"samples":1900,"tag":"t5"}
{"op":"evaluate","config":"hybrid3","vdd":0.70,"samples":2000,"tag":"t6"}
EOF
served_args=(--chips 2 --samples 2000)

# Reference: the same trace, uninterrupted, no journal.
"${served}" "${served_args[@]}" --cache "${work}/cache_clean" "${trace}" \
  >"${work}/clean.jsonl" 2>"${work}/clean.log"

# Crash run: journaled replay against a cold cache (so later tables are
# still building when the kill lands), killed as soon as the first
# response lands.
journal="${work}/requests.journal.jsonl"
"${served}" "${served_args[@]}" --cache "${work}/cache_crash" \
  --journal "${journal}" "${trace}" \
  >"${work}/crash1.jsonl" 2>"${work}/crash1.log" &
served_pid=$!
pids+=("${served_pid}")
for _ in $(seq 1 600); do
  if [[ -s "${work}/crash1.jsonl" ]]; then
    break
  fi
  if ! kill -0 "${served_pid}" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
kill -9 "${served_pid}" 2>/dev/null || true
wait "${served_pid}" 2>/dev/null || true
pids=()
printed_before=$(wc -l <"${work}/crash1.jsonl")
echo "killed served after ${printed_before} printed response(s)"

# Recovery: an empty trace, so the restarted process answers exactly the
# journal's incomplete entries. Same cache dir -- a restart on the same
# machine reuses whatever table CSVs survived.
: >"${work}/empty.jsonl"
"${served}" "${served_args[@]}" --cache "${work}/cache_crash" \
  --journal "${journal}" --recover \
  "${work}/empty.jsonl" >"${work}/crash2.jsonl" 2>"${work}/crash2.log"
printed_after=$(wc -l <"${work}/crash2.jsonl")
echo "recovery replayed ${printed_after} response(s)"

# Per-tag bit-identity: every tag of the clean run must appear in the
# combined crash+recovery output with byte-identical status/results. A
# torn trailing line (killed mid-write) is tolerated; a request both
# printed and replayed (terminal record lost to the crash) must agree
# with itself.
python3 - "${work}/clean.jsonl" "${work}/crash1.jsonl" "${work}/crash2.jsonl" <<'EOF'
import json, sys

def payloads(path, tolerate_torn):
    out = {}
    lines = open(path).read().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if tolerate_torn and i == len(lines) - 1:
                continue  # killed mid-write
            raise SystemExit(f"error: {path}:{i+1}: unparseable line")
        tag = doc.get("tag")
        if tag is None:
            continue
        payload = json.dumps({"status": doc.get("status"),
                              "results": doc.get("results")}, sort_keys=True)
        if tag in out and out[tag] != payload:
            raise SystemExit(f"error: tag {tag} answered differently twice")
        out[tag] = payload
    return out

clean = payloads(sys.argv[1], tolerate_torn=False)
combined = payloads(sys.argv[2], tolerate_torn=True)
for tag, payload in payloads(sys.argv[3], tolerate_torn=False).items():
    if tag in combined and combined[tag] != payload:
        raise SystemExit(f"error: tag {tag} differs between crash and recovery")
    combined[tag] = payload

if set(clean) != set(combined):
    raise SystemExit(f"error: tag sets differ: clean={sorted(clean)} "
                     f"crash+recovery={sorted(combined)}")
diffs = [t for t in clean if clean[t] != combined[t]]
if diffs:
    raise SystemExit(f"error: responses differ for tags {diffs}")
print(f"crash+recovery output bit-identical to the clean run "
      f"({len(clean)} tagged responses)")
EOF

echo "chaos smoke OK"
