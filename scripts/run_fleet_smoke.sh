#!/usr/bin/env bash
# Fleet smoke test: start two `hynapse_cli fleet-worker` processes on
# loopback, scatter a table build across them with `fleet-build`, build the
# same provenance single-process, and byte-compare the two merged CSVs --
# the distributed build must be bit-identical (docs/distributed.md). Then
# stop the workers (each must exit and say so) and run `fleet-build` again:
# it must answer from the merged CSV without scattering. Used by CI and
# handy after a local build.
#
# Usage: scripts/run_fleet_smoke.sh [build-dir]   (default: build/release)
set -euo pipefail

build_dir=${1:-build/release}
cli="${build_dir}/examples/hynapse_cli"

if [[ ! -x "${cli}" ]]; then
  echo "error: ${cli} not found (configure+build first)" >&2
  exit 1
fi

# Small enough for a smoke run, big enough that every shard does real
# Monte-Carlo work. Three shards over two workers forces at least one
# worker to build more than one shard.
samples=600
seed=20160312
shards=3

work=$(mktemp -d)
worker_pids=()
cleanup() {
  for pid in "${worker_pids[@]}"; do
    kill "${pid}" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "${work}"
}
trap cleanup EXIT

# Starts one fleet worker on an ephemeral port (isolated cache dir) and
# sets `port` to the port it reports on stdout. Runs in the script's own
# shell (never inside $(...)), so the pid lands in worker_pids and the
# EXIT trap can stop the worker.
start_worker() {
  local cache_dir=$1 log=$2
  port=
  HYNAPSE_CACHE_DIR="${cache_dir}" "${cli}" fleet-worker 0 "${samples}" \
    "${seed}" >"${log}" 2>&1 &
  worker_pids+=($!)
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

echo "== starting 2 fleet workers on loopback =="
start_worker "${work}/worker1" "${work}/worker1.log"
p1=${port}
start_worker "${work}/worker2" "${work}/worker2.log"
p2=${port}
echo "workers listening on ports ${p1} and ${p2}"

echo "== fleet build: ${shards} shards over 2 workers =="
first=$(HYNAPSE_CACHE_DIR="${work}/fleet" "${cli}" fleet-build "${shards}" \
  --workers "127.0.0.1:${p1},127.0.0.1:${p2}" "${samples}" "${seed}")
echo "${first}"
if ! grep -q "^scattered ${shards} shards across 2 worker(s)$" <<<"${first}"; then
  echo "error: first fleet-build did not report its scatter" >&2
  exit 1
fi

echo "== single-process build of the same provenance =="
HYNAPSE_CACHE_DIR="${work}/solo" "${cli}" shard-build 0 1 "${samples}" "${seed}"
HYNAPSE_CACHE_DIR="${work}/solo" "${cli}" shard-merge 1 "${samples}" "${seed}"

# Merged CSVs are keyed by the (spec, analyzer) fingerprint, which is
# independent of the shard count, so both runs produce the same file name.
fleet_csv=$(find "${work}/fleet" -name 'failure_table_*.csv' ! -name '*_shard*' | head -1)
solo_csv=$(find "${work}/solo" -name 'failure_table_*.csv' ! -name '*_shard*' | head -1)
if [[ -z "${fleet_csv}" || -z "${solo_csv}" ]]; then
  echo "error: merged CSV missing (fleet='${fleet_csv}' solo='${solo_csv}')" >&2
  exit 1
fi
if [[ "$(basename "${fleet_csv}")" != "$(basename "${solo_csv}")" ]]; then
  echo "error: fingerprint mismatch: $(basename "${fleet_csv}") vs $(basename "${solo_csv}")" >&2
  exit 1
fi

echo "== comparing merged CSVs =="
if ! cmp "${fleet_csv}" "${solo_csv}"; then
  echo "error: fleet-built table differs from single-process build" >&2
  exit 1
fi
echo "fleet CSV is byte-identical to the single-process build ($(wc -l <"${fleet_csv}") lines)"

# Scrape each still-running worker with the protocol's `stats` op: the
# snapshot must parse, its per-request wall-time histogram must account for
# every completed request (scrapes exclude themselves), and the two workers
# together must have built exactly the scattered shards.
echo "== scraping worker stats (protocol stats op) =="
total_shard_builds=0
for p in "${p1}" "${p2}"; do
  builds=$("${cli}" stats "127.0.0.1:${p}" --json | python3 -c '
import json, sys
doc = json.loads(sys.stdin.readline())
assert doc["status"] == "done", doc
health = doc["health"]
assert health["uptime_s"] > 0, health
totals = health["totals"]
registry = {m["name"]: m for m in doc["registry"]}
wall = registry["serve.request.wall_us"]
assert wall["kind"] == "histogram", wall
terminal = totals["completed"] + totals["failed"]
assert wall["count"] == terminal, (wall["count"], terminal)
print(totals["shard_builds"])
')
  echo "worker :${p} shard_builds=${builds}"
  total_shard_builds=$((total_shard_builds + builds))
done
if [[ "${total_shard_builds}" -ne "${shards}" ]]; then
  echo "error: workers report ${total_shard_builds} shard builds, expected ${shards}" >&2
  exit 1
fi
echo "stats scrape OK: ${total_shard_builds}/${shards} shard builds accounted for"

# Graceful worker shutdown: SIGTERM, then every worker must have exited
# and printed its "stopped" line.
for pid in "${worker_pids[@]}"; do
  kill -TERM "${pid}" 2>/dev/null || true
done
for pid in "${worker_pids[@]}"; do
  wait "${pid}" || true
done
for pid in "${worker_pids[@]}"; do
  if kill -0 "${pid}" 2>/dev/null; then
    echo "error: fleet worker ${pid} still running after SIGTERM" >&2
    exit 1
  fi
done
worker_pids=()
for log in "${work}"/worker*.log; do
  if ! grep "fleet-worker stopped" "${log}"; then
    echo "error: no 'fleet-worker stopped' line in ${log}" >&2
    exit 1
  fi
done

# The merged CSV is now on disk: a second fleet-build of the same
# provenance must answer from it -- no worker (they are gone), no local
# shard build -- and leave the CSV byte for byte as it was.
echo "== second fleet build: served from the merged CSV =="
cp "${fleet_csv}" "${work}/first_merge.csv"
second=$(HYNAPSE_CACHE_DIR="${work}/fleet" "${cli}" fleet-build "${shards}" \
  --workers "127.0.0.1:${p1},127.0.0.1:${p2}" "${samples}" "${seed}")
echo "${second}"
if ! grep -q "^served from the table cache$" <<<"${second}" ||
   grep -q "^scattered" <<<"${second}" ||
   ! grep -q " 0 remote (from 0 worker(s)), 0 local fallback," <<<"${second}"; then
  echo "error: second fleet-build scattered instead of replaying the merged CSV" >&2
  exit 1
fi
if ! cmp "${fleet_csv}" "${work}/first_merge.csv"; then
  echo "error: second fleet-build changed the merged CSV" >&2
  exit 1
fi

echo "fleet smoke OK"
