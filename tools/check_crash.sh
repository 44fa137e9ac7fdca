#!/usr/bin/env bash
# One-command crash-safety check for the durability layer (DESIGN.md §15):
#
#   1. configures and builds build-asan/ with
#      -DRECON_SANITIZE=address-undefined (shared with check_asan.sh),
#   2. runs the fault-injected crash sweep under ASan + UBSan — every
#      injected I/O fault index x fault kind (crash, torn write, EIO) x
#      thread count, with recovery byte-identity as the oracle — plus the
#      daemon-level smoke tests (SIGTERM drain, overload shedding),
#   3. soaks the real daemon: repeatedly acknowledges ingest batches over
#      HTTP, kill -9's the process mid-service, restarts it bare from
#      --data-dir, and asserts every acknowledged generation survived;
#      the final cycle drains via SIGTERM and must seal the WAL and
#      exit 0. The daemon runs under ASan the whole time.
#
# Usage: tools/check_crash.sh [asan_build_dir] [soak_cycles]
#   asan_build_dir  defaults to build-asan (created if missing)
#   soak_cycles     kill -9 cycles in step 3, defaults to 3

set -euo pipefail

ASAN_DIR="${1:-build-asan}"
SOAK_CYCLES="${2:-3}"

echo "== [1/3] configure + build ${ASAN_DIR} (-DRECON_SANITIZE=address-undefined)"
cmake -B "${ASAN_DIR}" -S . -DRECON_SANITIZE=address-undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${ASAN_DIR}" -j "$(nproc)"

echo
echo "== [2/3] fault-injected crash sweep under ASan + UBSan"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
  ctest --test-dir "${ASAN_DIR}" \
    -R 'RecoveryTest|ReconcileServeTest|HttpOverloadTest' \
    --output-on-failure

echo
echo "== [3/3] kill -9 soak: ${SOAK_CYCLES} crash/restart cycles of the live daemon"
SERVE="${ASAN_DIR}/tools/reconcile_serve"
DATA_DIR="$(mktemp -d /tmp/recon-crash-soak-XXXXXX)"
OUT="${DATA_DIR}/serve.out"
SERVE_PID=""

cleanup() {
  [[ -n "${SERVE_PID}" ]] && kill -9 "${SERVE_PID}" 2>/dev/null || true
  rm -rf "${DATA_DIR}"
}
trap cleanup EXIT

# Starts the daemon (demo dataset on the first boot, bare --data-dir
# restarts after) and waits for its "listening on port N" line. Sets
# SERVE_PID and PORT.
start_daemon() {
  local extra=("$@")
  : > "${OUT}"
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=0 ${ASAN_OPTIONS:-}" \
    "${SERVE}" --port 0 --threads 2 --data-dir "${DATA_DIR}" \
    --fsync every-record "${extra[@]}" >"${OUT}" 2>&1 &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(sed -n 's/^listening on port \([0-9]*\).*/\1/p' "${OUT}")"
    [[ -n "${PORT}" ]] && return 0
    if ! kill -0 "${SERVE_PID}" 2>/dev/null; then
      echo "FAILED: daemon died during startup:"; cat "${OUT}"; exit 1
    fi
    sleep 0.1
  done
  echo "FAILED: daemon never reported its port:"; cat "${OUT}"; exit 1
}

# One acknowledged (fsync'd, flush=true) ingest; prints the new generation.
ingest_one() {
  local name="$1"
  local body
  body="$(curl -sf -d '{"references": [{"class": "Person", "values":
    {"name": ["'"${name}"'"]}}], "flush": true}' \
    "localhost:${PORT}/ingest")" || {
    echo "FAILED: ingest of ${name} not acknowledged"; exit 1; }
  sed -n 's/.*"generation": *\([0-9]*\).*/\1/p' <<<"${body}"
}

stat_field() {
  curl -sf "localhost:${PORT}/stats" \
    | sed -n 's/.*"'"$1"'": *\([0-9a-z]*\).*/\1/p'
}

start_daemon --demo
ACKED=0
for cycle in $(seq 1 "${SOAK_CYCLES}"); do
  GEN="$(ingest_one "Crash Soak ${cycle}")"
  [[ "${GEN}" -gt "${ACKED}" ]] || {
    echo "FAILED: ingest did not advance the generation"; exit 1; }
  ACKED="${GEN}"
  kill -9 "${SERVE_PID}"
  wait "${SERVE_PID}" 2>/dev/null || true
  SERVE_PID=""

  start_daemon  # bare restart: state comes from --data-dir alone
  grep -q "^Recovered generation" "${OUT}" || {
    echo "FAILED: restart did not recover:"; cat "${OUT}"; exit 1; }
  DURABLE="$(stat_field durable_generation)"
  [[ "${DURABLE}" -ge "${ACKED}" ]] || {
    echo "FAILED: acked generation ${ACKED} lost (durable ${DURABLE})"; exit 1; }
  RECOVERED="$(stat_field recovered)"
  [[ "${RECOVERED}" == "true" ]] || {
    echo "FAILED: /stats does not report recovery"; exit 1; }
  echo "  cycle ${cycle}: acked generation ${ACKED} survived kill -9"
done

# Every soaked reference must still be queryable after the last recovery.
for cycle in $(seq 1 "${SOAK_CYCLES}"); do
  curl -sf -d '{"q0": {"query": "Crash Soak '"${cycle}"'", "type": "Person"}}' \
      "localhost:${PORT}/reconcile" | grep -q "Crash Soak ${cycle}" || {
    echo "FAILED: recovered state lost reference 'Crash Soak ${cycle}'"; exit 1; }
done

# Graceful drain: SIGTERM must seal the WAL and exit 0.
kill -TERM "${SERVE_PID}"
if ! wait "${SERVE_PID}"; then
  echo "FAILED: SIGTERM drain exited non-zero:"; cat "${OUT}"; exit 1
fi
SERVE_PID=""
grep -q "^sealed wal at generation" "${OUT}" || {
  echo "FAILED: graceful shutdown did not seal the WAL:"; cat "${OUT}"; exit 1; }

echo
echo "OK: crash sweep ASan-clean; ${SOAK_CYCLES} kill -9 cycles lost nothing; SIGTERM sealed."
