#!/usr/bin/env bash
# Runs every perf_* bench with --json and collects BENCH_<name>.json files
# so perf trajectories can be tracked across commits.
#
# Usage: tools/run_benches.sh [--gate-kernels] [build_dir] [out_dir]
#   build_dir  defaults to build (must already be built)
#   out_dir    defaults to the current directory
#
# --gate-kernels: after the run, assert from BENCH_strsim.json that the
#   Myers bit-parallel Levenshtein kernel is at least 2x faster than the
#   scalar row DP on the recorded title-length workload. The gate is
#   single-threaded, so it runs fine on 1-CPU machines.
#
# Honors RECON_BENCH_SCALE / RECON_BENCH_THREADS like the benches do.

set -euo pipefail

GATE_KERNELS=0
while [[ "${1:-}" == --gate-* ]]; do
  case "$1" in
    --gate-kernels) GATE_KERNELS=1 ;;
    *) echo "error: unknown gate $1" >&2; exit 2 ;;
  esac
  shift
done

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
BENCH_DIR="${BUILD_DIR}/bench"

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: ${BENCH_DIR} not found; build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j \"\$(nproc)\"" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

status=0
for bench in "${BENCH_DIR}"/perf_*; do
  [[ -x "${bench}" ]] || continue
  name="$(basename "${bench}")"
  out="${OUT_DIR}/BENCH_${name#perf_}.json"
  echo "== ${name} -> ${out}"
  if ! "${bench}" --json "${out}"; then
    echo "error: ${name} failed" >&2
    status=1
    continue
  fi
  # Every result file must record the hardware it was produced on
  # ("hardware_concurrency" from JsonLog, "num_cpus" from google-benchmark),
  # so caveats like "1-CPU container, speedups ~1x" are machine-checkable.
  if ! grep -qE '"(hardware_concurrency|num_cpus)"' "${out}"; then
    echo "error: ${out} lacks hardware metadata" >&2
    status=1
  fi
done

if [[ ${GATE_KERNELS} -eq 1 && ${status} -eq 0 ]]; then
  strsim="${OUT_DIR}/BENCH_strsim.json"
  echo "== gate: bit-parallel Levenshtein >= 2x scalar (${strsim})"
  if ! python3 - "${strsim}" <<'PYEOF'
import json, sys

doc = json.load(open(sys.argv[1]))

def cpu_time(name):
    rows = [b for b in doc.get("benchmarks", [])
            if b.get("name") == name and b.get("run_type", "iteration") ==
            "iteration"]
    if not rows:
        sys.exit(f"gate: no {name} row in BENCH_strsim.json")
    return min(float(r["cpu_time"]) for r in rows)

scalar = cpu_time("BM_LevenshteinScalar")
bitpar = cpu_time("BM_LevenshteinBitParallel")
speedup = scalar / bitpar if bitpar > 0 else float("inf")
if speedup >= 2.0:
    print(f"gate: PASS — bit-parallel Levenshtein {speedup:.2f}x faster "
          f"than scalar ({scalar:.0f} ns vs {bitpar:.0f} ns)")
else:
    sys.exit(f"gate: FAIL — bit-parallel Levenshtein only {speedup:.2f}x "
             f"faster than scalar ({scalar:.0f} ns vs {bitpar:.0f} ns; "
             "need >= 2x)")
PYEOF
  then
    status=1
  fi
fi

exit ${status}
