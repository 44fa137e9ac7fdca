#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload pimb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the driver in Release under .bench_build/ (from the
repository's src/ and this directory), runs one workload, and relays the
driver's output; its last line is the JSON result. --trace 1 runs the traced
variant, prints the per-layer metrics and writes the spans to
.bench_build/traces/<workload>-seed<N>.json (Chrome trace-event format).

--smoke runs every workload, timed and traced, at a tiny scale, and checks
that each prints exactly the metrics BENCHMARK.json declares (end-to-end
when timed, per-layer when traced), in their units, and that every output
check passes.

Exit codes: 0 ok; 1 an output check failed or the result was malformed;
2 the build failed or the arguments were bad; 3 the driver timed out.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.03

WORKLOADS = ["pimb", "scale_1m"]


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on failure. A lock
    keeps concurrent invocations from building over each other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no reconciler sources at src/; cannot build")
        return False
    os.makedirs(CMAKE_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return build_locked()


def build_locked():
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j4", "--target",
                  "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    # Its own process group, so a timeout also stops the driver's children.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver exceeded %d s" % RUN_TIMEOUT_S)
        return 3, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    """The last output line as a result object, or None if malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return None
    return result


def declared_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def smoke():
    """Every workload, timed and traced, at a tiny scale."""
    units = declared_units()
    problems = []
    for trace in (0, 1):
        declared = units[trace]
        for workload in WORKLOADS:
            start = time.monotonic()
            code, lines = run_driver(workload, 7, 1, trace,
                                     ["--scale", str(SMOKE_SCALE)])
            result = parse_result(lines)
            where = "%s --trace %d" % (workload, trace)
            log("%s: exit %d in %.1f s" % (where, code,
                                           time.monotonic() - start))
            if code != 0 or result is None or not result["correct"]:
                problems.append(where + ": failed or malformed result")
                continue
            printed = {name: metric.get("unit")
                       for name, metric in result["metrics"].items()}
            if printed != declared:
                problems.append(where + ": printed %s, declared %s" % (
                    sorted(printed.items()), sorted(declared.items())))
    for problem in problems:
        log("SMOKE FAILED: " + problem)
    log("smoke: %s" % ("ok" if not problems else
                       "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.smoke:
        return smoke()

    code, lines = run_driver(args.workload, args.seed, args.seconds,
                             args.trace)
    result = parse_result(lines)
    if code == 3 or (result is None and code == 0):
        # No usable result line: print nothing that could pass for one.
        for line in lines:
            print("# " + line)
        log("no valid result from the driver")
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
