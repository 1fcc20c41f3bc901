#!/usr/bin/env python3
"""Run one workload of the Souffle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--quick]

Run from the root of a checkout. The first run configures and builds
the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/; later runs only re-check the
build. The binary runs the workload and writes its result; this
script prints a table of every metric with its unit and sample count,
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics; a traced run
also leaves trace.json (Chrome trace) and layers.json (flat per-layer
metrics) in its run directory under .bench_build/runs/.

Tearing down the workload (unloading native modules) counts as one
more attempted operation; if the binary dies there after writing its
result, that operation counts as failed. Any other failure exits
non-zero without printing a result.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "cmake" / "souffle_perfbench"
TMP_DIR = BUILD_DIR / "tmp" / str(os.getpid())
WORKLOADS = ("zoo-compile", "native-infer", "serve-online")
# A run gives up after this long; a run that first builds the binary
# gets longer.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; False on failure."""
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = BUILD_DIR / "cmake"
        if not (cmake_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr,
                              env=child_env()).returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return False
        jobs = str(os.cpu_count() or 1)
        step = ["cmake", "--build", str(cmake_dir), "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr,
                              env=child_env()).returncode == 0


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def table_row(name, value, unit, samples):
    return f"  {name:<44} {value:>16.6g} {unit:<8} n={samples}"


def child_env():
    """The environment for build and benchmark processes: temporary
    files (the host C compiler's among them) stay in the checkout."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(TMP_DIR))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and the fewest rounds")
    args = parser.parse_args()

    start = time.monotonic()
    spec = load_spec()
    built_before = BINARY.exists()
    if not build():
        log("error: building the benchmark failed")
        return 1
    limit = RUN_LIMIT_S if built_before else BUILD_RUN_LIMIT_S

    run_dir = BUILD_DIR / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    work_dir = BUILD_DIR / "work" / str(os.getpid())
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--result", str(result_path)]
    if args.quick:
        command.append("--quick")
    remaining = max(1.0, limit - (time.monotonic() - start))
    # Its own process group, so a timeout also stops the host compiler
    # processes the binary may have started.
    proc = subprocess.Popen(command, stdout=sys.stderr, cwd=ROOT,
                            env=child_env(), start_new_session=True)
    try:
        returncode = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("error: the workload did not finish in time")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not result_path.exists():
        log(f"error: the workload exited with {returncode} and no result")
        return 1
    with open(result_path) as f:
        result = json.load(f)
    attempted = result["attempted"] + 1
    failed = result["failed"]
    if returncode < 0:
        failed += 1
        result["failures"].append(
            f"teardown: killed by signal {-returncode}")
    elif returncode != 0:
        log(f"error: the workload exited with {returncode}")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if args.trace:
            # A layer that does no work on this workload reads 0.
            value = result["per_layer"].get(name, 0.0)
        else:
            measured = result["end_to_end"].get(name)
            if measured is None or measured["unit"] != unit:
                log(f"error: end-to-end metric {name} ({unit}) missing")
                return 1
            value = measured["value"]
        if not math.isfinite(value):
            log(f"error: metric {name} is {value}")
            return 1
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  run dir {run_dir.relative_to(ROOT)}")
    print("end-to-end:")
    for name, m in sorted(result["named"].items()):
        print(table_row(name, m["value"], m["unit"], m["samples"]))
    print(table_row("error_rate", failed / attempted, "ratio", attempted))
    if args.trace:
        rounds = ", ".join(f"{phase} {count}" for phase, count
                           in sorted(result["traced_rounds"].items()))
        print(f"per-layer (traced rounds: {rounds}):")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
