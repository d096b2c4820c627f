#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program from source, runs one
workload and passes its report through.

Run from the repository root:

  python3 perfbench/run.py --workload hub --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --workload all --seed 1   # each in its own process
  python3 perfbench/run.py --selftest     # tests of the benchmark's logic

Workloads (see perfbench/src/inputs.cc and BENCHMARK.json):
  hub     Decompose() of the D-style stand-in at a third of its scale
          (the peel carries the time) and a BitrussService on Github at
          quarter scale (fallback recomputes and local repair carry the
          time).
  sparse  Decompose() of DBLP x10 (priority, counting and index build
          carry the time) and a BitrussService on DBLP (submit, WAL,
          publish and reads carry the time).

--trace 0 prints the end-to-end metrics; --trace 1 times each layer's
calls separately, prints the per-layer metrics and the workload's premise,
and writes the spans to .bench_build/traces/<workload>-seed<n>.json.

The build goes to .bench_build/perfbench (CMake, Release).  Each run works
in a fresh directory under .bench_build/work and removes it afterwards.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is nonzero when the
build fails, a correctness check fails or the run exceeds its time limit.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_ROOT = HERE.parent / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("hub", "sparse")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                  "-j", jobs])
    # One build at a time per checkout.
    with open(BUILD_ROOT / "perfbench-build.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                return None
    return BUILD_DIR / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark-logic tests")
    args = parser.parse_args()

    if args.selftest:
        exe = build("perfbench_tests")
        return 1 if exe is None else subprocess.run([str(exe)]).returncode
    if not args.workload:
        parser.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # One process per workload, so peak RSS and warm caches stay separate.
    codes = [run_workload(exe, workload, args) for workload in workloads]
    return next((code for code in codes if code != 0), 0)


def run_workload(exe, workload, args):
    """Runs one workload in a fresh process; returns its exit code."""
    work_dir = BUILD_ROOT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
