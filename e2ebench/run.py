#!/usr/bin/env python3
# Copyright (c) 2026 The DeltaMerge Authors.
"""Builds and runs the DeltaMerge end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload oltp_commit --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all          # every workload in turn

The first call configures and builds e2ebench/ (which compiles ../src) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that variable is
unset; build output goes to stderr so the benchmark's own last stdout line,
one JSON object, stays last. The table lives under .bench_run/ while the run
lasts and is removed afterwards; --trace 1 also writes a Chrome trace to
.bench_out/. Exits nonzero, without a result line, if the build fails, and
nonzero if the correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp_commit", "ingest_merge", "olap_scan")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds e2e_bench; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("build failed", file=sys.stderr)
            return None
    return os.path.join(build_dir, "e2e_bench")


def run_one(binary, workload, seed, seconds, trace, smoke):
    run_dir = os.path.join(ROOT, ".bench_run", f"{workload}-{seed}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", run_dir]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, f"trace-{workload}-{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tables 64x smaller, one set-up (seconds-long runs)")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for w in workloads:
        rc = run_one(binary, w, args.seed, args.seconds, args.trace == 1,
                     args.smoke)
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
