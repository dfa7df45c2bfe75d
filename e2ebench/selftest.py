#!/usr/bin/env python3
# Copyright (c) 2026 The DeltaMerge Authors.
"""Self-tests of the end-to-end benchmark (registered with ctest).

    selftest.py --bench PATH/e2e_bench --case gate_trips --dir SCRATCH
    selftest.py --bench PATH/e2e_bench --case oltp_commit --dir SCRATCH

gate_trips feeds the correctness checker an expected valid-row sum that is
off by one and asserts that the run fails: nonzero exit, "correct": false,
and the gate's message on stderr. A workload case runs that workload at
smoke size, untraced and traced, and asserts that both runs pass the gate
and print exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(bench, workload, run_dir, trace, extra=()):
    cmd = [bench, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", "1" if trace else "0", "--dir", run_dir, "--smoke",
           *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--bench", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args()

    if args.case == "gate_trips":
        rc, result, err = run(args.bench, "oltp_commit", args.dir, False,
                              ["--inject-sum-error"])
        if rc == 0:
            fail("an off-by-one expected sum did not fail the run")
        if result is None or result["correct"] is not False:
            fail(f"result not marked incorrect: {result}")
        if "correctness gate FAILED" not in err:
            fail("gate message missing from stderr")
        print("ok: the correctness gate trips on an off-by-one sum")
        return

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        rc, result, err = run(args.bench, args.case, args.dir, trace)
        if rc != 0 or result is None or result["correct"] is not True:
            fail(f"{args.case} trace={int(trace)} rc={rc}\n{err}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail(f"{args.case} trace={int(trace)} metrics {got} != {want}")
        if result["failed"] != 0 or result["attempted"] < 1:
            fail(f"{args.case}: attempted/failed {result}")
    print(f"ok: {args.case} passes at smoke size, untraced and traced")


if __name__ == "__main__":
    main()
