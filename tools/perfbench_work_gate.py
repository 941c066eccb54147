#!/usr/bin/env python3
"""Gates the repository benchmark's work counters against a baseline.

    python3 tools/perfbench_work_gate.py [--update]

Run from the root of a checkout. For each workload in
bench/baselines/perfbench_work.json this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 1

and compares the traced run's work counters (index probes, rows scanned
and materialized per query, join operators chosen, true plan cost) with
the baseline. They count work done in one pass over the seeded query
instances, not time, so they must match exactly: a change that moves one
changes what the engine does, not how fast. --update rewrites the
baseline from the runs instead of comparing.

Exit status: 0 when every counter matches, 1 on a mismatch or a run with
a wrong answer, 2 when a run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "perfbench_work.json")
COUNTERS = [
    "exec.probes", "exec.rows_scanned", "exec.rows_materialized",
    "phys.ops_inlj", "phys.ops_merge", "phys.ops_hash", "opt.true_cost",
]
RUN_ARGS = ["--seed", "1", "--seconds", "3", "--trace", "1"]


def run_workload(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload] + RUN_ARGS
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode not in (0, 1) or not lines:
        print(f"work gate: {workload}: run.py exited with {r.returncode}",
              file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the runs")
    args = ap.parse_args()

    with open(BASELINE) as f:
        baseline = json.load(f)
    failed = False
    for workload, want in baseline["workloads"].items():
        result = run_workload(workload)
        if not result["correct"]:
            print(f"work gate: {workload}: wrong answers", file=sys.stderr)
            failed = True
        got = {name: result["metrics"][name]["value"] for name in COUNTERS}
        if args.update:
            baseline["workloads"][workload] = got
            continue
        for name in COUNTERS:
            if got[name] != want.get(name):
                print(f"work gate: {workload} {name}: baseline "
                      f"{want.get(name)}, got {got[name]}", file=sys.stderr)
                failed = True
        print(f"work gate: {workload}: "
              + ", ".join(f"{n}={got[n]}" for n in COUNTERS))
    if args.update:
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
