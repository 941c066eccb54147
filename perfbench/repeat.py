#!/usr/bin/env python3
"""Runs each workload N times and reports every metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workloads lubm_paper,yago_http]
        [--trace 0] [--seconds S] [--first-seed 1] [--same-seed]
        [--save FILE] [--compare FILE]

Each run is a fresh `python3 perfbench/run.py` process; run k uses seed
first-seed + k (or first-seed every time with --same-seed). For each
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json: "ok" below a third of the bound, "near" up to the bound,
"WIDE" beyond it (setup_s is reported but exempt). --save writes the raw
values as JSON; --compare reads such a file and flags every metric whose
median is worse than the saved median by more than its bound. With
--same-seed it also reports which metrics repeated exactly. Exit status 1
when a spread is wider than its bound, a comparison fails, or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

EXEMPT_SPREAD = {"setup_s"}


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, cwd=bench.ROOT)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()
    spec = bench.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)
    bad = 0
    raw = {}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for k in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else k)
            result = one_run(w, seed, seconds, args.trace)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: run failed")
                bad += 1
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        raw[w] = values
        print(f"\n{w}: {args.runs} runs of {seconds:g} s, trace={args.trace}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            med, q1, q3, spread = summarize(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if m["name"] in EXEMPT_SPREAD:
                    verdict = "exempt"
                elif spread <= bound / 3:
                    verdict = "ok"
                elif spread <= bound:
                    verdict = "near"
                else:
                    verdict = "WIDE"
                    bad += 1
                old = saved.get(w, {}).get(m["name"])
                if old:
                    old_med = statistics.median(old)
                    worse = (med - old_med) / old_med if m["better"] == "lower" \
                        else (old_med - med) / old_med
                    verdict += f" vs saved {worse:+.3f}"
                    if worse > bound:
                        verdict += " WORSE"
                        bad += 1
            if args.same_seed:
                verdict += " exact" if len(set(vals)) == 1 else " varies"
            print(f"  {m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
