#!/usr/bin/env python3
"""Short self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 2] [--seed 1]

For every workload it makes one short timed run and one short traced run
with the same seed and checks that
  - every metric of BENCHMARK.json is reported with its unit,
  - every answer matched the reference and no query failed,
  - the plan-quality figures (q-error percentiles, true cost) of the two
    runs are identical, as they must be for one seed,
  - the timed run's host probe ran and its scaling was applied.
It then corrupts one reference answer and checks that the run fails.
Exit status 0 when everything holds, 1 otherwise.
"""
import argparse
import sys

import run as bench


def check(ok, what, failures):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = bench.load_spec()
    failures = []
    for w in [x["name"] for x in spec["workloads"]]:
        quality = []
        for trace in (0, 1):
            tag = f"{w} trace={trace}"
            try:
                code, result, info = bench.run(w, args.seed, args.seconds, trace)
            except bench.BenchError as e:
                check(False, f"{tag}: {e}", failures)
                continue
            names = spec["per_layer"] if trace else spec["end_to_end"]
            check(len(result["metrics"]) == len(names),
                  f"{tag}: all {len(names)} metrics present with their units", failures)
            check(code == 0 and result["correct"],
                  f"{tag}: answers match the reference", failures)
            check(result["failed"] == 0 and result["attempted"] > 0,
                  f"{tag}: {result['attempted']} attempted, error rate 0", failures)
            quality.append(info["plan_quality"])
            if trace == 0:
                probe, raw = info["probe"], info["unscaled"]
                check(probe["samples"] > 0 and
                      abs(result["metrics"]["qps"]["value"] -
                          raw["qps"] * probe["slowdown"]) <= 1e-6 * raw["qps"] * probe["slowdown"],
                      f"{tag}: the host probe ran and qps is scaled by its slowdown", failures)
                pq = info["plan_quality"]
                check(result["metrics"]["qerror_p50"]["value"] == pq["qerror_p50"] and
                      result["metrics"]["qerror_p95"]["value"] == pq["qerror_p95"],
                      f"{tag}: q-error metrics come from the plan-quality pass", failures)
        if len(quality) == 2:
            check(quality[0] == quality[1],
                  f"{w}: plan quality repeats exactly for seed {args.seed}", failures)
    try:
        code, result, _ = bench.run(spec["workloads"][0]["name"], args.seed,
                                    1, 0, tamper=True)
        check(code != 0 and not result["correct"],
              "a corrupted reference answer fails the run", failures)
    except bench.BenchError as e:
        check(False, f"tampered run: {e}", failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
