#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload lubm_paper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first call builds perfbench_driver from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset. Each call then
  1. generates the workload's N-Triples file and query instances from the
     seed, with reference answers from a global-statistics / INLJ engine
     (perfbench_driver prepare, its own process), and
  2. measures the engine on those inputs in a fresh process
     (perfbench_driver measure), checking every answer.
The last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
With --trace 0, qps, lat_p50_ms, lat_p99_ms and cpu_ms_per_query are scaled
by the run's host slowdown, measured by a fixed probe run between slices of
the load (perfbench/interference.h), so they read as on the reference host;
setup_s and peak_rss_mb are as measured.
The line before it records the run's settings (pinned environment, thread
counts, build info, measured effective cores) and, under "probe" and
"unscaled", the slowdown and the timings as measured. Exit status: 0 when every
answer matched, 1 when an answer check failed, 2 on any other error (then
no result line is printed).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
DRIVER_TIMEOUT_S = 170

# Engine environment variables that change behaviour. All SHAPESTATS_*
# variables are cleared; these are the ones the engine reads today, listed
# so a run records that each was unset.
CLEARED_ENV = [
    "SHAPESTATS_JOIN", "SHAPESTATS_PLAN_CACHE", "SHAPESTATS_REGISTRY",
    "SHAPESTATS_FLIGHT_DIR", "SHAPESTATS_FLIGHT_SLOW_MS",
    "SHAPESTATS_FLIGHT_QERROR", "SHAPESTATS_EVENT_LOG",
    "SHAPESTATS_CHROME_TRACE", "SHAPESTATS_SLOW_QUERY_LOG",
    "SHAPESTATS_TRACE_DIR", "SHAPESTATS_BENCH_DIR",
]
MAX_POOL_THREADS = 2


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def runs_dir():
    """Where each run's settings and the traced run's spans are kept."""
    d = os.path.join(build_dir(), "runs")
    os.makedirs(d, exist_ok=True)
    return d


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHAPESTATS_")}
    env["SHAPESTATS_THREADS"] = str(min(MAX_POOL_THREADS, nproc()))
    return env


def build_driver():
    """Configures and builds perfbench_driver; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, nproc())))
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", out, "--target", "perfbench_driver",
                 "-j", jobs])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def run_driver(cmd, env, timeout):
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=timeout)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode not in (0, 1) or not lines:
        raise BenchError(f"{cmd[1]} exited with {r.returncode}")
    return r.returncode, json.loads(lines[-1])


def run(workload, seed, seconds, trace, tamper=False):
    """Runs one workload; returns (exit code, result dict, run info dict)."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload '{workload}'")
    driver = build_driver()
    env = pinned_env()
    work = os.path.join(build_dir(), "work", f"{workload}-{seed}-{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", work]
        _, prepared = run_driver([driver, "prepare"] + common, env,
                                 deadline - time.monotonic())
        cmd = [driver, "measure"] + common + ["--seconds", str(seconds),
                                              "--trace", str(trace)]
        if tamper:
            cmd.append("--tamper")
        code, out = run_driver(cmd, env, max(1.0, deadline - time.monotonic()))
        if trace:
            shutil.copy(os.path.join(work, "spans.jsonl"),
                        os.path.join(runs_dir(), f"{workload}-seed{seed}.spans.jsonl"))
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_driver did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            raise BenchError(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    info = dict(out["info"])
    info["prepare"] = prepared
    info["env"] = {k: env.get(k, "") for k in ["SHAPESTATS_THREADS"] + CLEARED_ENV}
    with open(os.path.join(runs_dir(), f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({"result": result, "info": info}, f, indent=1)
    if code != 0 or not out["correct"]:
        code = 1
    return code, result, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        code, result, info = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 2
    print(json.dumps({"run_info": info}))
    print(json.dumps(result), flush=True)
    if code != 0:
        log("answer check failed")
    return code


if __name__ == "__main__":
    sys.exit(main())
