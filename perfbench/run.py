"""The samplets benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload assemble-2d --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

It builds nothing: the library is imported from the checkout's `src`.  Each
workload runs in fresh processes (closed loop, one pipeline at a time, BLAS
threads capped at the number of usable cores): several set-up processes
write the inputs, then one process runs the timed passes and the oracle
checks.  With --trace 0 the last stdout line carries the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics; see METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = Path(__file__).resolve().parent / "work"
SETUPS = 3  # set-up runs per invocation; setup_s is their median
TIME_LIMIT = 170.0  # seconds; every child process is stopped by then


class BenchError(Exception):
    pass


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def child(role, args, work, deadline, threads, extra=()):
    """Run one worker process to completion; return its JSON result."""
    cmd = [sys.executable, str(WORKER), role, "--workload", args.name,
           "--seed", str(args.seed), "--work", str(work), *extra]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError(f"time limit reached before {role}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(threads), timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline):
    """Set up, run and check one workload; return its result record."""
    work = WORK / args.name
    nproc = len(os.sched_getaffinity(0))
    setup_s = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = perf_counter()
        child("setup", args, work, deadline, nproc)
        setup_s.append(perf_counter() - t0)
    res = child("passes", args, work, deadline, nproc,
                ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    res["setup_s"] = statistics.median(setup_s)
    # a run whose every pass failed is reported, with correct = false
    res["run_s"] = statistics.median(res["pass_s"]) if res["pass_s"] else 0.0
    if args.trace:
        single = child("single", args, work, deadline, 1)
        res["failed"] += single["failed"]
        res["attempted"] += single["failed"] + len(single["pass_s"])
        res["layers"]["blas.single_thread_ratio"] = (
            statistics.median(single["pass_s"]) / res["run_s"]
            if single["pass_s"] and res["run_s"] else 0.0
        )
    return res


def select(res, metrics, trace):
    """The metrics of BENCHMARK.json, in its order, from one result."""
    source = res["layers"] if trace else {
        "run_s": res["run_s"], "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    missing = [m["name"] for m in metrics if m["name"] not in source]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in metrics}


def report(name, res, chosen):
    """Human-readable lines ahead of the JSON result."""
    env = res["env"]
    print(f"{name}: env " + " ".join(f"{k}={v}" for k, v in env.items()))
    times = res["pass_s"]
    if times:
        # a tail percentile needs ten passes beyond it; runs have fewer
        print(f"{name}: {len(times)} untraced passes, run_s median {res['run_s']:.4f} s,"
              f" min {min(times):.4f} s, max {max(times):.4f} s")
    for key, value in res["quality"].items():
        if value and key not in chosen:
            print(f"{name}: {key} = {value:.4g}")
    if res.get("absent"):
        print(f"{name}: absent wrap targets (their metrics read 0): "
              + ", ".join(res["absent"]))
    for metric, entry in chosen.items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"{name}: error_rate = {rate:.4g} ({res['failed']} of {res['attempted']} passes failed)")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test")
    args = p.parse_args(argv)

    start = perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "samplets" / "__init__.py").is_file():
        print(f"error: no samplets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        p.error(f"unknown workload {args.workload!r}; choose from {known} or 'all'")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    deadline = start + TIME_LIMIT * len(names)

    results = {}
    try:
        for name in names:
            args.name = name
            res = run_workload(args, deadline)
            results[name] = (res, select(res, metrics, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (res, chosen) in results.items():
        report(name, res, chosen)
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {
            (f"{name}/{m}" if prefix else m): v
            for name, (_, chosen) in results.items() for m, v in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
