"""One process of a benchmark run.  `run.py` starts it with PYTHONPATH
pointing at the checkout's `src` and the BLAS thread count capped:

    worker.py setup  --workload W --seed S --work DIR [--tiny]
    worker.py passes --workload W --seed S --work DIR --seconds R --trace 0|1 [--tiny]
    worker.py single --workload W --seed S --work DIR [--tiny]

`setup` writes the inputs and runs one warm-up pass.  `passes` runs timed
passes for R seconds and then the oracle; with --trace 1 it splits R between
untraced and traced passes and adds the per-layer metrics.  `single` runs
two passes for the single-thread BLAS comparison.  The last line of stdout
is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import samplets
from layers import TARGETS, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, PassClock

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
ORACLE_DEFAULTS = {
    "oracle.matrix_rel_error": 0.0,
    "oracle.fit_rel_residual": 0.0,
    "oracle.recon_rel_error": 0.0,
    "oracle.kept_fraction": 0.0,
    "compression.asym_max": 0.0,
}


class Phase:
    def __init__(self):
        self.times = []
        self.layers = []
        self.failed = 0
        self.out = None

    @property
    def attempted(self):
        return len(self.times) + self.failed


def run_passes(workload, ctx, seconds, min_passes, tracer=None):
    """Run passes until `seconds` have passed and at least `min_passes` ran.

    A pass that raises (a failed check included) counts as failed and gives
    no time.
    """
    phase = Phase()
    deadline = perf_counter() + seconds
    while phase.attempted < min_passes or perf_counter() < deadline:
        clock = PassClock(tracer)
        if tracer is not None:
            tracer.begin_pass(phase.attempted)
        t0 = perf_counter()
        try:
            out = workload.run_pass(ctx, clock)
        except Exception:  # a failed pass is recorded, the run goes on
            if phase.failed == 0:
                traceback.print_exc()
            phase.failed += 1
            if tracer is not None:
                tracer.end_pass()
            continue
        phase.times.append(perf_counter() - t0 - clock.excluded)
        phase.out = out
        if tracer is not None:
            totals = tracer.end_pass()
            phase.layers.append(layer_metrics(totals, tracer.counters, tracer.objects))
    return phase


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_run(workload, ctx, args):
    untraced = run_passes(
        workload, ctx, args.seconds / 2 if args.trace else args.seconds, MIN_PASSES
    )
    # high-water mark of the timed passes alone; nothing forces a collection
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    phases = [untraced]
    result = {"env": environment(), "pass_s": untraced.times, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        tracer = Tracer(TARGETS)
        tracer.install()
        try:
            traced = run_passes(
                workload, ctx, args.seconds / 2, MIN_TRACED_PASSES, tracer
            )
        finally:
            tracer.uninstall()
        phases.append(traced)
        layers = {
            k: statistics.median(p[k] for p in traced.layers)
            for k in (traced.layers[0] if traced.layers else ())
        }
        layers.update(workload.memory(ctx))
        if traced.times and untraced.times:
            layers["trace_overhead"] = statistics.median(traced.times) / statistics.median(
                untraced.times
            )
        result["traced_pass_s"] = traced.times
        result["absent"] = tracer.absent
    failed = sum(p.failed for p in phases)
    quality = dict(ORACLE_DEFAULTS)
    if untraced.out is not None:
        try:
            quality.update(workload.oracle(ctx, untraced.out))
        except Exception:  # the oracle's verdict fails the pass it checked
            traceback.print_exc()
            failed += 1
    result["quality"] = quality
    if args.trace:
        layers.update(quality)
        result["layers"] = layers
        tracer.save(
            Path(args.work) / f"trace-seed{args.seed}.npz",
            json.dumps({k: v for k, v in result.items() if k != "layers"}),
        )
    result["attempted"] = sum(p.attempted for p in phases)
    result["failed"] = failed
    return result


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("setup", "passes", "single"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    args.seed %= 2**32  # numpy seeds are non-negative

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(samplets.__file__).resolve().parent.parent != src:
        raise SystemExit(f"samplets imported from {samplets.__file__}, not {src}")
    workload = WORKLOADS[args.workload]("tiny" if args.tiny else "full")
    if args.role == "setup":
        workload.setup(args.work, args.seed)
        result = {}
    else:
        ctx = workload.prepare(args.work, args.seed)
        if args.role == "passes":
            result = timed_run(workload, ctx, args)
        else:
            phase = run_passes(workload, ctx, 0.0, 2)
            result = {"pass_s": phase.times, "failed": phase.failed}
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
