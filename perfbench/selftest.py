"""Fast self-test of the benchmark at tiny sizes (under a minute):

    python3 perfbench/selftest.py

It runs every workload through run.py with tracing off and on and checks
the result line against BENCHMARK.json; checks that the span tree of a
traced assembly adds up; that a missing wrap target is reported absent
without stopping the run; that each oracle check fails a pass when the
library is made to compute a wrong result; and that run.py exits non-zero
where there are no samplets sources.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import samplets as sp  # noqa: E402
from layers import TARGETS  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from worker import run_passes  # noqa: E402
from workloads import WORKLOADS, CheckFailed, PassClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = HERE / "work" / "selftest"


def expect(ok, message):
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_results():
    """Every workload, tracing off and on: the result line obeys the contract."""
    layers = {}
    for wl in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("--workload", wl["name"], "--seed", "5", "--seconds",
                                "0.5", "--trace", str(trace), "--tiny")
            expect(code == 0, f"{wl['name']} trace={trace} exited {code}")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{wl['name']} trace={trace}: {result['failed']} failed")
            names = [m["name"] for m in SPEC[group]]
            expect(list(result["metrics"]) == names, f"{wl['name']} metric names")
            for m in SPEC[group]:
                entry = result["metrics"][m["name"]]
                expect(entry["unit"] == m["unit"] and isinstance(entry["value"], (int, float)),
                       f"{wl['name']} {m['name']}: {entry}")
                if group == "end_to_end":
                    expect(entry["value"] > 0, f"{wl['name']} {m['name']} is not positive")
            if trace:
                layers[wl["name"]] = {k: v["value"] for k, v in result["metrics"].items()}
    signal = layers["signal-3d"]
    expect(signal["kernels.calls"] == 0 and signal["compression.matvec_calls"] == 0,
           "signal-3d calls kernels or matvec")
    expect(layers["assemble-2d"]["kernels.calls"] > 0, "assemble-2d made no kernel calls")
    expect(layers["solve-2d"]["solvers.cg_iters"] > 0, "solve-2d ran no CG iterations")
    print("ok: result lines of every workload, tracing off and on")


def check_tracer():
    """Spans nest, self times add up, absent targets are reported, and
    uninstall restores every original."""
    wl = WORKLOADS["assemble-2d"]("tiny")
    wl.write_inputs(WORK / "assemble", 1)
    ctx = wl.prepare(WORK / "assemble", 1)
    original = sp.compression.compress_assemble
    missing = Target("missing", "samplets.compression", "no_such_function")
    tracer = Tracer(TARGETS + [missing])
    tracer.install()
    try:
        expect(sp.compression.compress_assemble is not original, "assembly not wrapped")
        phase = run_passes(wl, ctx, 0.0, 1, tracer)
    finally:
        tracer.uninstall()
    expect(sp.compression.compress_assemble is original, "uninstall left a wrapper")
    expect(sp.cli.compress_assemble is original, "uninstall left a wrapper in cli")
    expect(tracer.absent == ["samplets.compression.no_such_function"],
           f"absent targets {tracer.absent}")
    expect(phase.failed == 0 and len(phase.layers) == 1, "traced pass failed")
    m = phase.layers[0]
    expect(m["compression.assemble_s"] > 0 and m["kernels.entries"] > 0, "no assembly spans")

    start, end = np.array(tracer._start), np.array(tracer._end)
    parent = np.array(tracer._parent)
    nested = parent >= 0
    expect(np.all(start[nested] >= start[parent[nested]])
           and np.all(end[nested] <= end[parent[nested]]), "a child span leaves its parent")
    dur = end - start
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])
    own = dur - child
    # every span's duration is its own time plus that of all its descendants
    below = own.copy()
    for i in range(len(dur) - 1, -1, -1):
        if parent[i] >= 0:
            below[parent[i]] += below[i]
    expect(np.allclose(below, dur, rtol=1e-9, atol=1e-12), "self times do not add up")
    assemble = tracer.labels.index("compression.assemble")
    expect(np.any(np.array(tracer._name) == assemble), "no compress_assemble span")
    print("ok: tracer spans, self times, absent target, uninstall")


@contextlib.contextmanager
def patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def fails(workload, fault_module, fault_name, fault):
    """True when a pass (or the oracle on it) fails under the fault."""
    with patched(fault_module, fault_name, fault(getattr(fault_module, fault_name))):
        ctx = workload.prepare(WORK / workload.name, 1)
        try:
            out = workload.run_pass(ctx, PassClock())
            workload.oracle(ctx, out)
        except CheckFailed:
            return True
    return False


def check_oracles():
    """Each oracle check catches a deliberately wrong library result."""
    asm, solve, signal = (WORKLOADS[k]("tiny") for k in ("assemble-2d", "solve-2d", "signal-3d"))
    for wl in (asm, solve, signal):
        wl.write_inputs(WORK / wl.name, 1)

    def scaled(factor):
        return lambda fn: lambda *a, **k: factor * np.asarray(fn(*a, **k))

    def corrupt_load(fn):
        def load(*a, **k):
            m = fn(*a, **k)
            block = next(iter(m.blocks.values()))
            block.flat[0] += 1.0
            return m
        return load

    def stop_early(fn):
        return lambda matvec, rhs, tol, max_iter, **k: fn(matvec, rhs, tol, 3, best_effort=True)

    cases = [
        ("matrix error vs dense oracle", asm, sp.compression, "kernel_matrix", scaled(1.01)),
        ("SMPB round trip", asm, sp.compression, "load_compressed", corrupt_load),
        ("CG residual", solve, sp.solvers, "conjugate_gradient", stop_early),
        ("fit residual vs dense kernel", solve, sp.transform, "inverse_transform",
         scaled(1.1)),
        ("transform round trip", signal, sp.transform, "inverse_transform",
         scaled(1 + 1e-9)),
    ]
    for label, wl, module, name, fault in cases:
        expect(fails(wl, module, name, fault), f"oracle missed a fault: {label}")
    for wl in (asm, solve, signal):
        expect(not fails(wl, sp.io, "read_points", lambda fn: fn), f"{wl.name} fails unfaulted")
    print("ok: every oracle check fails a faulted pass")


def check_bare_directory():
    """Without the library sources the benchmark exits non-zero, no result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    code, lines = bench("--workload", "solve-2d", "--seed", "1", "--seconds", "1", cwd=bare)
    expect(code != 0, "benchmark succeeded without sources")
    expect(not any(line.startswith("{") for line in lines), "printed a result")
    print("ok: exits non-zero without the samplets sources")


if __name__ == "__main__":
    check_tracer()
    check_oracles()
    check_bare_directory()
    check_results()
    print("selftest passed")
