import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer reads a renamed function as 0, not as an error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = []
    for target in layers.TARGETS:
        try:
            functools.reduce(
                getattr,
                target.qualname.split("."),
                importlib.import_module(target.module),
            )
        except AttributeError:
            missing.append(f"{target.module}.{target.qualname}")
    assert layers.TARGETS and not missing
