"""Span and counter tracer that wraps public functions of the samplets package.

The tracer works from outside the library: it replaces module attributes
(and class attributes, for methods) with timing wrappers and puts the
originals back on `uninstall`.  Every samplets module that imported a target
by name gets the wrapper too, so calls made through `from .x import f`
bindings are seen.

Each wrapped call records one span: target id, start, end, parent span and
pass id.  Spans live in flat arrays and are written out once, at the end.
A target that no longer exists is listed in `absent` instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np


class Target(NamedTuple):
    """One function to wrap, `module.qualname`, plus an optional counter hook.

    `hook(tracer, result, args, kwargs)` runs after the call returns, inside
    the parent's span, so it must stay cheap.
    """

    label: str
    module: str
    qualname: str
    hook: Callable | None = None


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.labels = [t.label for t in self.targets]
        self.absent = []
        self.active = False
        self.pass_id = -1
        self.counters = {}
        self.objects = {}
        self._restore = []
        self._stack = [-1]
        self._first = 0
        self._name = array("i")
        self._parent = array("q")
        self._pass = array("i")
        self._start = array("d")
        self._end = array("d")

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "samplets" or k.startswith("samplets."))
        ]
        for nid, target in enumerate(self.targets):
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{target.module}.{target.qualname}")
                continue
            wrapper = self._wrap(original, nid, target.hook)
            if isinstance(owner, type):
                self._swap(owner, attr, wrapper)
            else:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, name, wrapper)

    def _swap(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, nid, hook):
        stack = self._stack
        names, parents, passes = self._name, self._parent, self._pass
        starts, ends = self._start, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(self.pass_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.counters = {}
        self.objects = {}
        self._first = len(self._name)
        self.active = True

    def end_pass(self):
        """Stop recording; return per-target totals for the pass just run.

        The result maps each label to (calls, total seconds, self seconds),
        where self time is a span's duration minus that of its child spans.
        """
        self.active = False
        lo = self._first
        # slicing an array.array copies it, so the buffers below never pin
        # the recording arrays against later appends
        names = np.frombuffer(self._name[lo:], dtype=np.int32)
        parents = np.frombuffer(self._parent[lo:], dtype=np.int64) - lo
        dur = np.frombuffer(self._end[lo:]) - np.frombuffer(self._start[lo:])
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        k = len(self.targets)
        return {
            label: (int(c), float(d), float(s))
            for label, c, d, s in zip(
                self.labels,
                np.bincount(names, minlength=k),
                np.bincount(names, weights=dur, minlength=k),
                np.bincount(names, weights=own, minlength=k),
            )
        }

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this context record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def save(self, path, meta):
        """Write every recorded span plus `meta` as an .npz file."""
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.array(self._name, dtype=np.int32),
            parent=np.array(self._parent, dtype=np.int64),
            pass_id=np.array(self._pass, dtype=np.int32),
            start=np.array(self._start, dtype=float),
            end=np.array(self._end, dtype=float),
            absent=np.array(self.absent, dtype=str),
            meta=np.array(meta),
        )

