"""Spans around the calls into each layer of ``wintrack``, for the traced run.

The tracer replaces a function at the module or class attribute the program
looks it up through, so ``wintrack.trackers.solve`` and
``wintrack.metrics.solve`` are timed apart and each caller module is
attributed on its own.  A span is (name, start, end, parent); spans live in
typed arrays in memory until the run writes them out.  A span's self time
is its duration minus the durations of its direct children (one thread, so
children never overlap).

Nothing in ``src/`` changes; uninstalling puts every original back.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _pairs(args, kwargs) -> int:
    rows, cols = args[0], args[1]
    return len(rows) * len(cols)


def _cells(args, kwargs) -> int:
    return int(np.size(args[0]))


# (owner, attribute, span name, counter).  The owner is "module" or
# "module:Class"; the counter, when given, adds work done per call.
TARGETS = (
    ("wintrack.trackers", "iou_distance_matrix", "geometry.iou@trackers", _pairs),
    ("wintrack.window", "iou_matrix", "geometry.iou@window", _pairs),
    ("wintrack.metrics", "iou_matrix", "geometry.iou@metrics", _pairs),
    ("wintrack.trackers", "solve", "assignment.solve@trackers", _cells),
    ("wintrack.window", "solve", "assignment.solve@window", _cells),
    ("wintrack.metrics", "solve", "assignment.solve@metrics", _cells),
    ("wintrack.kalman:MotionFilter", "predict", "kalman.predict", None),
    ("wintrack.kalman:MotionFilter", "update", "kalman.update", None),
    ("wintrack.trackers:_TrackerBase", "step", "trackers.step", None),
    ("wintrack.window:WindowedTracker", "finalize_window", "window.finalize", None),
    ("wintrack.motio", "write_results", "motio.write", None),
    ("wintrack.metrics", "match_clear", "metrics.clear", None),
    ("wintrack.metrics", "idf1", "metrics.identity", None),
    ("wintrack.metrics", "hota", "metrics.hota", None),
)

CALLERS = ("trackers", "window", "metrics")


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop recorded spans and counters; wrappers stay bound to the
        same (now empty) arrays."""
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self.work.clear()
        self._stack.clear()

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_index(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def end_span(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        idx = self._name_index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, work = self._stack, self.work

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if counter is not None:
                work[name] += counter(args, kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                starts[i] = t0
                ends[i] = t1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for spec, attr, name, counter in TARGETS:
            try:
                owner = _owner(spec)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{spec}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, name, counter))
            self._installed.append((owner, attr, original))
        for m in self.missing:
            print(f"trace: {m} not found, its layer reads 0", file=sys.stderr)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self.missing = []

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, calls)."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_ = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {self.names[i]: (float(incl[i]), float(self_[i]), int(calls[i]))
                for i in range(k) if calls[i]}

    def save(self, path) -> None:
        np.savez(path,
                 names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start),
                 end=np.array(self.end))


def layer_metrics(totals: dict, work: dict) -> dict[str, float]:
    """Per-layer figures of one traced round from span totals and counters."""

    def incl(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    out = {}
    for stem, unit in (("geometry.iou", "pairs"), ("assignment.solve", "cells")):
        for caller in CALLERS:
            name = f"{stem}@{caller}"
            out[f"{stem}_s.{caller}"] = incl(name)
            out[f"{stem}_calls.{caller}"] = calls(name)
            out[f"{stem}_{unit}.{caller}"] = work.get(name, 0)
        for suffix in ("s", "calls", unit):
            out[f"{stem}_{suffix}"] = sum(out[f"{stem}_{suffix}.{c}"] for c in CALLERS)
    out["kalman.predict_s"] = incl("kalman.predict")
    out["kalman.predict_calls"] = calls("kalman.predict")
    out["kalman.update_s"] = incl("kalman.update")
    out["kalman.update_calls"] = calls("kalman.update")
    out["trackers.step_s"] = incl("trackers.step")
    out["trackers.step_self_s"] = self_s("trackers.step")
    out["window.finalize_s"] = incl("window.finalize")
    out["window.finalize_self_s"] = self_s("window.finalize")
    out["motio.write_s"] = incl("motio.write")
    out["metrics.clear_s"] = incl("metrics.clear")
    out["metrics.identity_s"] = incl("metrics.identity")
    out["metrics.hota_s"] = incl("metrics.hota")
    out["trace.spans"] = sum(t[2] for t in totals.values())
    return out
