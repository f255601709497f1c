"""Span recording for the traced benchmark pass.

The program under test carries no instrumentation of its own here: the
benchmark records spans around the calls it makes into each layer's
public functions.  Spans are kept in memory (parallel lists, one entry
per span) and written out once, when the run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans (name, start, end, parent) plus named counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def abandon(self, index: int) -> None:
        """Drop the most recent span, which must still be open and childless."""
        if index != len(self.names) - 1 or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} is not the newest open span")
        self._stack.pop()
        for column in (self.names, self.starts, self.ends, self.parents):
            column.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # ------------------------------------------------------------------ #
    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Duration minus the union of the child intervals, per span."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(index)
        out = self.durations()
        for parent, kids in children.items():
            lo, hi = self.starts[parent], self.ends[parent]
            covered = 0.0
            reach = lo
            for kid in sorted(kids, key=self.starts.__getitem__):
                start = max(self.starts[kid], reach)
                end = min(self.ends[kid], hi)
                if end > start:
                    covered += end - start
                    reach = end
            out[parent] -= covered
        return out

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total time and total self time (s)."""
        out: Dict[str, Dict[str, float]] = {}
        for name, duration, own in zip(self.names, self.durations(), self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += own
        return out

    def write(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent, workload."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for index, name in enumerate(self.names):
                record = {
                    "id": index,
                    "name": name,
                    "start": self.starts[index] - origin,
                    "end": self.ends[index] - origin,
                    "parent": self.parents[index] if self.parents[index] >= 0 else None,
                    "workload": self.workload,
                }
                fh.write(json.dumps(record) + "\n")


class CallProxy:
    """A traced stand-in for a plain callable object held as an attribute.

    Calls go through ``traced``; attribute reads fall through to the
    wrapped object, so code that reads e.g. ``smearing.num_rbf`` still works.
    """

    def __init__(self, target, traced: Callable):
        self._target = target
        self._traced = traced

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._target, name)


def trace_method(recorder: SpanRecorder, obj, attr: str, name: str, after=None) -> None:
    """Shadow ``obj.attr`` (a method of its class) with a traced instance attribute.

    ``after(result)`` runs inside the span with the call's result, for
    counts taken at the same boundary.  Re-tracing an attribute replaces
    the earlier wrapper, so a phase can rename the spans of a shared object.
    """
    method = getattr(type(obj), attr).__get__(obj)
    if after is None:
        traced = recorder.wrap(method, name)
    else:

        def traced(*args, **kwargs):
            with recorder.span(name):
                result = method(*args, **kwargs)
                after(result)
                return result

    object.__setattr__(obj, attr, traced)


@contextlib.contextmanager
def traced_class_method(recorder: SpanRecorder, cls, attr: str, name: str):
    """Trace ``cls.attr`` for every instance while the block runs."""
    original = cls.__dict__[attr]
    setattr(cls, attr, recorder.wrap(original, name))
    try:
        yield
    finally:
        setattr(cls, attr, original)
