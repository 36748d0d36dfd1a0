"""Span tracer that measures a package from outside, by wrapping its public
functions in place.

A wrapped call records one span: name, start, end, parent span and the id
of the benchmark operation (training step or score job) it ran in. Spans
stay in memory, in flat arrays, until the run ends. Counted functions only
add to a counter, for calls too small and frequent to span. Uninstalling
puts every original attribute back.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

SETUP_UNIT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit = array("q")
        self.unit_id = SETUP_UNIT
        self.ops = 0
        self.unit_ops: dict[int, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.start[idx] = t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0)

    @contextmanager
    def operation(self, name: str, unit_id: int):
        """Root span of one benchmark operation; spans inside it carry unit_id."""
        previous, self.unit_id = self.unit_id, unit_id
        ops_before = self.ops
        try:
            with self.span(name):
                yield
        finally:
            self.unit_ops[unit_id] = self.unit_ops.get(unit_id, 0) + self.ops - ops_before
            self.unit_id = previous

    def _spanned(self, fn, name: str, on_call):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = self._open(name)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
        return traced

    def _counted(self, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.tape is not None:
                self.ops += 1
            return out
        return counting

    def _replace(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Span every call of owner.attr (a module or class attribute) as name.

        on_call, when given, receives the positional arguments first.
        """
        self._replace(owner, attr, lambda fn: self._spanned(fn, name, on_call))

    def count(self, owner, attr: str) -> None:
        """Count calls of owner.attr whose result is tracked on a tape."""
        self._replace(owner, attr, self._counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> dict[str, np.ndarray]:
        return {field: np.array(getattr(self, field), dtype=np.int64)
                for field in ("name", "start", "end", "parent", "unit")}

    def write_tsv(self, path) -> None:
        """One line per span: index, parent, unit, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\tunit\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.unit[i]}\t"
                        f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n")


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's, and overlapping children
    are counted once.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = [0] * len(start)
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0
    for i in np.lexsort((start, parent)).tolist():
        p = parents[i]
        if p < 0:
            continue
        s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
        if p != current:
            current, reach = p, s
        s = max(s, reach)
        if e > s:
            covered[p] += e - s
            reach = e
    return end - start - np.array(covered, dtype=np.int64)
