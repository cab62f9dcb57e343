"""In-memory span recording and the arithmetic the benchmark reports from it.

A span is (name, start, end, parent).  Spans are appended to flat arrays while
the workload runs and turned into per-layer numbers only after it has ended,
so recording costs one closure call and two clock reads per span.
"""

from __future__ import annotations

import math
import re
import sys
import time
from array import array
from contextlib import contextmanager

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return METRIC_UNIT.fullmatch(unit) is not None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n)) if n else 0


def median(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Span store plus per-root counters; the root of a span is its pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.root = array("l")
        self.failed = array("b")
        self.counters: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # set while open/close update the arrays, so that a signal handler
        # (the speed probe) records no span of its own in between
        self.busy = False

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        self.busy = True
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else sid)
        self.failed.append(0)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(self.clock())
        self.busy = False
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.busy = True
        self.end[sid] = self.clock()
        self.failed[sid] = failed
        top = self._stack.pop()
        self.busy = False
        if top != sid:
            raise RuntimeError(f"span {sid} closed while span {top} is open")

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        except BaseException:
            self.close(sid, failed=True)
            raise
        self.close(sid)

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a counter of the pass of the innermost open span."""
        root = self.root[self._stack[-1]] if self._stack else -1
        bucket = self.counters.setdefault(root, {})
        bucket[key] = bucket.get(key, 0) + amount

    def wrap(self, name: str, fn, note=None):
        """fn recorded as a span; note(tracer, args, result) adds counters."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, failed=True)
                raise
            self.close(sid)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    # -- installing spans at the module attributes callers look up ----------

    def patch(self, target, attr: str, name: str, note=None) -> None:
        """Replace target.attr by its traced version in target and in every
        loaded module (of the same package) that bound the same object."""
        original = getattr(target, attr)
        traced = self.wrap(name, original, note)
        holders = [target]
        if not isinstance(target, type):
            package = target.__name__.split(".")[0]
            holders = [
                mod
                for key, mod in list(sys.modules.items())
                if mod is not None and (key == package or key.startswith(package + "."))
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, traced)

    def unpatch(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                kids.setdefault(parent, []).append(sid)
        return kids

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its children cover."""
        kids = self.children()
        out = []
        for sid in range(len(self)):
            lo, hi = self.start[sid], self.end[sid]
            inner = [(self.start[c], self.end[c]) for c in kids.get(sid, ())]
            out.append(hi - lo - covered(inner, lo, hi))
        return out

    def span_name(self, sid: int) -> str:
        return self.names[self.name[sid]]

    def write(self, path) -> None:
        """Spans as CSV: id, parent, root, name, start_s, end_s, failed."""
        with open(path, "w") as fh:
            fh.write("id,parent,root,name,start_s,end_s,failed\n")
            for sid in range(len(self)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.root[sid]},{self.span_name(sid)},"
                    f"{self.start[sid]:.9f},{self.end[sid]:.9f},{self.failed[sid]}\n"
                )
