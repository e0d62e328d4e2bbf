"""Span recording and self-time arithmetic for the layer trace.

A span is one call across a layer boundary: a name, the span that caused it,
the thread it ran on, and its start and end in ``perf_counter_ns`` units.
Spans are kept in flat arrays in memory (a 20k-step fit records a few
hundred thousand) and reduced once the traced run has ended.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children on the span's own thread never overlap one
another, since a thread makes one call at a time, so their durations add.
Children on other threads (work a thread pool ran on the span's behalf) may
overlap, so for such a span all children are merged as intervals first.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """Records spans from any number of threads; one open-span stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.thread = array("Q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.inherited = NO_PARENT
        return local

    def current(self) -> int:
        """The innermost open span on this thread, or the one it inherited."""
        local = self._state()
        return local.stack[-1] if local.stack else local.inherited

    @contextmanager
    def inherit(self, parent: int):
        """Make ``parent`` the cause of spans this thread opens outside any other."""
        local = self._state()
        saved, local.inherited = local.inherited, parent
        try:
            yield
        finally:
            local.inherited = saved

    def open(self, name: str) -> int:
        local = self._state()
        parent = local.stack[-1] if local.stack else local.inherited
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.end.append(NO_PARENT)
            self.start.append(time.perf_counter_ns())
        local.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._local.stack.pop()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)


def covered_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _merged_children(parent, thread, start, end) -> dict[int, list]:
    """Child intervals of every span that has a child on another thread."""
    merged: dict[int, list] = {}
    for i in range(len(start)):
        p = parent[i]
        if p != NO_PARENT and thread[i] != thread[p]:
            merged[p] = []
    for i in range(len(start)):
        if parent[i] in merged:
            merged[parent[i]].append((start[i], end[i]))
    return merged


def self_times(parent, thread, start, end) -> list[int]:
    """Self time of every span, given the spans as parallel sequences."""
    n = len(start)
    merged = _merged_children(parent, thread, start, end)
    covered = [0] * n
    for i in range(n):
        p = parent[i]
        if p != NO_PARENT and p not in merged:
            covered[p] += end[i] - start[i]
    for p, intervals in merged.items():
        covered[p] = covered_length(intervals, start[p], end[p])
    return [end[i] - start[i] - covered[i] for i in range(n)]


def overlap_time(parent, thread, start, end) -> int:
    """Time by which children that ran in parallel overlapped one another.

    Self times over all threads add up to the root spans' durations plus this.
    """
    return sum(
        sum(b - a for a, b in intervals) - covered_length(intervals, start[p], end[p])
        for p, intervals in _merged_children(parent, thread, start, end).items()
    )


def handed_off_time(parent, thread, start, end) -> int:
    """Summed duration of spans run on another thread than the span that caused them."""
    return sum(
        end[i] - start[i]
        for i in range(len(start))
        if parent[i] != NO_PARENT and thread[i] != thread[parent[i]]
    )
