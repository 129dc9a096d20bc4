"""In-memory spans and the self-time split computed from them.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span in the same request tree (-1 for the root).  Each worker
thread keeps its own stack and its own list of finished trees, so
recording takes no lock; a tree starts at a *root* span (the server's
``ConnectionPool.connection``) and spans opened outside any root are not
recorded.  An *opaque* span records its own time but none of its
children: ``pool.checkout`` includes its health ping, ``deadline.arm``
the timer it starts.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Iterable, Sequence

ROOT = "pool.connection"


class _Thread(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.tree: list[list] = []
        self.opaque = 0
        self.trees: list[list[list]] | None = None
        self.counters: Counter | None = None


class Recorder:
    """Collects span trees and counters from every thread that records."""

    def __init__(self) -> None:
        self._local = _Thread()
        self._lock = threading.Lock()
        #: guarded by _lock
        self._trees: list[list[list[list]]] = []
        #: guarded by _lock
        self._counters: list[Counter] = []

    def _bind(self) -> _Thread:
        local = self._local
        if local.trees is None:
            local.trees, local.counters = [], Counter()
            with self._lock:
                self._trees.append(local.trees)
                self._counters.append(local.counters)
        return local

    def active(self) -> bool:
        """True inside a request tree and outside any opaque span."""
        local = self._local
        return bool(local.stack) and not local.opaque

    def span(self, name: str, opaque: bool = False) -> "_Span":
        return _Span(self, name, opaque)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter, only for work done inside a recorded tree."""
        if self.active():
            self._bind().counters[name] += amount

    def counter(self, name: str) -> int:
        """This thread's current value of a counter."""
        return self._bind().counters[name]

    def _open(self, name: str, opaque: bool) -> int | None:
        local = self._bind()
        if local.opaque or (not local.stack and name != ROOT):
            return None
        index = len(local.tree)
        parent = local.stack[-1] if local.stack else -1
        local.tree.append([name, time.perf_counter(), 0.0, parent])
        local.stack.append(index)
        if opaque:
            local.opaque += 1
        return index

    def _close(self, index: int, opaque: bool) -> None:
        local = self._local
        local.tree[index][2] = time.perf_counter()
        local.stack.pop()
        if opaque:
            local.opaque -= 1
        if not local.stack:
            local.trees.append(local.tree)
            local.tree = []

    def reset(self) -> None:
        """Drop everything recorded so far (call while no request runs)."""
        with self._lock:
            for trees in self._trees:
                trees.clear()
            for counters in self._counters:
                counters.clear()

    def snapshot(self) -> dict:
        """Every finished tree and the summed counters."""
        with self._lock:
            trees = [tree for per_thread in self._trees for tree in per_thread]
            counters: Counter = Counter()
            for per_thread in self._counters:
                counters.update(per_thread)
        return {"trees": trees, "counters": dict(counters)}


class _Span:
    __slots__ = ("_recorder", "_name", "_opaque", "_index")

    def __init__(self, recorder: Recorder, name: str, opaque: bool):
        self._recorder = recorder
        self._name = name
        self._opaque = opaque
        self._index: int | None = None

    def __enter__(self) -> "_Span":
        self._index = self._recorder._open(self._name, self._opaque)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._index is not None:
            self._recorder._close(self._index, self._opaque)


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total, reach = 0.0, start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(tree: Sequence[Sequence]) -> Counter:
    """Self time per span name: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in tree:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: Counter = Counter()
    for index, (name, start, end, _parent) in enumerate(tree):
        result[name] += (end - start) - covered(children.get(index, ()), start, end)
    return result


def split(trees: Sequence[Sequence[Sequence]]) -> tuple[Counter, Counter]:
    """Summed self time and span count per name over many trees."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for tree in trees:
        seconds.update(self_times(tree))
        calls.update(span[0] for span in tree)
    return seconds, calls
