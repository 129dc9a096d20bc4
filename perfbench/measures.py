"""Order statistics with the sample-size rule the benchmark reports by.

A tail percentile is reported only when at least ``TAIL`` samples lie
beyond it, so a p99 needs 1000 samples.  Percentiles use the
nearest-rank definition: the ``p``-th percentile of ``n`` sorted values
is the value at 1-based rank ``ceil(p / 100 * n)``.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate percentiles, highest first.
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` values."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(p: float, n: int) -> int:
    """How many of ``n`` samples lie strictly past the ``p``-th percentile."""
    return n - rank(p, n)


def supported_percentile(n: int) -> float | None:
    """The highest percentile of ``LADDER`` with ``TAIL`` samples beyond it."""
    for p in LADDER:
        if beyond(p, n) >= TAIL:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
