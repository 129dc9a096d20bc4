"""Maximal-set loops over arbitrary preferences.

The paper computes Pareto-optimal sets by rewriting to a correlated
``NOT EXISTS`` anti-join executed by the host database (section 3.2) and
notes that dedicated skyline algorithms "clearly hold much promise for
additional speed-ups" (section 3.3, citing [BKS01] and [TEO01]).  This
module holds the two row loops every in-memory evaluation shares, both
generic over :class:`~repro.model.preference.Preference`:

* :func:`nested_loop_maximal` — the paper's own *abstract selection
  method* (section 3.2): keep a tuple iff no other tuple is better.  It
  is the oracle every other path is tested against,
* :func:`block_nested_loops` — BNL with a self-cleaning window [BKS01]
  over a comparator addressed by global row index.  It is the closure
  core for trees without a flat rank shape (EXPLICIT members, mixed
  nesting, custom orders), both for the ``memory`` strategy and for every
  partition task of :mod:`repro.engine.parallel`.

Flat rank trees never reach the window loop: the ``memory`` front door
(:func:`repro.engine.bmo.memory_evaluator`) sends them to the columnar
kernel (:func:`repro.engine.columns.columnar_skyline`) — the
single-minimum scan for cascades, the numpy blocked kernel for large
Paretos and the sort-filter tuple kernel for small ones.
:func:`maximal_indices` evaluates one candidate set by engine algorithm
name.  Every path returns the *indices* of maximal rows in their original
order, so ties and duplicates are preserved exactly the way the NOT
EXISTS rewrite preserves them.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.deadline import CHECK_EVERY, active_deadline
from repro.engine.columns import RankColumns
from repro.engine.compiled import best_better
from repro.model.preference import Preference

Vector = tuple


def nested_loop_maximal(
    preference: Preference,
    vectors: Sequence[Vector],
    ranks: RankColumns | None = None,
) -> list[int]:
    """The paper's abstract selection method (section 3.2), verbatim:

    (1) start with an empty Max set; (2) select a tuple t1; (3) insert t1
    into Max if there is no tuple t2 better than t1; (4) repeat for all
    tuples.  Quadratic, but the exact semantics every other algorithm must
    match — it deliberately stays on the per-pair comparator (``ranks``
    only saves recomputing them) so it remains an independent oracle for
    the columnar kernels.
    """
    better = best_better(preference, vectors, ranks=ranks)
    deadline = active_deadline()
    result = []
    count = len(vectors)
    for i in range(count):
        if deadline is not None:
            deadline.check()
        dominated = any(better(j, i) for j in range(count) if j != i)
        if not dominated:
            result.append(i)
    return result


def block_nested_loops(
    better: Callable[[int, int], bool], indices: Sequence[int]
) -> list[int]:
    """Block-Nested-Loops [BKS01] with an unbounded in-memory window.

    Each incoming row is compared against the window: a dominated row is
    dropped, and window members dominated by the newcomer are evicted.
    With the window fully in memory there is a single pass.  ``better``
    is indexed by global row position, so partitions and GROUPING groups
    share one compiled comparator; winners come back unsorted.
    """
    deadline = active_deadline()
    window: list[int] = []
    for position, i in enumerate(indices):
        if deadline is not None and not position % CHECK_EVERY:
            deadline.check()
        dominated = False
        survivors: list[int] = []
        for j in window:
            if better(j, i):
                dominated = True
                break
            if not better(i, j):
                survivors.append(j)
            # else: window member j is dominated by the newcomer — evicted.
        if not dominated:
            survivors.append(i)
            window = survivors
        # when dominated, the window is unchanged
    return window


def maximal_indices(
    preference: Preference,
    vectors: Sequence[Vector] | None,
    algorithm: str = "memory",
    ranks: RankColumns | None = None,
) -> list[int]:
    """Compute the maximal (BMO) row indices with an engine algorithm.

    ``memory`` runs the in-memory front door, ``parallel`` the
    partitioned executor of :mod:`repro.engine.parallel` on the
    process-wide shared worker pool (hold a
    :class:`~repro.engine.parallel.ParallelExecutor` to control the
    worker degree per connection), and ``nested_loop`` the oracle.
    ``ranks`` passes precomputed rank columns (the SQL rank pushdown path
    adopts them from the host database).
    """
    from repro.engine.bmo import bmo_filter

    return bmo_filter(preference, vectors, algorithm=algorithm, ranks=ranks)
