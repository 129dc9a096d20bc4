"""Columnar rank-vector execution core.

Every rank-based preference tree (all built-ins except EXPLICIT) induces
one numeric *rank column* per base preference: smaller is better, equal
ranks are substitutable.  The paper's own speed lever (section 3.2) is to
materialise exactly these columns — ``Makelevel``, ``Diesellevel`` — and
let the database compare them; Chomicki's winnow-evaluation work makes the
same observation for the relational algebra.  This module is the
in-memory half of that idea:

* :class:`RankColumns` holds one contiguous ``array('d')`` per base
  preference, computed **once per query** and shared by every consumer —
  the compiled dominance comparator, the serial skyline kernels and the
  partitioned parallel executor.  The seed core re-derived
  these ranks three times per query (``dominance_key`` per row,
  ``compile_better`` per group and once more per parallel executor).
* :func:`compute_rank_columns` fills the columns from operand vectors
  (one tight Python loop per leaf);
  :func:`rank_columns_from_values` adopts rank values the **host
  database** already computed — the SQL rank pushdown path, where the
  driver appends the rewrite's rank expressions to the scan SELECT and
  Python never evaluates an operand per row.
* :func:`rank_row_skyline` is the shared flat-tree skyline kernel:
  dominance over rank tuples with duplicate-bucket collapsing and
  domination short-circuits in one sort-filter pass.  The ``memory``
  strategy and the parallel partition tasks all funnel through it.

Tree shapes: Pareto and prioritisation are associative, and over weak
orders a Pareto of Paretos equals the flat Pareto of all constituents
(likewise for cascades), so :func:`rank_shape` flattens same-constructor
nesting while building the shape.  Only *mixed* nesting (a Pareto inside
a cascade or vice versa) keeps structure; those trees still get shared
rank columns but compare through compiled closures
(:func:`repro.engine.compiled.compile_better`).

NaN ranks cannot occur with built-in preference types (unparseable
operand text ranks as :data:`~repro.model.preference.NULL_RANK`), but
custom ``rank()`` implementations may produce them; NaN-bearing rank rows
make the tuple order partial, so the kernel routes them through slower
paths that replicate the compiled-closure semantics exactly (see
:func:`rank_row_skyline`).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

try:  # numpy accelerates the Pareto kernel; the pure-Python loops remain
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.deadline import CHECK_EVERY, active_deadline
from repro.model.categorical import OTHERS, LayeredPreference
from repro.model.composite import ParetoPreference, PrioritizationPreference
from repro.model.numeric import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.model.preference import Preference, WeakOrderBase


class RankShape:
    """The data-independent skeleton of a rank-based preference tree.

    ``tree`` is a nested tuple of ``("leaf", column_index)`` and
    ``("pareto" | "cascade", (children, ...))`` nodes; ``leaves`` holds
    the base preferences in tree order and ``slices`` their
    ``(offset, arity)`` windows into the flat operand vector.

    ``mode`` classifies the comparison structure after flattening:
    ``"pareto"`` / ``"cascade"`` for flat trees (dominance reduces to
    componentwise ``<=`` respectively lexicographic ``<`` on rank
    tuples — a single leaf counts as a one-column cascade), ``None`` for
    genuinely mixed nesting (compiled closures over the shared columns).
    """

    __slots__ = ("leaves", "slices", "tree", "mode")

    def __init__(
        self,
        leaves: Sequence[Preference],
        slices: Sequence[tuple[int, int]],
        tree: tuple,
    ):
        self.leaves = tuple(leaves)
        self.slices = tuple(slices)
        self.tree = tree
        if tree[0] == "leaf":
            self.mode: str | None = "cascade"
        elif all(child[0] == "leaf" for child in tree[1]):
            self.mode = tree[0]
        else:
            self.mode = None


def rank_shape(preference: Preference) -> RankShape | None:
    """The rank-column shape of a preference tree, or None.

    None means the tree contains an EXPLICIT base (a genuine partial
    order without a rank) or an unknown composite — callers fall back to
    the generic per-pair path.  Same-constructor nesting flattens
    (associativity; for weak orders a Pareto of Paretos is the flat
    Pareto of the union, and cascades compose lexicographically), which
    turns trees like ``(P1 AND P2) AND P3`` into flat kernels the seed
    core evaluated through nested closures.
    """
    leaves: list[Preference] = []
    slices: list[tuple[int, int]] = []

    # prefcheck: disable=deadline-poll -- walks the preference tree (query width), never the data
    def build(node: Preference, offset: int) -> tuple[tuple, int] | None:
        kids = node.children()
        if not kids:
            if isinstance(node, (LayeredPreference, WeakOrderBase)):
                index = len(leaves)
                leaves.append(node)
                slices.append((offset, node.arity))
                return ("leaf", index), offset + node.arity
            return None  # EXPLICIT or a custom partial order
        if isinstance(node, ParetoPreference):
            kind = "pareto"
        elif isinstance(node, PrioritizationPreference):
            kind = "cascade"
        else:
            return None  # unknown composite
        children: list[tuple] = []
        for child in kids:
            built = build(child, offset)
            if built is None:
                return None
            child_node, offset = built
            if child_node[0] == kind:
                children.extend(child_node[1])
            else:
                children.append(child_node)
        return (kind, tuple(children)), offset

    built = build(preference, 0)
    if built is None:
        return None
    tree, _offset = built
    return RankShape(leaves, slices, tree)


class RankColumns:
    """One contiguous rank column per base preference, computed once.

    ``columns[k][i]`` is the rank of row ``i`` under leaf ``k`` (smaller
    is better); :attr:`rows` materialises the per-row rank tuples lazily
    (C-level ``zip``), which is what the flat kernels and the SFS sort
    key consume.
    """

    __slots__ = ("shape", "columns", "_rows", "_matrix", "_has_nan")

    def __init__(self, shape: RankShape, columns: Sequence[array]):
        self.shape = shape
        self.columns = list(columns)
        self._rows: list[tuple[float, ...]] | None = None
        self._matrix = None
        self._has_nan: bool | None = None

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def width(self) -> int:
        """Number of rank columns (= base preferences in the tree)."""
        return len(self.columns)

    @property
    def mode(self) -> str | None:
        """The flat comparison mode (see :class:`RankShape`)."""
        return self.shape.mode

    @property
    def rows(self) -> list[tuple[float, ...]]:
        """Per-row rank tuples in leaf order (built lazily, then cached)."""
        if self._rows is None:
            if len(self.columns) == 1:
                self._rows = [(value,) for value in self.columns[0]]
            else:
                self._rows = list(zip(*self.columns))
        return self._rows

    def matrix(self):
        """The columns as one C-contiguous ``(n, width)`` float64 matrix.

        Built zero-copy from the ``array('d')`` buffers (one stacking
        copy), cached; None when numpy is unavailable.
        """
        if _np is None:
            return None
        if self._matrix is None:
            self._matrix = _np.column_stack(
                [_np.frombuffer(column, dtype=_np.float64) for column in self.columns]
            ) if self.columns and len(self) else _np.empty((0, self.width))
        return self._matrix

    @property
    def has_nan(self) -> bool:
        """Whether any rank cell is NaN (custom rank implementations
        only); checked once per query so the kernels can skip their
        per-row NaN tests on the common all-finite inputs."""
        if self._has_nan is None:
            if _np is not None:
                matrix = self.matrix()
                self._has_nan = bool(_np.isnan(matrix).any())
            else:
                self._has_nan = any(
                    value != value
                    for column in self.columns
                    for value in column
                )
        return self._has_nan

    def select(self, indices: Sequence[int]) -> "RankColumns":
        """The rank columns restricted to a row subset (e.g. one GROUPING
        partition), positions renumbered to ``0..len(indices)-1``."""
        return RankColumns(
            self.shape,
            [
                array("d", (column[i] for i in indices))
                for column in self.columns
            ],
        )


#: Built-in numeric leaves whose rank is plain arithmetic — these
#: vectorize when every operand value converts cleanly to float.
#: Exact-type matches only: a subclass may override ``rank()``.
_VECTOR_LEAVES = (
    LowestPreference,
    HighestPreference,
    ScorePreference,
    AroundPreference,
    BetweenPreference,
)


def _vectorized_leaf_ranks(leaf: Preference, values: list) -> array | None:
    """One rank column computed by numpy arithmetic, or None.

    Only sound when every value converts to a non-NaN float — exactly
    the inputs for which ``coerce_number`` is ``float()`` — so NULLs,
    unparseable text and NaN operands (which rank to
    :data:`~repro.model.preference.NULL_RANK`) fall back to the scalar
    ``rank()`` loop and semantics stay byte-identical.
    """
    if _np is None or type(leaf) not in _VECTOR_LEAVES:
        return None
    try:
        raw = _np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        return None
    # Only genuinely numeric dtypes may vectorize: an object/bytes/str
    # dtype means some value needs ``coerce_number``'s non-numeric
    # handling (NULL_RANK), which numpy's own coercion would not apply —
    # e.g. a BLOB cell parses as a number under ``asarray`` but ranks as
    # NULL_RANK under the scalar model.
    if raw.ndim != 1 or raw.dtype.kind not in "fiub":
        return None
    numbers = (
        raw
        if raw.dtype == _np.float64
        else raw.astype(_np.float64)
    )
    if _np.isnan(numbers).any():
        return None
    kind = type(leaf)
    if kind is LowestPreference:
        ranks = numbers
    elif kind is AroundPreference:
        ranks = _np.abs(numbers - leaf.target)
    elif kind is BetweenPreference:
        ranks = _np.where(
            numbers < leaf.low,
            leaf.low - numbers,
            _np.where(numbers > leaf.high, numbers - leaf.high, 0.0),
        )
    else:  # HIGHEST / SCORE
        ranks = -numbers
    column = array("d")
    column.frombytes(
        _np.ascontiguousarray(ranks, dtype=_np.float64).tobytes()
    )
    return column


# prefcheck: disable=deadline-poll -- the loop is per leaf (query width); the row-scale work is one linear array build per leaf with no comparisons, and the kernels that consume the columns poll
def compute_rank_columns(
    preference: Preference, vectors: Sequence[tuple]
) -> RankColumns | None:
    """Rank columns from operand vectors, or None for non-rank trees."""
    shape = rank_shape(preference)
    if shape is None:
        return None
    # One C-level transpose serves every single-operand leaf, instead of
    # one per-row extraction pass per leaf.
    operand_columns = list(zip(*vectors)) if vectors else []
    columns: list[array] = []
    for leaf, (offset, arity) in zip(shape.leaves, shape.slices):
        if isinstance(leaf, LayeredPreference):
            if arity == 1 and operand_columns:
                # Single-operand layered leaf (POS/NEG/`=`/ELSE chains on
                # one attribute): replace the per-row bucket scan with
                # one value -> level dictionary.  First matching bucket
                # wins, NULL never matches — same as ``level()``.
                mapping: dict = {}
                for index, bucket in enumerate(leaf.buckets):
                    if bucket is OTHERS:
                        continue
                    _operand_index, members = bucket
                    for value in members:
                        if value is not None and value not in mapping:
                            mapping[value] = float(index)
                others = float(leaf.others_index)
                lookup = mapping.get
                columns.append(
                    array(
                        "d",
                        (
                            others if value is None else lookup(value, others)
                            for value in operand_columns[offset]
                        ),
                    )
                )
                continue
            level = leaf.level
            end = offset + arity
            columns.append(array("d", (level(v[offset:end]) for v in vectors)))
            continue
        values = operand_columns[offset] if operand_columns else ()
        column = _vectorized_leaf_ranks(leaf, values)
        if column is None:
            rank = leaf.rank  # type: ignore[union-attr]
            column = array("d", map(rank, values))
        columns.append(column)
    return RankColumns(shape, columns)


# prefcheck: disable=deadline-poll -- per-leaf loop (query width) adopting host-computed columns; one linear array copy each
def rank_columns_from_values(
    preference: Preference, values: Sequence
) -> RankColumns | None:
    """Adopt rank values the host database computed (SQL rank pushdown).

    ``values`` is one iterable of rank cells per base preference, in tree
    order — the columns the driver's scan SELECT appended.  Returns None
    when the tree is not rank-based, the column count does not match, or
    any cell is not numeric (e.g. sqlite applied text affinity to an
    operand the Python model would have coerced differently) — callers
    then recompute the ranks in Python, so winner sets never depend on
    host-database coercion quirks.
    """
    shape = rank_shape(preference)
    if shape is None or len(values) != len(shape.leaves):
        return None
    columns: list[array] = []
    for cells in values:
        try:
            columns.append(array("d", cells))
        except TypeError:
            return None
    return RankColumns(shape, columns)


# ----------------------------------------------------------------------
# The shared flat-tree skyline kernel


def _has_nan(row: tuple) -> bool:
    return any(value != value for value in row)


def _sfs_keys(keys: Iterable[tuple]) -> list[tuple]:
    """Sort-filter over distinct rank tuples.

    A dominator sorts lexicographically before everything it dominates
    (componentwise ``<=`` plus distinctness), so after sorting a single
    forward pass against the skyline-so-far suffices.  The dominance
    test is inlined (no function call) — this is the hottest loop of the
    pure-Python kernel.
    """
    deadline = active_deadline()
    skyline: list[tuple] = []
    for position, row in enumerate(sorted(keys)):
        if deadline is not None and not position % CHECK_EVERY:
            deadline.check()
        for kept in skyline:
            for x, y in zip(kept, row):
                if x > y:
                    break
            else:  # kept <= row componentwise: row is dominated
                break
        else:
            skyline.append(row)
    return skyline


def rank_row_skyline(
    rows,
    mode: str,
    indices: Sequence[int],
    nan_free: bool = False,
) -> list[int]:
    """BMO winners among ``indices`` over precomputed rank rows, unsorted.

    ``rows`` maps row index → rank tuple (a list when every row is a
    candidate, a dict when a BUT ONLY threshold discarded some — the
    partitioned executor passes global-index dicts).

    Duplicate rank rows are substitutable — they win or lose together —
    so they collapse into one bucket each before the kernel runs; under a
    total order (``mode == "cascade"``) only the minimal bucket wins, a
    single O(n) scan.

    NaN handling replicates the compiled-closure semantics exactly:
    under Pareto a NaN-bearing row can neither dominate nor be dominated
    (any comparison against NaN is false) and is a winner outright; under
    cascade the lexicographic ``<`` is still meaningful on the NaN-free
    prefix, so the buckets fall back to a BNL pass over the keys instead
    of the single-minimum shortcut.  ``nan_free=True`` (the caller
    checked the whole columns once) skips the per-row NaN test.
    """
    # The linear bucketing passes below stay poll-free on purpose: they
    # are the hottest per-row loops in serving queries and bounded by one
    # dict pass; the deadline work lives in the kernels they feed and in
    # the quadratic NaN-cascade path.
    deadline = active_deadline()
    buckets: dict[tuple, list[int]] = {}
    winners: list[int] = []
    nan_rows = False
    if nan_free:
        for i in indices:
            buckets.setdefault(rows[i], []).append(i)
    else:
        for i in indices:
            row = rows[i]
            if _has_nan(row):
                nan_rows = True
                if mode != "cascade":
                    winners.append(i)
                    continue
            buckets.setdefault(row, []).append(i)
    if not buckets:
        return winners
    if mode == "cascade":
        if nan_rows:
            # NaN makes ``<`` non-total: BNL over the bucket keys with the
            # same lexicographic comparator the compiled closures use.
            # Quadratic in distinct keys, so it polls like the kernels.
            keys = list(buckets)
            for position, key in enumerate(keys):
                if deadline is not None and not position % CHECK_EVERY:
                    deadline.check()
                if any(other < key for other in keys if other is not key):
                    continue
                winners.extend(buckets[key])
            return winners
        winners.extend(buckets[min(buckets)])
        return winners
    for row in _sfs_keys(buckets):
        winners.extend(buckets[row])
    return winners


# ----------------------------------------------------------------------
# Vectorized Pareto kernel (numpy): dedup + blocked sort-filter


#: Below this partition size the pure-Python kernel beats numpy's
#: per-call overhead (tuned on the E11 workloads).
_NUMPY_MIN_ROWS = 150

#: Block schedule for the vectorized sort-filter: small blocks while the
#: skyline forms (sequential work dominates), growing once most incoming
#: rows die in the vectorized skyline test — the tiling discipline of
#: accelerator kernels, applied to boolean broadcasts.
_NUMPY_FIRST_BLOCK = 128
_NUMPY_MAX_BLOCK = 4096


def _pareto_winner_offsets(matrix, positions) -> list[int]:
    """Offsets (into ``positions``) of Pareto-maximal rows, vectorized.

    Collapses duplicate rows (``np.unique``, which also sorts
    lexicographically — a dominator always sorts before everything it
    dominates), then walks the distinct rows in blocks: each block is
    tested against the skyline so far in one boolean broadcast (the hot
    O(m·s·d) comparisons run in C), and only the handful of survivors —
    candidate *new* skyline rows — go through a sequential pass.  A
    survivor's within-block dominator is necessarily itself maximal
    (else transitivity hands the survivor to the skyline filter), so
    comparing survivors against this block's new skyline rows suffices.

    NaN cells need no special casing: every comparison against NaN is
    false, so NaN-bearing rows neither dominate nor get dominated —
    exactly the closure semantics.
    """
    rows = matrix[positions]
    if not len(rows):
        return []
    order = _np.lexsort(rows.T[::-1])
    ordered = rows[order]
    total = len(ordered)
    # Collapse duplicate rows from the already-sorted matrix (adjacent
    # after lexsort; NaN != NaN keeps NaN rows distinct, which is safe —
    # they can neither dominate nor be dominated).  Duplicates are
    # substitutable, so one representative decides for the whole bucket.
    first = _np.empty(total, dtype=bool)
    first[0] = True
    _np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    unique = ordered[first]
    bucket_of = _np.cumsum(first) - 1
    count = len(unique)

    deadline = active_deadline()
    maximal = _np.zeros(count, dtype=bool)
    skyline = unique[:0]
    start = 0
    block_size = _NUMPY_FIRST_BLOCK
    while start < count:
        if deadline is not None:
            deadline.check()
        block = unique[start : start + block_size]
        if len(skyline):
            alive = _np.ones(len(block), dtype=bool)
            # Bounded chunks keep the broadcast temporaries small even
            # for anti-correlated data with huge skylines.  Rows are
            # distinct, so componentwise <= is already strict dominance.
            # One deadline poll per chunk bounds cancellation latency to
            # a single (block × chunk) broadcast.
            for chunk_start in range(0, len(skyline), _NUMPY_MAX_BLOCK):
                if deadline is not None:
                    deadline.check()
                chunk = skyline[chunk_start : chunk_start + _NUMPY_MAX_BLOCK]
                candidates = block[alive]
                dominated = (
                    (chunk[None, :, :] <= candidates[:, None, :]).all(-1)
                ).any(axis=1)
                alive[_np.flatnonzero(alive)[dominated]] = False
                if not alive.any():
                    break
            alive_offsets = _np.flatnonzero(alive)
        else:
            alive_offsets = _np.arange(len(block))
        if len(alive_offsets):
            # Sequential pass over the survivors (sorted order): compare
            # only against the new skyline rows of this block — a
            # survivor's within-block dominator is necessarily itself
            # maximal (else transitivity hands the survivor to the
            # skyline filter above).
            new_rows: list[tuple] = []
            new_offsets: list[int] = []
            for survivor, offset in enumerate(alive_offsets.tolist()):
                if deadline is not None and not survivor % 256:
                    deadline.check()
                row = tuple(block[offset])
                for kept in new_rows:
                    # ``not (x <= y)`` rather than ``x > y``: NaN rows
                    # pass through this pass undeduplicated, and a NaN
                    # pair must read as "does not dominate".
                    for x, y in zip(kept, row):
                        if not x <= y:
                            break
                    else:  # kept <= row componentwise: dominated
                        break
                else:
                    new_rows.append(row)
                    new_offsets.append(offset)
            maximal[start + _np.asarray(new_offsets, dtype=_np.intp)] = True
            skyline = _np.concatenate([skyline, block[new_offsets]])
        start += len(block)
        block_size = min(block_size * 2, _NUMPY_MAX_BLOCK)
    return order[_np.flatnonzero(maximal[bucket_of])].tolist()


def columnar_skyline(
    ranks: RankColumns,
    indices: Sequence[int],
    position=None,
) -> list[int]:
    """BMO winners among ``indices`` over shared rank columns, unsorted.

    The front door of the columnar core: flat cascades take the
    single-minimum scan, flat Paretos run the vectorized blocked kernel
    when numpy is available and the partition is big enough, and
    everything else (small partitions, no numpy) goes through the
    pure-Python sort-filter tuple kernel of :func:`rank_row_skyline`.
    ``position`` maps a global row index to its
    row inside ``ranks`` when they differ (BUT ONLY survivors, partition
    remaps); None means indices address the columns directly.
    """
    mode = ranks.mode
    if (
        mode == "pareto"
        and _np is not None
        and len(indices) >= _NUMPY_MIN_ROWS
        and len(ranks)
    ):
        matrix = ranks.matrix()
        if position is None:
            positions = _np.fromiter(
                indices, dtype=_np.intp, count=len(indices)
            )
        else:
            positions = _np.fromiter(
                (position[i] for i in indices),
                dtype=_np.intp,
                count=len(indices),
            )
        if not isinstance(indices, list):
            indices = list(indices)
        return [
            indices[offset]
            for offset in _pareto_winner_offsets(matrix, positions)
        ]
    rows = ranks.rows
    if position is not None:
        rows = {i: rows[position[i]] for i in indices}
    return rank_row_skyline(rows, mode, indices, nan_free=not ranks.has_nan)
