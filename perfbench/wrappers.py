"""Observe-only wrappers around the public entry point of each layer.

:func:`install` replaces each entry point at the attribute its caller
looks it up by (the driver imports ``parse_statement`` into its own
namespace, so ``repro.driver.dbapi.parse_statement`` is the one to wrap)
with a function that opens a span, calls the original with the same
arguments and returns its result or lets its exception through.  Host
SQL is timed by a ``sqlite3.Connection`` subclass that the pool opens
through the ``factory=`` argument its ``connect`` forwards to
``sqlite3.connect``; the same connections count sqlite VM instructions
with a progress handler.

Install before the pool opens its connections.  Only the benchmark's
server launcher calls this, and only for a traced run.
"""

from __future__ import annotations

import functools
import sqlite3
import sys
from contextlib import ExitStack, contextmanager

from spans import Recorder

#: sqlite calls the progress handler once per this many VM instructions.
VM_TICK = 1000


def _wrap(owner, attribute: str, recorder: Recorder, name: str, after=None) -> None:
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attribute, wrapper)


def host_connection_class(recorder: Recorder, registry: list):
    """A ``sqlite3.Connection`` whose statements and fetches are spans."""

    class TimedCursor(sqlite3.Cursor):
        def execute(self, sql, parameters=()):
            recorder.count("host.statements")
            with recorder.span("host"):
                return super().execute(sql, parameters)

        def fetchall(self):
            with recorder.span("host"):
                rows = super().fetchall()
            recorder.count("host.rows", len(rows))
            return rows

        def fetchone(self):
            with recorder.span("host"):
                row = super().fetchone()
            if row is not None:
                recorder.count("host.rows")
            return row

        def __next__(self):
            # Row-by-row iteration is counted, not timed: a span per row
            # would cost more than the step it measures.
            row = super().__next__()
            recorder.count("host.rows")
            return row

    class TimedConnection(sqlite3.Connection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.vm_ticks = 0
            self.set_progress_handler(self._tick, VM_TICK)
            registry.append(self)

        def _tick(self) -> int:
            self.vm_ticks += 1
            return 0

        def cursor(self, factory=TimedCursor):
            return super().cursor(factory)

        def execute(self, sql, parameters=()):
            return self.cursor().execute(sql, parameters)

    return TimedConnection


def _timed_context(original, recorder: Recorder, name: str):
    """Time a context manager's enter and exit, not its body."""

    @contextmanager
    def wrapper(*args, **kwargs):
        manager = original(*args, **kwargs)
        with recorder.span(name, opaque=True):
            manager.__enter__()
        try:
            yield
        except BaseException:
            with recorder.span(name, opaque=True):
                suppressed = manager.__exit__(*sys.exc_info())
            if not suppressed:
                raise
        else:
            with recorder.span(name, opaque=True):
                manager.__exit__(None, None, None)

    return functools.wraps(original)(wrapper)


def install(recorder: Recorder) -> list:
    """Wrap every layer; returns the registry of host connections."""
    import repro.driver.dbapi as dbapi
    import repro.engine.bmo as bmo
    import repro.engine.columns as columns
    import repro.plan.planner as planner
    import repro.server.pool as pool
    from repro.engine.incremental import ViewMaintainer
    from repro.plan.session import SessionCache
    from repro.plan.statistics import StatisticsCache

    registry: list = []
    factory = host_connection_class(recorder, registry)
    original_connect = pool.connect

    @functools.wraps(original_connect)
    def connect(*args, **kwargs):
        kwargs.setdefault("factory", factory)
        return original_connect(*args, **kwargs)

    pool.connect = connect

    original_checkout = pool.ConnectionPool.connection

    @contextmanager
    def connection(self, timeout=None):
        with recorder.span("pool.connection"), ExitStack() as stack:
            with recorder.span("pool.checkout", opaque=True):
                checked_out = stack.enter_context(original_checkout(self, timeout))
            yield checked_out

    pool.ConnectionPool.connection = functools.wraps(original_checkout)(connection)
    dbapi.sqlite_interrupt = _timed_context(
        dbapi.sqlite_interrupt, recorder, "deadline.arm"
    )

    original_execute = dbapi.Connection.execute

    @functools.wraps(original_execute)
    def execute(self, *args, **kwargs):
        planned = recorder.counter("plan.calls")
        with recorder.span("driver"):
            cursor = original_execute(self, *args, **kwargs)
        plan = cursor.plan
        if plan is not None:
            recorder.count("driver.preference")
            recorder.count(f"driver.strategy.{plan.strategy}")
            if plan.uses_engine:
                recorder.count("driver.in_memory")
            if recorder.counter("plan.calls") == planned:
                recorder.count("driver.reused")
        return cursor

    dbapi.Connection.execute = execute
    _wrap(
        dbapi.Cursor,
        "fetchall",
        recorder,
        "driver",
        after=lambda a, k, rows: recorder.count("driver.rows_out", len(rows)),
    )
    _wrap(dbapi, "parse_statement", recorder, "sql.parse")
    _wrap(
        dbapi,
        "plan_statement",
        recorder,
        "plan.plan",
        after=lambda a, k, plan: recorder.count("plan.calls"),
    )
    _wrap(dbapi, "rebind_plan", recorder, "plan.rebind")
    _wrap(StatisticsCache, "for_table", recorder, "plan.stats")
    _wrap(SessionCache, "match", recorder, "plan.session_match")
    _wrap(planner, "rewrite_statement", recorder, "rewrite")
    for name in ("run_in_memory_plan", "run_in_memory_plan_capturing", "run_prejoin_plan"):
        _wrap(dbapi, name, recorder, "engine")
    _wrap(bmo.PreferenceEngine, "execute_select", recorder, "engine")

    def after_winnow(args, kwargs, winners) -> None:
        vectors = args[1] if len(args) > 1 else kwargs.get("vectors")
        ranks = kwargs.get("ranks")
        candidates = len(vectors) if vectors is not None else len(ranks or ())
        recorder.count("engine.candidates", candidates)
        recorder.count("engine.winners", len(winners))

    _wrap(bmo, "bmo_filter", recorder, "engine.winnow", after=after_winnow)
    _wrap(bmo, "compute_rank_columns", recorder, "engine.rank")
    _wrap(columns, "rank_columns_from_values", recorder, "engine.rank")
    _wrap(bmo, "columnar_skyline", recorder, "engine.kernel")
    _wrap(ViewMaintainer, "prepare", recorder, "incremental.maintain")
    _wrap(ViewMaintainer, "finish", recorder, "incremental.maintain")
    return registry
