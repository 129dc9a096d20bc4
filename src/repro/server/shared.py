"""Cross-session serving state shared by a pool of driver connections.

The paper's Preference SQL middleware served "millions of users" from
one resident server process; this module holds the state that makes a
pool of driver connections behave like that one server instead of N
independent clients:

* **plan cache** — parsing and planning are pure functions of statement
  text and planning environment, so one
  :class:`~repro.plan.cache.PlanCache` (internally locked) serves every
  pooled connection: a statement planned for one session is a cache hit
  for all of them.
* **statistics store** — one table-statistics entry map shared by the
  per-connection :class:`~repro.plan.statistics.StatisticsCache`
  instances; a table scanned for one session is known to all.
* **write epochs** — explicit counters bumped by any attached connection
  that may have changed table contents (``data``) or the preference
  catalog (``catalog``).  Attached connections report these epochs as
  their ``data_version``/``catalog_version``, so every version-stamped
  cache in the driver — cached plans, statistics entries, session winner
  bases, the schema cache — goes stale the moment *any* pooled sibling
  writes.  sqlite's ``PRAGMA data_version`` cannot provide this signal:
  it never moves for a connection's own writes, and in-process sibling
  writes are exactly what a pooled server produces.
* **view-maintenance lock** — incremental view maintenance captures a
  delta before a DML statement and applies it after; two pooled writers
  interleaving between those steps lose one of them, so a writer to a
  table some view depends on holds this lock from capture to apply.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.plan.cache import PlanCache
from repro.plan.statistics import TableStatistics


class SharedState:
    """The serving state one connection pool shares.

    Attach connections via ``connect(..., shared=state)`` (see
    :func:`repro.driver.dbapi.connect`); standalone connections keep
    their private caches and counters.
    """

    def __init__(self, plan_cache_size: int = 256):
        self._lock = threading.Lock()
        #: guarded by _lock
        self._data_epoch = 0
        #: guarded by _lock
        self._catalog_epoch = 0
        #: The cross-session parse+plan cache (internally locked).
        self.plan_cache: PlanCache = PlanCache(maxsize=plan_cache_size)
        #: The cross-session statistics entry store and its lock, shared
        #: by every attached connection's StatisticsCache.
        self.statistics_entries: dict[str, tuple[int, TableStatistics]] = {}
        self.statistics_lock = threading.Lock()
        #: Recovery observability: named event counters bumped by the
        #: serving layer when a component self-heals (e.g. a pooled
        #: connection replaced, a process pool rebuilt).  The chaos
        #: suite reads these to assert faults were *detected*, not just
        #: survived.
        #: guarded by _lock
        self.events: dict[str, int] = {}
        self._maintenance_lock = threading.Lock()
        #: DML statements whose view maintenance ran under the lock.
        #: guarded by _maintenance_lock
        self._maintenance_runs = 0

    def record_event(self, name: str, count: int = 1) -> None:
        """Bump a named recovery/observability counter (thread-safe)."""
        with self._lock:
            self.events[name] = self.events.get(name, 0) + count

    def event_counts(self) -> dict[str, int]:
        """A snapshot of the recovery event counters."""
        with self._lock:
            return dict(self.events)

    @property
    def data_epoch(self) -> int:
        """Moves on every statement that may change table contents."""
        # Deliberately lock-free: this read sits on every query's cache
        # validation path, and taking the write lock here makes readers
        # across the whole pool contend with each other.  A CPython int
        # read cannot tear, and the visibility order version-stamped
        # caches need is already sequenced by the pool's checkout-queue
        # handoff: a writer bumps the epoch before returning its
        # connection, and the reader checks one out afterwards.
        # prefcheck: disable=lock-discipline -- hot-path racy read; atomic in CPython, ordered by the pool's checkout handoff, and a stale value only costs one extra cache validation
        return self._data_epoch

    @property
    def catalog_epoch(self) -> int:
        """Moves on every CREATE/DROP PREFERENCE (and aborted catalog
        transactions — cross-session rollback orphans conservatively)."""
        # prefcheck: disable=lock-discipline -- same hot-path racy read as data_epoch, same checkout-handoff ordering
        return self._catalog_epoch

    def bump_data(self) -> int:
        """Advance the data write epoch; returns the new value."""
        with self._lock:
            self._data_epoch += 1
            return self._data_epoch

    def bump_catalog(self) -> int:
        """Advance the catalog epoch; returns the new value."""
        with self._lock:
            self._catalog_epoch += 1
            return self._catalog_epoch

    @contextmanager
    def view_maintenance(self) -> Iterator[None]:
        """Hold the pool-wide view-maintenance lock for one DML statement.

        The driver enters this around ``ViewMaintainer.prepare``, the DML
        itself and ``ViewMaintainer.finish`` whenever the statement
        writes a table some materialized view depends on, so concurrent
        writers maintain the views one after the other.
        """
        with self._maintenance_lock:
            self._maintenance_runs += 1
            yield

    @property
    def maintenance_runs(self) -> int:
        """How many DML statements were maintained under the lock."""
        with self._maintenance_lock:
            return self._maintenance_runs
