"""Seeded request streams for the three serving workloads.

A stream is an endless, deterministic sequence of *sessions*; a session
is a tuple of statement ids sent in order on one connection, the next
one when the previous reply arrives.  Statement ids index
``Workload.statements`` so the load generator can pre-encode every
request line once and the checker can group replies per statement.

Only the texts reach the server: the seed decides which sessions appear,
in which order, and which literals the generated statements carry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.workloads.shop import SearchMask, mask_to_preference_sql
from repro.workloads.traffic import query_chains

#: The materialized view of ``write-mix`` and the read chain that asks
#: its defining query (the planner answers it with strategy ``view``).
VIEW_NAME = "frugal_picks"
VIEW_QUERY = (
    "SELECT * FROM products PREFERRING LOWEST(waterconsumption) "
    "AND HIGHEST(spinspeed) AND LOWEST(price)"
)
VIEW_DDL = f"CREATE PREFERENCE VIEW {VIEW_NAME} AS {VIEW_QUERY}"

#: Share of ``write-mix`` statements that are writes.
WRITE_SHARE = 0.10
#: Product ids at or above this value are rows inserted by ``write-mix``.
FIRST_NEW_PRODUCT = 1_000_000
#: Products of the e15 database at scale 1.0 (ids 1..3000).
BASE_PRODUCTS = 3_000

MANUFACTURERS = ("Aturi", "Miola", "Boschner", "Wasch AG", "Eletta")
WIDTHS = (45, 50, 55, 60, 65, 70)
SPIN_SPEEDS = (800, 1000, 1200, 1400, 1600)


@dataclass(frozen=True)
class Write:
    """One acknowledged-write expectation: a row id and its columns."""

    product_id: int
    kind: str  # "insert" or "update"
    values: tuple  # full row for inserts, (price,) for updates


@dataclass
class Workload:
    """Statement texts plus the session stream that indexes them."""

    name: str
    statements: list[str] = field(default_factory=list)
    #: Statement id -> the write it performs (write-mix only).
    writes: dict[int, Write] = field(default_factory=dict)
    _ids: dict[str, int] = field(default_factory=dict)

    def statement_id(self, sql: str) -> int:
        found = self._ids.get(sql)
        if found is None:
            found = self._ids[sql] = len(self.statements)
            self.statements.append(sql)
        return found

    @property
    def read_ids(self) -> list[int]:
        return [i for i in range(len(self.statements)) if i not in self.writes]


def zipf_weights(count: int, s: float = 1.1) -> list[float]:
    """The popularity weights of ``repro.workloads.traffic.zipfian_schedule``."""
    return [1.0 / (rank**s) for rank in range(1, count + 1)]


def quotas(weights: list[float], block: int) -> list[int]:
    """Split ``block`` in proportion to ``weights`` (largest remainder)."""
    total = sum(weights)
    exact = [w * block / total for w in weights]
    counts = [int(e) for e in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: block - sum(counts)]:
        counts[i] += 1
    return counts


def stratified(counts: list[int], rng: random.Random) -> Iterator[int]:
    """Category ids, each block holding exactly ``counts`` of each.

    The seed orders every block; the mix itself is the same in every
    block, so runs with different seeds differ in order and literals,
    not in how much of each kind of work they carry.
    """
    block = [category for category, count in enumerate(counts) for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


#: Sessions per block of the Zipfian chain mix.
CHAIN_BLOCK = 100


def _chain_sessions(
    workload: Workload, chains: list[tuple[str, ...]], rng: random.Random
) -> Iterator[tuple[int, ...]]:
    """Chains with the Zipf(1.1) popularity of the e15 schedule."""
    ids = [tuple(workload.statement_id(sql) for sql in chain) for chain in chains]
    counts = quotas(zipf_weights(len(ids)), CHAIN_BLOCK)
    return (ids[index] for index in stratified(counts, rng))


def zipf_mix(seed: int) -> tuple[Workload, Iterator[tuple[int, ...]]]:
    """The e15 Zipfian chains, read-only."""
    workload = Workload("zipf-mix")
    chains = [chain.statements for chain in query_chains()]
    return workload, _chain_sessions(workload, chains, random.Random(seed))


def random_mask(rng: random.Random, pattern: int) -> SearchMask:
    """One filled-in section 4.1 washing-machine form.

    The geometry wishes lead the form and are always filled in; the form
    takes any width in centimetres and spin speeds in steps of 50 rpm,
    not only the catalog's values.  The five bits of ``pattern`` say
    which of the knock-out manufacturer and the four economy fields are
    filled in.
    """
    return SearchMask(
        manufacturer=rng.choice(MANUFACTURERS) if pattern & 1 else None,
        width=rng.randint(45, 70),
        spinspeed=rng.randrange(800, 1650, 50),
        max_powerconsumption=round(rng.uniform(0.7, 1.7), 2) if pattern & 2 else None,
        minimize_waterconsumption=bool(pattern & 4),
        price_low=rng.randrange(600, 1600, 10) if pattern & 8 else None,
        price_high=rng.randrange(1700, 3200, 10) if pattern & 16 else None,
    )


def fresh_search(seed: int) -> tuple[Workload, Iterator[tuple[int, ...]]]:
    """One literal search-mask query per session, almost never repeated.

    Each optional field is filled in half of the masks: every block of
    32 masks holds each fill-in pattern once.
    """
    workload = Workload("fresh-search")
    rng = random.Random(seed)
    patterns = stratified([1] * 32, random.Random(seed + 1))

    def sessions() -> Iterator[tuple[int, ...]]:
        for pattern in patterns:
            sql = mask_to_preference_sql(random_mask(rng, pattern))
            yield (workload.statement_id(sql),)

    return workload, sessions()


def write_mix(seed: int) -> tuple[Workload, Iterator[tuple[int, ...]]]:
    """zipf-mix reads, the view's defining query, and 10% writes.

    Every block holds the Zipfian read sessions of ``CHAIN_BLOCK`` draws
    plus as many single-statement writes as make them a tenth of the
    block's statements, inserts and updates alternating.
    """
    workload = Workload("write-mix")
    rng = random.Random(seed)
    chains = [chain.statements for chain in query_chains()] + [(VIEW_QUERY,)]
    ids = [tuple(workload.statement_id(sql) for sql in chain) for chain in chains]
    counts = quotas(zipf_weights(len(chains)), CHAIN_BLOCK)
    reads = sum(count * len(chain) for count, chain in zip(counts, chains))
    counts.append(round(reads * WRITE_SHARE / (1.0 - WRITE_SHARE)))
    # Every update targets a different original product, so no two
    # in-flight writes race on one row and each acknowledged value is
    # the row's final one.
    targets = list(range(1, BASE_PRODUCTS + 1))
    rng.shuffle(targets)
    state = {"writes": 0, "inserted": 0, "updated": 0}

    def write_statement() -> tuple[int, ...]:
        state["writes"] += 1
        if state["writes"] % 2 or state["updated"] >= len(targets):
            product_id = FIRST_NEW_PRODUCT + state["inserted"]
            state["inserted"] += 1
            row = (
                product_id,
                rng.choice(MANUFACTURERS),
                rng.choice(WIDTHS),
                rng.choice(SPIN_SPEEDS),
                round(rng.uniform(0.6, 1.8), 2),
                rng.randrange(35, 75),
                rng.randrange(600, 3200, 10),
            )
            sql = "INSERT INTO products VALUES ({}, '{}', {}, {}, {}, {}, {})".format(
                *row
            )
            write = Write(product_id, "insert", row)
        else:
            product_id = targets[state["updated"]]
            state["updated"] += 1
            price = rng.randrange(600, 3200, 10)
            sql = f"UPDATE products SET price = {price} WHERE product_id = {product_id}"
            write = Write(product_id, "update", (price,))
        statement = workload.statement_id(sql)
        workload.writes[statement] = write
        return (statement,)

    def sessions() -> Iterator[tuple[int, ...]]:
        for category in stratified(counts, random.Random(seed + 1)):
            yield write_statement() if category == len(chains) else ids[category]

    return workload, sessions()


GENERATORS = {
    "zipf-mix": zipf_mix,
    "fresh-search": fresh_search,
    "write-mix": write_mix,
}


@dataclass(frozen=True)
class Shape:
    """Fixed load settings of one workload.

    ``rate`` is the open-loop offered statement rate, ``limit_ms`` the
    goodput latency limit (about twice the open-loop p99 measured when
    the benchmark was defined), and ``open_requests`` the least number
    of statements one open-loop phase completes.
    """

    rate: float
    limit_ms: float
    open_requests: int


#: Each workload is offered about half the closed-loop goodput measured
#: when the benchmark was defined on a 2-core VM: zipf-mix ~190,
#: fresh-search ~31, write-mix ~90 req/s.
SHAPES = {
    "zipf-mix": Shape(rate=95.0, limit_ms=130.0, open_requests=1000),
    "fresh-search": Shape(rate=16.0, limit_ms=550.0, open_requests=1000),
    "write-mix": Shape(rate=45.0, limit_ms=300.0, open_requests=1000),
}


def mean_session_length(workload: str, seed: int) -> float:
    """Statements per session, estimated from 4000 sessions of the stream."""
    _, sessions = GENERATORS[workload](seed)
    return sum(len(next(sessions)) for _ in range(4000)) / 4000


def poisson_gaps(rate: float, seed: int) -> Iterator[float]:
    """Inter-arrival gaps (seconds) of a seeded Poisson process."""
    rng = random.Random(seed)
    while True:
        yield -math.log(1.0 - rng.random()) / rate
