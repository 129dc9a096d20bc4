"""E7 — the same preference query via sqlite rewrite vs in-memory engine.

The paper anticipates that "implementing a generalized skyline operator in
the kernel of an SQL-system clearly hold[s] much promise for additional
speed-ups"; the in-memory BNL engine stands in for that kernel operator.
Both paths must return the same number of winners at every size.
"""

import pytest

import repro
from repro.engine import PreferenceEngine
from repro.workloads.distributions import independent, lowest_preference_sql, vectors_to_relation
from repro.workloads.fixtures import relation_to_sqlite

SQL = "SELECT * FROM points PREFERRING " + lowest_preference_sql(3)


def make_relation(n):
    return vectors_to_relation(independent(n, 3, seed=3))


@pytest.mark.parametrize("n", [1000, 8000])
def test_sqlite_not_exists(benchmark, n):
    relation = make_relation(n)
    con = repro.connect(":memory:")
    relation_to_sqlite(con, "points", relation)
    rows = benchmark(lambda: con.execute(SQL).fetchall())
    benchmark.extra_info["winners"] = len(rows)
    engine = PreferenceEngine({"points": relation})
    assert len(rows) == len(engine.execute(SQL))
    con.close()


@pytest.mark.parametrize("n", [1000, 8000])
def test_engine_memory(benchmark, n):
    relation = make_relation(n)
    engine = PreferenceEngine({"points": relation})
    result = benchmark(lambda: engine.execute(SQL))
    benchmark.extra_info["winners"] = len(result)
    assert len(result) >= 1
