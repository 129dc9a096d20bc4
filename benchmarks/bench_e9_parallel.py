"""E9 — partitioned parallel skyline execution vs the serial algorithms.

Benchmarks the skyline stage of a grouped query (the part the partitioned
executor changes) and asserts the serial and parallel paths report the
same winners — the timing claim of the E9 experiment in miniature.
"""

from repro.engine.bmo import bmo_filter
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring
from repro.workloads.jobs import CONDITION_SETS, jobs_relation

N = 10_000


def _grouped_inputs():
    relation = jobs_relation(n=N)
    preferring = " AND ".join(soft for _hard, soft in CONDITION_SETS["A"])
    preference = build_preference(parse_preferring(preferring))
    positions = {name.lower(): i for i, name in enumerate(relation.columns)}
    slots = [positions[op.name.lower()] for op in preference.operands]
    vectors = [tuple(row[i] for i in slots) for row in relation.rows]
    region, profession = positions["region"], positions["profession"]
    keys = [(row[region], row[profession]) for row in relation.rows]
    return preference, vectors, keys


def test_serial_grouped_skyline(benchmark):
    preference, vectors, keys = _grouped_inputs()
    winners = benchmark(
        lambda: bmo_filter(preference, vectors, group_keys=keys, algorithm="memory")
    )
    assert winners


def test_parallel_grouped_skyline(benchmark):
    preference, vectors, keys = _grouped_inputs()
    serial = bmo_filter(preference, vectors, group_keys=keys, algorithm="memory")
    winners = benchmark(
        lambda: bmo_filter(
            preference, vectors, group_keys=keys, algorithm="parallel"
        )
    )
    assert winners == serial
