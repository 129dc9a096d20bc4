"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
The smoke tests start real server processes on shortened phases, so the
file is not named ``test_*.py`` and stays out of the default collection.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import loadgen  # noqa: E402
import measures  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import traffic  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Percentile rule


def test_p99_needs_a_thousand_samples():
    assert measures.supported_percentile(1000) == 99.0
    assert measures.supported_percentile(999) == 98.0
    assert measures.supported_percentile(10_000) == 99.9
    assert measures.supported_percentile(100) == 90.0
    assert measures.supported_percentile(10) is None


def test_every_reported_percentile_has_ten_samples_beyond_it():
    for n in range(1, 3000):
        p = measures.supported_percentile(n)
        if p is not None:
            assert measures.beyond(p, n) >= 10
            higher = [q for q in measures.LADDER if q > p]
            assert all(measures.beyond(q, n) < 10 for q in higher)


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert measures.percentile(values, 99.0) == 990
    assert measures.percentile(values, 50.0) == 500
    assert measures.percentile([5.0], 99.0) == 5.0


# ----------------------------------------------------------------------
# Spans and self time


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union 1..6 counts once
        ["c", 2.0, 3.0, 1],
        ["d", 9.5, 12.0, 0],  # runs past its parent: clipped to 9.5..10
    ]
    self_time = spans.self_times(tree)
    assert self_time["root"] == pytest.approx(10.0 - 5.0 - 0.5)
    assert self_time["a"] == pytest.approx(2.0)
    assert self_time["b"] == pytest.approx(3.0)
    assert self_time["c"] == pytest.approx(1.0)
    assert sum(self_time.values()) == pytest.approx(10.0 + 2.5 - 0.5 + 0.5 + 0.5)


def test_self_times_of_nested_spans_add_up_to_the_root():
    tree = [
        ["root", 0.0, 8.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 6.0, 7.0, 0],
    ]
    assert sum(spans.self_times(tree).values()) == pytest.approx(8.0)


def test_recorder_keeps_request_trees_only():
    recorder = spans.Recorder()
    with recorder.span("host"):  # outside any request: not recorded
        recorder.count("host.rows")
    with recorder.span(spans.ROOT):
        with recorder.span("pool.checkout", opaque=True):
            with recorder.span("host"):  # inside an opaque span: hidden
                recorder.count("host.rows")
        with recorder.span("driver"):
            recorder.count("host.rows", 3)
    snapshot = recorder.snapshot()
    (tree,) = snapshot["trees"]
    assert [span[0] for span in tree] == [spans.ROOT, "pool.checkout", "driver"]
    assert [span[3] for span in tree] == [-1, 0, 0]
    assert snapshot["counters"] == {"host.rows": 3}
    recorder.reset()
    assert recorder.snapshot() == {"trees": [], "counters": {}}


# ----------------------------------------------------------------------
# Generators


def first_sessions(name: str, seed: int, count: int = 300):
    workload, sessions = traffic.GENERATORS[name](seed)
    drawn = list(itertools.islice(sessions, count))
    return [tuple(workload.statements[i] for i in session) for session in drawn]


@pytest.mark.parametrize("name", sorted(traffic.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    assert first_sessions(name, 7) == first_sessions(name, 7)
    assert first_sessions(name, 7) != first_sessions(name, 8)


def test_fresh_search_texts_are_almost_all_distinct():
    texts = [session[0] for session in first_sessions("fresh-search", 1, 600)]
    assert len(set(texts)) >= 590


def test_write_mix_writes_are_about_a_tenth_and_target_distinct_rows():
    workload, sessions = traffic.write_mix(3)
    statements = [i for session in itertools.islice(sessions, 3000) for i in session]
    writes = [workload.writes[i] for i in statements if i in workload.writes]
    assert 0.08 < len(writes) / len(statements) < 0.12
    updated = [w.product_id for w in writes if w.kind == "update"]
    assert len(updated) == len(set(updated))
    assert traffic.VIEW_QUERY in workload.statements


def test_poisson_gaps_match_the_rate():
    gaps = list(itertools.islice(traffic.poisson_gaps(50.0, seed=1), 5000))
    assert gaps == list(itertools.islice(traffic.poisson_gaps(50.0, seed=1), 5000))
    assert 5000 / sum(gaps) == pytest.approx(50.0, rel=0.05)


# ----------------------------------------------------------------------
# Checker


def sample(statement: int, reply: bytes) -> loadgen.Sample:
    return loadgen.Sample(
        statement, 0.0, 0.0, 0.001, None, len(reply), loadgen.is_error(reply),
        reply, reply,
    )


def test_checker_rejects_a_doctored_reply():
    rows = [[1, "Miola", 1.5], [2, "Aturi", 0.75]]
    expected = {0: checks.canonical(rows)}
    honest = json.dumps({"columns": ["a", "b", "c"], "rows": rows[::-1]}).encode()
    doctored = json.dumps(
        {"columns": ["a", "b", "c"], "rows": [[1, "Miola", 1.5], [2, "Aturi", 0.76]]}
    ).encode()
    dropped = json.dumps({"columns": ["a", "b", "c"], "rows": rows[:1]}).encode()
    assert checks.wrong_replies([sample(0, honest)], expected) == set()
    wrong = checks.wrong_replies(
        [sample(0, honest), sample(0, doctored), sample(0, dropped)], expected
    )
    assert wrong == {(0, doctored), (0, dropped)}


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs print


def test_benchmark_file_names_the_printed_metrics():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(traffic.GENERATORS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(run.PER_LAYER)


# ----------------------------------------------------------------------
# Smoke runs on shortened phases


@pytest.fixture
def short_phases(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(measures, "TAIL", 0)
    for name, shape in traffic.SHAPES.items():
        monkeypatch.setitem(
            traffic.SHAPES,
            name,
            traffic.Shape(rate=shape.rate, limit_ms=shape.limit_ms, open_requests=30),
        )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(traffic.GENERATORS))
def test_smoke_run(name, trace, short_phases, tmp_path):
    args = argparse.Namespace(workload=name, seed=5, seconds=1.0, trace=trace)
    result = asyncio.run((run.traced if trace else run.untraced)(args, tmp_path))
    assert result["problems"] == []
    assert result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(expected) <= set(result["metrics"])
    if trace:
        split = result["metrics"]
        layers = sum(
            value
            for metric, (value, unit, _) in split.items()
            if unit == "ms" and metric not in ("trace.latency_ms", "gen.late_p99_ms")
        )
        assert layers == pytest.approx(split["trace.latency_ms"][0], rel=1e-6)
