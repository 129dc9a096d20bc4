"""Answer checks, run outside the timed phases.

Replies are compared as row multisets in their wire form: both sides are
passed through JSON so a float or a tuple compares the way the client
sees it, and rows are sorted because a preference query without ORDER BY
fixes no row order.
"""

from __future__ import annotations

import json
import random
from typing import Iterable, Sequence

from loadgen import Link, Sample
from traffic import VIEW_NAME, VIEW_QUERY, Workload

import repro


def canonical(rows: Iterable[Sequence[object]]) -> list[str]:
    """A row multiset in a comparable form."""
    return sorted(json.dumps(list(row)) for row in rows)


def reply_rows(reply: bytes) -> list[str] | None:
    """The canonical rows of a reply line, None for an error reply."""
    message = json.loads(reply)
    if "error" in message:
        return None
    return canonical(message.get("rows", ()))


def fresh_connection(database: str):
    """A standalone connection that never answers from a session cache."""
    connection = repro.connect(database)
    connection.session_reuse = False
    return connection


def oracle(database: str, statements: Sequence[str], ids: Iterable[int], algorithm=None) -> dict[int, list[str]]:
    """Expected canonical rows for each statement id, on a fresh connection."""
    connection = fresh_connection(database)
    try:
        return {
            i: canonical(connection.execute(statements[i], algorithm=algorithm).fetchall())
            for i in ids
        }
    finally:
        connection.close()


def wrong_replies(samples: Iterable[Sample], expected: dict[int, list[str]]) -> set[tuple[int, bytes]]:
    """(statement, digest) of every kept reply that differs from ``expected``.

    Each distinct reply of a statement is parsed and compared once.
    """
    verdicts: dict[tuple[int, bytes], bool] = {}
    for sample in samples:
        if sample.reply is None or sample.error or sample.statement not in expected:
            continue
        key = (sample.statement, sample.digest)
        if key not in verdicts:
            verdicts[key] = reply_rows(sample.reply) == expected[sample.statement]
    return {key for key, ok in verdicts.items() if not ok}


def sample_statements(samples: Sequence[Sample], count: int, seed: int) -> list[int]:
    """A seeded sample of the statements whose replies were kept."""
    kept = sorted({s.statement for s in samples if s.reply is not None and not s.error})
    random.Random(seed).shuffle(kept)
    return sorted(kept[:count])


async def write_mix_problems(
    database: str, workload: Workload, samples: Iterable[Sample], link: Link
) -> list[str]:
    """The three post-run checks of ``write-mix``; returns what failed."""
    problems: list[str] = []
    connection = fresh_connection(database)
    try:
        backing = canonical(connection.execute(f"SELECT * FROM {VIEW_NAME}").fetchall())
        recomputed = canonical(connection.execute(VIEW_QUERY, algorithm="rewrite").fetchall())
        if backing != recomputed:
            problems.append(
                f"view {VIEW_NAME}: {len(backing)} materialized rows differ "
                f"from a {len(recomputed)}-row recompute"
            )
        for statement in workload.read_ids:
            sql = workload.statements[statement]
            expected = canonical(connection.execute(sql).fetchall())
            served = reply_rows(await link.call(json.dumps({"sql": sql}).encode() + b"\n"))
            if served != expected:
                problems.append(f"re-issued read differs from a fresh connection: {sql}")
        for sample in samples:
            write = workload.writes.get(sample.statement)
            if write is None or sample.error:
                continue
            row = connection.execute(
                "SELECT * FROM products WHERE product_id = ?", (write.product_id,)
            ).fetchall()
            if write.kind == "insert":
                ok = canonical(row) == canonical([write.values])
            else:
                ok = len(row) == 1 and row[0][-1] == write.values[0]
            if not ok:
                problems.append(
                    f"acknowledged {write.kind} of product {write.product_id} not visible"
                )
    finally:
        connection.close()
    return problems
