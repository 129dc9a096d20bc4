"""The load generator: one asyncio process, a fixed set of connections.

Requests are pre-encoded protocol lines; a connection carries one request
at a time.  Two phase shapes:

* **closed loop** — every connection runs sessions back to back, sending
  the next statement as soon as the previous reply arrives;
* **open loop** — sessions arrive as a seeded Poisson process.  A
  statement is *due* at its session's arrival (the first one) or when
  the previous reply of its session arrives (the rest); due statements
  wait in one FIFO for a free connection, and latency counts from the
  due time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from traffic import poisson_gaps

#: Reply lines may be large (search results); the asyncio default is 64 KiB.
LINE_LIMIT = 1 << 26


def is_error(reply: bytes) -> bool:
    """True for an error reply (the server writes ``error`` first)."""
    return reply.startswith(b'{"error"')


@dataclass(slots=True)
class Sample:
    """One request: when it was due, sent and answered, and what came back."""

    statement: int
    due: float
    start: float
    end: float
    #: How late the generator enqueued a session arrival; None for a
    #: statement that was due on its predecessor's reply.
    late: float | None
    size: int
    error: bool
    digest: bytes
    reply: bytes | None

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def wait(self) -> float:
        return self.start - self.due


class Link:
    """One client connection speaking the server's line protocol."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Link":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=LINE_LIMIT
        )
        return cls(reader, writer)

    async def call(self, line: bytes) -> bytes:
        self.writer.write(line)
        await self.writer.drain()
        reply = await self.reader.readline()
        if not reply.endswith(b"\n"):
            raise ConnectionError("server closed the connection mid-reply")
        return reply

    async def request(self, payload: dict) -> dict:
        return json.loads(await self.call(json.dumps(payload).encode() + b"\n"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class Lines:
    """Statement id -> encoded request line, encoded once per statement."""

    def __init__(self, statements: list[str]):
        self._statements = statements
        self._lines: list[bytes] = []

    def __getitem__(self, statement: int) -> bytes:
        while len(self._lines) <= statement:
            sql = self._statements[len(self._lines)]
            self._lines.append(json.dumps({"sql": sql}).encode() + b"\n")
        return self._lines[statement]


class _Recorder:
    def __init__(self, keep: Callable[[int], bool]):
        self.keep = keep
        self.samples: list[Sample] = []
        self._replies: dict[bytes, bytes] = {}

    def add(self, statement, due, start, end, late, reply: bytes) -> None:
        kept = None
        if self.keep(statement):
            kept = self._replies.setdefault(reply, reply)
        self.samples.append(
            Sample(
                statement,
                due,
                start,
                end,
                late,
                len(reply),
                is_error(reply),
                hashlib.blake2b(reply, digest_size=16).digest(),
                kept,
            )
        )


async def closed_loop(
    links: list[Link],
    lines: Lines,
    sessions: Iterator[tuple[int, ...]],
    seconds: float,
    keep: Callable[[int], bool],
) -> tuple[list[Sample], float]:
    """Run sessions back to back on every link for ``seconds``.

    Returns the samples and the phase's start; a request is sent only
    before ``seconds`` have passed, and may finish after that.
    """
    recorder = _Recorder(keep)
    start = time.perf_counter()
    stop = start + seconds

    async def worker(link: Link) -> None:
        while time.perf_counter() < stop:
            for statement in next(sessions):
                sent = time.perf_counter()
                if sent >= stop:
                    return
                reply = await link.call(lines[statement])
                recorder.add(statement, sent, sent, time.perf_counter(), None, reply)

    await asyncio.gather(*(worker(link) for link in links))
    return recorder.samples, start


async def open_loop(
    links: list[Link],
    lines: Lines,
    sessions: Iterator[tuple[int, ...]],
    session_rate: float,
    requests: int,
    seed: int,
    keep: Callable[[int], bool],
) -> list[Sample]:
    """Poisson session arrivals until ``requests`` statements have arrived."""
    recorder = _Recorder(keep)
    queue: asyncio.Queue = asyncio.Queue()
    gaps = poisson_gaps(session_rate, seed)
    state: dict = {"open": 0, "arriving": True, "error": None}
    done = asyncio.Event()

    async def arrivals() -> None:
        due = time.perf_counter() + 0.05
        arrived = 0
        while arrived < requests and state["error"] is None:
            due += next(gaps)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            session = next(sessions)
            arrived += len(session)
            state["open"] += 1
            queue.put_nowait((session, 0, due, time.perf_counter() - due))
        state["arriving"] = False
        if not state["open"]:
            done.set()

    async def worker(link: Link) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            session, position, due, late = item
            start = time.perf_counter()
            try:
                reply = await link.call(lines[session[position]])
            except (ConnectionError, OSError) as error:
                state["error"] = error
                done.set()
                return
            end = time.perf_counter()
            recorder.add(session[position], due, start, end, late, reply)
            if position + 1 < len(session):
                queue.put_nowait((session, position + 1, end, None))
                continue
            state["open"] -= 1
            if not state["open"] and not state["arriving"]:
                done.set()

    workers = [asyncio.create_task(worker(link)) for link in links]
    try:
        await arrivals()
        await done.wait()
    finally:
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    if state["error"] is not None:
        raise state["error"]
    return recorder.samples
