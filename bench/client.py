"""A minimal asyncio HTTP/1.1 keep-alive client and two load generators.

The benchmark owns its client so that changes to the program's own load
generator cannot change what is measured.  Both generators share one event
loop thread and a fixed number of keep-alive connections.

* :func:`closed_loop` -- each connection sends its next request as soon as
  the previous answer arrives; latency runs from send to answer.
* :func:`open_loop` -- requests are due on a fixed schedule whatever the
  server does; latency runs from the *due* time, so a stall that delays
  later requests (a busy connection, a late generator) is counted.  The
  generator's own lateness is recorded per request.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from stats import percentile

#: Per-request timeout; a request that takes longer counts as failed.
TIMEOUT_S = 10.0


def render_request(method: str, path: str, body: bytes = b"") -> bytes:
    """One HTTP/1.1 keep-alive request, ready to write."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection; requests on it are strictly sequential."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one rendered request; return ``(status, body)``."""
        if self._writer is None:
            await self.open()
        assert self._reader is not None and self._writer is not None
        self._writer.write(raw)
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    async def exchange(self, raw: bytes) -> Tuple[int, bytes]:
        """:meth:`request` with a timeout; a failure answers status 0 and
        drops the connection (it reopens on the next request)."""
        try:
            return await asyncio.wait_for(self.request(raw), TIMEOUT_S)
        except (OSError, EOFError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                asyncio.LimitOverrunError, ValueError, IndexError):
            await self.close()
            return 0, b""


@dataclass
class Answer:
    """One request's outcome.  ``latency_s`` runs from the due time (open
    loop) or the send time (closed loop); ``rtt_s`` always from the send."""

    index: int
    status: int
    latency_s: float
    rtt_s: float
    body: bytes
    #: Open loop only: due time after the run start, and how late the
    #: generator issued the request.
    due_s: float = 0.0
    lateness_s: float = 0.0


async def open_connections(host: str, port: int, n: int) -> List[Connection]:
    return [await Connection(host, port).open() for _ in range(n)]


async def closed_loop(
    conns: Sequence[Connection],
    requests: Sequence[bytes],
    *,
    seconds: float,
    start_index: int = 0,
) -> List[Answer]:
    """Send ``requests`` (cycling) back to back on every connection for
    ``seconds``; request ``i`` is ``requests[i % len(requests)]``."""
    counter = itertools.count(start_index)
    answers: List[Answer] = []
    stop_at = perf_counter() + seconds

    async def worker(conn: Connection) -> None:
        while perf_counter() < stop_at:
            i = next(counter)
            t0 = perf_counter()
            status, body = await conn.exchange(requests[i % len(requests)])
            rtt = perf_counter() - t0
            answers.append(Answer(i, status, rtt, rtt, body))

    await asyncio.gather(*(worker(c) for c in conns))
    answers.sort(key=lambda a: a.index)
    return answers


async def open_loop(
    lanes: Sequence[Sequence[Connection]],
    schedule: Sequence[Tuple[float, bytes, int]],
) -> List[Answer]:
    """Send ``schedule[k] = (offset_s, request, lane)`` at ``offset_s``
    after the start, on the first free connection of ``lanes[lane]``; wait
    for every answer.  ``Answer.index`` is the position ``k``."""
    pools: List["asyncio.Queue[Connection]"] = []
    for conns in lanes:
        pool: "asyncio.Queue[Connection]" = asyncio.Queue()
        for conn in conns:
            pool.put_nowait(conn)
        pools.append(pool)
    answers: List[Answer] = []

    async def one(index: int, offset: float, lateness: float, raw: bytes, lane: int) -> None:
        conn = await pools[lane].get()
        try:
            t0 = perf_counter()
            status, body = await conn.exchange(raw)
            done = perf_counter()
        finally:
            pools[lane].put_nowait(conn)
        due = start + offset
        answers.append(Answer(index, status, done - due, done - t0, body, offset, lateness))

    start = perf_counter()
    tasks = []
    for k, (offset, raw, lane) in enumerate(schedule):
        delay = start + offset - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness = perf_counter() - (start + offset)
        tasks.append(asyncio.create_task(one(k, offset, lateness, raw, lane)))
    await asyncio.gather(*tasks)
    answers.sort(key=lambda a: a.index)
    return answers


@dataclass(frozen=True)
class OpenLoopCheck:
    """Whether an open-loop run measured the server at its offered rate."""

    valid: bool
    lateness_p99_s: float
    offered_per_s: float
    completed_per_s: float


#: Generator lateness p99 above which an open-loop run is invalid.
MAX_LATENESS_S = 0.010

#: Share of the offered rate the server must complete for a valid run.
MIN_RATE_SHARE = 0.95


def open_loop_check(answers: Sequence[Answer]) -> OpenLoopCheck:
    """Judge one open-loop run.

    It is invalid when the generator fell behind its schedule or the
    server completed less than :data:`MIN_RATE_SHARE` of the offered rate:
    the offered rate is the requests over the span of their due times,
    the completed rate the answered requests over the span until the last
    answer landed, less the longest round trip (a server keeping up needs
    that long for the last request too).  A growing backlog stretches the
    span far beyond that.  Either way the latencies would describe the
    generator or the backlog, not the server at that rate.
    """
    if not answers:
        return OpenLoopCheck(False, 0.0, 0.0, 0.0)
    lateness_p99 = percentile([a.lateness_s for a in answers], 99.0)
    last_due = max(a.due_s for a in answers)
    last_done = max(a.due_s + a.latency_s for a in answers)
    span = max(last_due, last_done - max(a.rtt_s for a in answers))
    offered = len(answers) / last_due if last_due > 0 else float("inf")
    completed = sum(1 for a in answers if a.status == 200) / span if span > 0 else offered
    valid = lateness_p99 <= MAX_LATENESS_S and completed >= MIN_RATE_SHARE * offered
    return OpenLoopCheck(valid, lateness_p99, offered, completed)
