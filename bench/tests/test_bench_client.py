"""The benchmark's HTTP client and load generators against an in-test server."""

import asyncio
import json

from client import (
    MAX_LATENESS_S,
    closed_loop,
    open_connections,
    open_loop,
    open_loop_check,
    render_request,
)
from stats import percentile

#: Service time of the in-test server.
SLEEP_S = 0.05


async def _slow_server():
    """Keep-alive HTTP server answering every request after ``SLEEP_S``."""

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode("latin-1").split("\r\n")[1:]:
                    key, _, value = line.partition(":")
                    if key.lower() == "content-length":
                        length = int(value)
                body = await reader.readexactly(length) if length else b""
                await asyncio.sleep(SLEEP_S)
                payload = json.dumps({"echo": body.decode()}).encode()
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(payload)
                             + payload)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def _run(load):
    server = await _slow_server()
    port = server.sockets[0].getsockname()[1]
    conns = await open_connections("127.0.0.1", port, 1)
    try:
        return await load(conns)
    finally:
        for conn in conns:
            await conn.close()
        server.close()
        await server.wait_closed()


def test_open_loop_counts_the_backlog_from_the_due_time():
    # 40 req/s against one connection that serves 20 req/s: the queue grows
    # by one request every 50 ms, and the last of 40 waits about a second.
    schedule = [(k / 40.0, render_request("POST", "/x", str(k).encode()), 0) for k in range(40)]
    answers = asyncio.run(_run(lambda conns: open_loop([conns], schedule)))

    assert [a.index for a in answers] == list(range(40))
    assert all(a.status == 200 for a in answers)
    assert json.loads(answers[7].body) == {"echo": "7"}
    # Send-to-answer time hides the backlog; due-time latency shows it.
    assert max(a.rtt_s for a in answers) < 4 * SLEEP_S
    assert percentile([a.latency_s for a in answers], 99) > 0.8
    assert answers[-1].latency_s > answers[0].latency_s + 0.8
    verdict = open_loop_check(answers)
    assert verdict.lateness_p99_s <= MAX_LATENESS_S
    assert not verdict.valid
    assert verdict.completed_per_s < 0.95 * verdict.offered_per_s


def test_open_loop_below_capacity_is_valid():
    schedule = [(k / 10.0, render_request("POST", "/x"), 0) for k in range(20)]
    answers = asyncio.run(_run(lambda conns: open_loop([conns], schedule)))
    assert max(a.latency_s for a in answers) < 3 * SLEEP_S
    assert open_loop_check(answers).valid


def test_closed_loop_cycles_requests_for_the_given_time():
    requests = [render_request("POST", "/x", str(k).encode()) for k in range(3)]
    answers = asyncio.run(_run(lambda conns: closed_loop(conns, requests, seconds=0.3)))
    assert 4 <= len(answers) <= 8
    assert [a.index for a in answers] == list(range(len(answers)))
    for a in answers:
        assert json.loads(a.body) == {"echo": str(a.index % 3)}
        assert a.latency_s == a.rtt_s >= SLEEP_S
