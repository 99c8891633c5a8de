"""Load-generator contracts: seeded plans, both loop modes, the envelope."""

import asyncio
import json

import pytest

from repro.errors import ReproError
from repro.serve.loadgen import (
    LOADGEN_SCHEMA,
    loadgen_envelope,
    loadgen_scalars,
    run_loadgen,
    selfhosted_loadgen,
)
from repro.serve.service import ServeConfig

SPACE = {"max_wimpy": 2, "max_brawny": 1}


def _small_run(**overrides):
    kwargs = dict(
        mode="closed",
        clients=2,
        total_requests=12,
        workloads=("EP",),
        space=SPACE,
        seed=123,
    )
    kwargs.update(overrides)
    return selfhosted_loadgen(ServeConfig(precompute=()), **kwargs)


class TestClosedLoop:
    def test_every_request_completes(self):
        result, summary = _small_run()
        assert result.mode == "closed"
        assert result.attempted == 12
        assert result.completed == 12
        assert result.errors == 0
        assert len(result.latencies_s) == 12
        assert result.throughput_rps > 0
        assert result.p95_s >= result.p50_s > 0
        # The service summary covers the priming pass plus the window.
        assert summary["requests_total"] >= 13.0

    def test_same_seed_same_plan(self):
        a, _ = _small_run(collect_responses=True)
        b, _ = _small_run(collect_responses=True)
        assert [body for body, _doc in a.responses] == [
            body for body, _doc in b.responses
        ]

    def test_collect_responses_keeps_pairs(self):
        result, _ = _small_run(collect_responses=True)
        assert len(result.responses) == 12
        body, doc = result.responses[0]
        assert body["workload"] == "EP"
        assert doc["endpoint"] == "recommend"

    def test_responses_dropped_by_default(self):
        result, _ = _small_run()
        assert result.responses == ()


class TestOpenLoop:
    def test_open_mode_dispatches_by_arrival_process(self):
        result, _ = _small_run(
            mode="open", arrival="poisson", rate_rps=500.0, total_requests=10
        )
        assert result.mode == "open"
        assert result.attempted == 10
        assert result.completed + result.shed + result.errors == 10
        assert result.errors == 0


async def _slow_server(reader, writer):
    """A keep-alive HTTP server that answers /recommend after 50 ms."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            path = line.decode("latin-1").split()[1]
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b""):
                    break
                key, _, value = header.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            if length:
                await reader.readexactly(length)
            if path == "/recommend":
                await asyncio.sleep(0.05)
                doc = {"feasible": True}
            else:  # the priming /frontier and the closing /stats
                doc = {"points": [{"tp_s": 1.0}, {"tp_s": 2.0}]}
            body = json.dumps(doc).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            await writer.drain()
    finally:
        writer.close()


class TestOpenLoopBacklog:
    def test_latency_runs_from_the_due_time(self):
        # 10 requests due within ~0.1 s share one connection to a server
        # that takes 50 ms each: the last answer lands >= 0.5 s after the
        # first send, so waiting for the connection must count.
        async def scenario():
            server = await asyncio.start_server(_slow_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_loadgen(
                    "127.0.0.1", port, mode="open", clients=1,
                    total_requests=10, rate_rps=100.0, seed=7,
                )
            finally:
                server.close()
                await server.wait_closed()

        result = asyncio.run(scenario())
        assert result.completed == 10
        assert result.wall_s >= 0.5
        assert max(result.latencies_s) >= 0.3  # the backlog is reported
        assert len(result.lateness_s) == 10
        assert result.lateness_p99_s < 0.1  # ... and it is not the generator's
        envelope = loadgen_envelope(result, {})
        assert envelope["lateness_p99_s"] == result.lateness_p99_s


class TestEnvelope:
    def test_envelope_and_scalars_shape(self):
        result, _ = _small_run()
        envelope = loadgen_envelope(result, {"clients": 2})
        assert envelope["schema"] == LOADGEN_SCHEMA
        assert envelope["requests"]["completed"] == 12
        assert set(envelope["latency_s"]) == {"p50", "p95", "p99", "mean"}
        assert envelope["server"] is not None
        scalars = loadgen_scalars(result)
        assert scalars["completed"] == 12.0
        assert scalars["throughput_rps"] == pytest.approx(
            result.throughput_rps
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sideways"},
            {"clients": 0},
            {"total_requests": 0},
            {"workloads": ()},
        ],
    )
    def test_bad_arguments_raise(self, kwargs):
        with pytest.raises(ReproError):
            _small_run(**kwargs)

    def test_unreachable_service_raises(self):
        async def scenario():
            await run_loadgen("127.0.0.1", 9, total_requests=1)

        with pytest.raises(OSError):
            asyncio.run(scenario())
