"""End-to-end service contracts over real HTTP round trips.

Every test boots a :class:`ReproService` on an ephemeral loopback port
inside one ``asyncio.run``, drives it with the load generator's raw
keep-alive client, and tears it down — no sockets survive a test.
"""

import asyncio
import dataclasses
import pickle

import numpy as np
import pytest

import repro
from repro.cluster.search import recommend_exhaustive
from repro.serve.loadgen import _HttpClient
from repro.serve.service import (
    MAX_SPACE_CONFIGS,
    ReproService,
    ServeConfig,
    _build_space_payload,
    _normalize_space_params,
)

#: A deliberately small space so each cold sweep is milliseconds.
SPACE = {"max_wimpy": 2, "max_brawny": 1}


def _spaces():
    return [
        repro.TypeSpace(repro.get_node_spec("A9"), n_max=SPACE["max_wimpy"]),
        repro.TypeSpace(repro.get_node_spec("K10"), n_max=SPACE["max_brawny"]),
    ]


def run_with_service(scenario, **config_kwargs):
    """Boot a service, run ``scenario(service, client)``, tear both down."""

    async def main():
        service = ReproService(ServeConfig(**config_kwargs))
        await service.start()
        client = _HttpClient(service.host, service.port)
        await client.connect()
        try:
            return await scenario(service, client)
        finally:
            await client.aclose()
            await service.close()

    return asyncio.run(main())


class TestRecommendEndpoint:
    def test_served_answer_bit_identical_to_offline_sweep(self, workloads):
        async def scenario(service, client):
            status, frontier = await client.request(
                "POST", "/frontier", {"workload": "EP", **SPACE}
            )
            assert status == 200
            tps = [p["tp_s"] for p in frontier["points"]]
            deadline = (min(tps) + max(tps)) / 2.0
            status, doc = await client.request(
                "POST",
                "/recommend",
                {"workload": "EP", "deadline_s": deadline, **SPACE},
            )
            assert status == 200
            return deadline, doc

        deadline, doc = run_with_service(scenario)
        rec = recommend_exhaustive(
            workloads["EP"], _spaces(), deadline_s=deadline
        )
        assert rec is not None
        assert doc["feasible"] is True
        # Bit-identical, not approximately equal: the staircase answers
        # with the exact floats the offline sweep materialises.
        assert doc["mix"] == rec.config.label()
        assert doc["operating_point"] == str(rec.config)
        assert doc["tp_s"] == rec.evaluation.tp_s
        assert doc["energy_j"] == rec.evaluation.energy_j
        assert doc["peak_power_w"] == rec.evaluation.peak_power_w
        assert doc["strategy"] == "exhaustive"

    def test_infeasible_deadline_matches_offline_none(self, workloads):
        async def scenario(service, client):
            status, doc = await client.request(
                "POST",
                "/recommend",
                {"workload": "EP", "deadline_s": 1e-9, **SPACE},
            )
            assert status == 200
            return doc

        doc = run_with_service(scenario)
        assert doc["feasible"] is False
        assert (
            recommend_exhaustive(
                repro.workload("EP"), _spaces(), deadline_s=1e-9
            )
            is None
        )

    def test_placement_and_type_noise_hit_the_same_entry(self):
        # The satellite regression: a request differing only in placement
        # keys (`workers`) and JSON numeric types (2.0 vs 2) must be a
        # cache HIT on the same digest, not a second sweep.
        async def scenario(service, client):
            base = {"workload": "EP", "deadline_s": 50.0, **SPACE}
            status, first = await client.request("POST", "/recommend", base)
            assert status == 200
            noisy = {
                "workload": "EP",
                "deadline_s": 50.0,
                "max_wimpy": float(SPACE["max_wimpy"]),
                "max_brawny": SPACE["max_brawny"],
                "workers": 8,
            }
            status, second = await client.request("POST", "/recommend", noisy)
            assert status == 200
            return first, second

        first, second = run_with_service(scenario)
        assert second["digest"] == first["digest"]
        assert second["cache_hit"] is True

    def test_unknown_parameter_is_a_400(self):
        async def scenario(service, client):
            status, doc = await client.request(
                "POST",
                "/recommend",
                {"workload": "EP", "deadline_s": 1.0, "max_wimp": 2},
            )
            return status, doc

        status, doc = run_with_service(scenario)
        assert status == 400
        assert "max_wimp" in doc["error"]

    def test_nonpositive_deadline_is_a_400(self):
        async def scenario(service, client):
            status, doc = await client.request(
                "POST", "/recommend", {"workload": "EP", "deadline_s": -1.0}
            )
            return status, doc

        status, doc = run_with_service(scenario)
        assert status == 400

    def test_budgeted_answer_matches_offline_budgeted_sweep(self, workloads):
        async def scenario(service, client):
            status, doc = await client.request(
                "POST",
                "/recommend",
                {"workload": "EP", "deadline_s": 50.0, "budget_w": 150.0, **SPACE},
            )
            assert status == 200
            return doc

        doc = run_with_service(scenario)
        rec = recommend_exhaustive(
            workloads["EP"],
            _spaces(),
            deadline_s=50.0,
            budget=repro.PowerBudget(150.0),
        )
        if rec is None:
            assert doc["feasible"] is False
        else:
            assert doc["mix"] == rec.config.label()
            assert doc["energy_j"] == rec.evaluation.energy_j

    def test_shed_when_admission_rejects_cold_work(self):
        from repro.serve.admission import AdmissionDecision

        async def scenario(service, client):
            # Force a full queue: the service asks decide() on cold digests.
            service.admission.decide = lambda depth: AdmissionDecision(
                admitted=False,
                depth=depth,
                depth_limit=0,
                service_time_estimate_s=1e-3,
            )
            status, doc = await client.request(
                "POST",
                "/recommend",
                {"workload": "EP", "deadline_s": 1.0, **SPACE},
            )
            return status, doc

        status, doc = run_with_service(scenario)
        assert status == 503
        assert doc["error"] == "shed"
        assert doc["retry_after_s"] > 0


class TestInputValidation:
    """A bad space parameter is a 400 from the validate stage: nothing
    reaches the compute lane, so no compute starts and none is cached."""

    @pytest.mark.parametrize(
        "path, bad",
        [
            ("/recommend", {"deadline_s": float("nan")}),
            ("/recommend", {"deadline_s": float("inf")}),
            ("/recommend", {"deadline_s": "50"}),
            ("/recommend", {"deadline_s": True}),
            ("/recommend", {"deadline_s": 10**400}),
            ("/recommend", {"budget_w": float("nan")}),
            ("/recommend", {"budget_w": -150.0}),
            ("/frontier", {"budget_w": float("nan")}),
            ("/frontier", {"budget_w": float("inf")}),
            ("/frontier", {"budget_w": "150"}),
            ("/frontier", {"max_wimpy": 2.5}),
            ("/frontier", {"max_wimpy": True}),
            ("/frontier", {"max_wimpy": "2"}),
            ("/frontier", {"max_brawny": 0}),
            ("/frontier", {"workload": 5}),
            ("/frontier", {"max_wimpy": 10_000}),
            ("/recommend", {"max_brawny": 10**6}),
        ],
    )
    def test_bad_space_parameter_is_a_400_without_compute(self, path, bad):
        async def scenario(service, client):
            body = {"workload": "EP", "deadline_s": 50.0, **SPACE, **bad}
            if path == "/frontier":
                body.pop("deadline_s")
            status, doc = await client.request("POST", path, body)
            return status, doc, service.cache.computes, service.batcher.computes

        status, doc, cached, started = run_with_service(scenario)
        assert status == 400
        assert next(iter(bad)) in doc["error"]
        assert cached == started == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"intervals": "2"},
            {"demand": True},
            {"seed": -1},
            {"demand": float("nan"), "trace": "constant"},
            {"interval_s": -20.0},
            {"intervals": 0},
            {"policy": "fastest"},
            {"workload": 5},
        ],
    )
    def test_bad_schedule_parameter_is_a_400_without_compute(self, bad):
        async def scenario(service, client):
            status, doc = await client.request(
                "POST", "/schedule", {"workload": "EP", "intervals": 4, **bad}
            )
            return status, doc, service.cache.computes, service.batcher.computes

        status, doc, cached, started = run_with_service(scenario)
        assert status == 400
        assert next(iter(bad)) in doc["error"]
        assert cached == started == 0

    def test_space_limit_admits_the_paper_spaces(self):
        for wimpy, brawny, n_configs in ((10, 10, 36_380), (128, 16, 740_128)):
            params = _normalize_space_params(
                {"workload": "EP", "max_wimpy": wimpy, "max_brawny": brawny,
                 "budget_w": None}
            )
            spaces = [
                repro.TypeSpace(repro.get_node_spec("A9"), n_max=params["max_wimpy"]),
                repro.TypeSpace(repro.get_node_spec("K10"), n_max=params["max_brawny"]),
            ]
            assert repro.count_configurations(spaces) == n_configs <= MAX_SPACE_CONFIGS

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
    def test_malformed_content_length_is_a_400_and_close(self, length):
        async def scenario(service, client):
            reader, writer = await asyncio.open_connection(service.host, service.port)
            writer.write(
                f"POST /recommend HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)  # until close
            writer.close()
            await writer.wait_closed()
            # The next connection is still served.
            fresh = _HttpClient(service.host, service.port)
            await fresh.connect()
            try:
                return raw, await fresh.request("GET", "/healthz")
            finally:
                await fresh.aclose()

        raw, (status, health) = run_with_service(scenario)
        head = raw.decode("latin-1")
        assert head.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in head
        assert status == 200 and health["status"] == "ok"


class TestSpacePayload:
    def test_footnote4_payload_holds_only_step_sized_arrays(self):
        payload = _build_space_payload(
            {"workload": "EP", "max_wimpy": 10, "max_brawny": 10, "budget_w": None}
        )
        n_steps = payload.staircase.step_idx.size
        assert payload.n_configs == payload.staircase.n_feasible == 36_380

        def arrays_in(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays_in(getattr(obj, f.name))
            elif isinstance(obj, dict):
                for value in obj.values():
                    yield from arrays_in(value)
            elif isinstance(obj, (list, tuple)):
                for value in obj:
                    yield from arrays_in(value)

        assert max(a.size for a in arrays_in(payload)) == n_steps
        # Every index best_index can return has its rendered answer.
        assert set(payload.answers) == set(payload.staircase.step_idx.tolist())
        assert len(pickle.dumps(payload)) < 16_384  # a few KB, not MB


class TestServicePlumbing:
    def test_healthz_stats_and_metrics(self):
        async def scenario(service, client):
            health = await client.request("GET", "/healthz")
            await client.request(
                "POST", "/frontier", {"workload": "EP", **SPACE}
            )
            stats = await client.request("GET", "/stats")
            metrics = await client.request("GET", "/metrics")
            return health, stats, metrics

        health, stats, metrics = run_with_service(scenario)
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert stats[0] == 200
        assert {"service", "cache", "admission", "batching"} <= set(stats[1])
        assert stats[1]["cache"]["entries"] >= 1.0
        assert metrics[0] == 200

    def test_unknown_route_is_a_404(self):
        async def scenario(service, client):
            return await client.request("GET", "/nope")

        status, _doc = run_with_service(scenario)
        assert status == 404

    def test_precompute_warms_the_cache(self):
        async def scenario(service, client):
            return service.cache.keys()

        # Precompute uses the service's default space, not SPACE.
        keys = run_with_service(scenario, precompute=("EP",))
        assert len(keys) == 1

    def test_max_requests_stops_the_service(self):
        async def scenario(service, client):
            await client.request("GET", "/healthz")
            await client.request("GET", "/healthz")
            await asyncio.wait_for(service.run_until_stopped(), timeout=5.0)
            return service.stats_counters.total

        total = run_with_service(scenario, max_requests=2)
        assert total == 2

    def test_schedule_endpoint_caches_replays(self):
        async def scenario(service, client):
            body = {"workload": "EP", "intervals": 4, "demand": 0.4}
            status, first = await client.request("POST", "/schedule", body)
            assert status == 200
            status, second = await client.request("POST", "/schedule", body)
            assert status == 200
            return first, second

        first, second = run_with_service(scenario)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["digest"] == first["digest"]
        assert "scalars" in second
        assert "telemetry" not in second  # serving response, not the firehose

    def test_summary_scalars_shape(self):
        async def scenario(service, client):
            await client.request(
                "POST", "/frontier", {"workload": "EP", **SPACE}
            )
            return service.summary_scalars()

        scalars = run_with_service(scenario)
        assert scalars["requests_total"] == 1.0
        assert scalars["cache_misses"] == 1.0
