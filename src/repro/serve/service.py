"""The always-on recommendation service: asyncio HTTP, stdlib only.

``repro recommend`` pays a full process start, workload calibration and
configuration-space sweep per question.  :class:`ReproService` keeps all
of that warm in one long-lived process and answers over HTTP/1.1
(hand-rolled on ``asyncio.start_server`` — no new runtime deps):

``POST /recommend``
    ``{"workload", "deadline_s", "max_wimpy", "max_brawny", "budget_w"}``
    → the minimum-energy configuration meeting the deadline.  Answers are
    bit-identical to an offline
    :func:`repro.cluster.search.recommend_exhaustive` for the same
    configuration digest: the cached
    :class:`~repro.model.batched.DeadlineStaircase` reproduces the
    exhaustive comparator exactly (``tests/model/test_multiquery.py``),
    and each of its steps' answers is rendered at build time from the
    exact floats of the space arrays, which are then dropped.
``POST /frontier``
    The energy-deadline Pareto frontier of the same space (budget-masked
    when a budget is given), via :func:`repro.cluster.pareto.pareto_indices`
    over the staircase's steps.
``POST /schedule``
    One autoscaled-day replay
    (:func:`repro.experiments.scheduling.replay_day`), summary only.
``GET /healthz`` / ``/stats`` / ``/metrics``
    Liveness, the service counters, and the Prometheus rendering of the
    process metrics registry.

Request flow: a ``recommend``/``frontier`` request validates its space
parameters (a bad one is a 400 before any compute) and digests them
(:func:`repro.serve.cache.request_digest`), and a warm digest is answered
inline — a staircase lookup and a rendered fragment on the event loop,
never queued, never shed.  A cold digest first passes admission control
(:class:`repro.serve.admission.AdmissionController`, threshold derived
from our own M/D/1 p95 model; HTTP 503 when the compute queue is too
deep), then runs as one call on the compute lane
(:class:`repro.serve.batching.MicroBatcher`) under the cache's
single-flight guard, so each distinct digest is computed at most once
no matter how many requests ask for it concurrently.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from time import perf_counter
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.obs.request import (
    DEFAULT_BURN_THRESHOLD,
    DEFAULT_FAST_WINDOW_S,
    DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SLOW_WINDOW_S,
    REQUEST_ID_HEADER,
    RequestContext,
    RequestRecorder,
    classify_outcome,
)
from repro.obs.tracing import span
from repro.serve.admission import AdmissionController
from repro.serve.batching import BatchTimeout, MicroBatcher
from repro.serve.cache import DEFAULT_CAPACITY, FrontierCache, request_digest

__all__ = [
    "DEFAULT_SLO_P95_S",
    "ReproService",
    "ServeConfig",
    "ServeStats",
]

#: Default p95 response-time SLO the admission threshold is derived from.
DEFAULT_SLO_P95_S = 0.25

#: Default per-request compute timeout (cold sweeps included).
DEFAULT_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Space-parameter schema shared by /recommend and /frontier: defaults
#: mirror the small offline search the tests pin bit-identity against.
_SPACE_DEFAULTS: Dict[str, object] = {
    "max_wimpy": 6,
    "max_brawny": 3,
    "budget_w": None,
}

#: Largest configuration space a /recommend or /frontier request may ask
#: for.  It admits the paper's largest clusters (128 A9 + 16 K10 is
#: 740,128 configurations) while one request cannot make the single
#: compute lane evaluate tens of millions.
MAX_SPACE_CONFIGS = 1_000_000

_SCHEDULE_DEFAULTS: Dict[str, object] = {
    "workload": "EP",
    "policy": "ppr-greedy",
    "trace": "diurnal",
    "seed": None,
    "intervals": 24,
    "interval_s": 20.0,
    "demand": 0.5,
}


@dataclass(frozen=True)
class ServeConfig:
    """Immutable service configuration (one per :class:`ReproService`)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from :attr:`ReproService.port`.
    port: int = 0
    cache_capacity: int = DEFAULT_CAPACITY
    slo_p95_s: float = DEFAULT_SLO_P95_S
    #: Compute timeout per request (queued + evaluated).
    request_timeout_s: float = DEFAULT_TIMEOUT_S
    #: Workload names whose default spaces are swept at startup, so the
    #: first real request hits a warm cache.
    precompute: Tuple[str, ...] = ()
    #: Stop serving after this many requests (None: run until stopped);
    #: the CI smoke job uses this for a bounded run.
    max_requests: Optional[int] = None
    #: Per-request tracing master switch: False skips stage recording,
    #: tail sampling and the flight ring entirely (the overhead-baseline
    #: arm of ``bench_serve``); burn-rate accounting and the request-id
    #: echo stay on either way.
    request_tracing: bool = True
    #: Routine-traffic trace sampling rate (errors, sheds and the p99
    #: tail are always kept); 1.0 traces everything (tests), 0.0 keeps
    #: only the always-keep classes.
    trace_sample: float = DEFAULT_SAMPLE_RATE
    #: Flight-ring capacity (fully-traced requests retained for dumps).
    flight_capacity: int = DEFAULT_FLIGHT_CAPACITY
    #: Flight-dump directory (None: $REPRO_FLIGHT_DIR or ``.repro/flight``).
    flight_dir: Optional[str] = None
    #: Multi-window burn-rate alerting parameters against ``slo_p95_s``.
    burn_fast_window_s: float = DEFAULT_FAST_WINDOW_S
    burn_slow_window_s: float = DEFAULT_SLOW_WINDOW_S
    burn_threshold: float = DEFAULT_BURN_THRESHOLD


@dataclass
class ServeStats:
    """Mutable per-service request counters (endpoint and status)."""

    requests: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    started: float = 0.0

    @property
    def total(self) -> int:
        """Requests routed since start (any endpoint, any outcome)."""
        return sum(self.requests.values())

    def count(self, endpoint: str, status: int) -> None:
        """Record one routed request and its response status."""
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
        key = str(status)
        self.statuses[key] = self.statuses.get(key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot for the ``/stats`` endpoint."""
        return {
            "uptime_s": perf_counter() - self.started if self.started else 0.0,
            "total": self.total,
            "requests": dict(self.requests),
            "statuses": dict(self.statuses),
        }


@dataclass(frozen=True, eq=False)
class _SpacePayload:
    """One cached configuration space: staircase, frontier, rendered answers.

    Everything a later request against this digest can ask for is rendered
    at build time from the space arrays, which are then dropped: an entry
    holds a few KB, not the full-space arrays.
    """

    n_configs: int
    staircase: Any  # DeadlineStaircase (budget-masked when a budget applies)
    #: The answer fragment of every staircase step, keyed by its
    #: configuration index — every index ``best_index`` can return.
    answers: Dict[int, Dict[str, object]]
    frontier: Tuple[Dict[str, object], ...]
    build_s: float


def _non_config_keys() -> frozenset:
    from repro.cli import _NON_CONFIG_KEYS

    return _NON_CONFIG_KEYS


def _validated_params(
    body: Mapping[str, object], defaults: Mapping[str, object], required: Sequence[str]
) -> Dict[str, object]:
    """Merge a request body over endpoint defaults.

    Placement-only keys (:data:`repro.cli._NON_CONFIG_KEYS` — ``workers``
    and friends) are tolerated and DROPPED, so they can neither fragment
    the cache nor change the answer; any other unknown key is a 400-class
    error (a typo must not silently create a divergent cache entry).
    """
    params = dict(defaults)
    skip = _non_config_keys()
    for key, value in body.items():
        if key in skip:
            continue
        if key not in defaults and key not in required:
            raise ReproError(
                f"unknown request parameter {key!r}; "
                f"expected {sorted((*defaults, *required))}"
            )
        params[key] = value
    for key in required:
        if key not in params or params[key] is None:
            raise ReproError(f"missing required request parameter {key!r}")
    return params


def _positive_number(key: str, value: object) -> float:
    """A finite, positive JSON number; bools and strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if 0.0 < number < math.inf:  # NaN fails both comparisons
            return number
    raise ReproError(f"{key} must be a positive finite number, got {value!r}")


def _positive_count(key: str, value: object) -> int:
    """A positive integral JSON number: ``2`` or ``2.0``, not ``2.5``."""
    number = _positive_number(key, value)
    if not number.is_integer():
        raise ReproError(f"{key} must be a positive integer, got {value!r}")
    return int(number)


@lru_cache(maxsize=None)
def _choices_per_node(node: str) -> int:
    """(cores, frequency) choices per node of one type, from its spec."""
    import repro

    spec = repro.get_node_spec(node)
    return spec.cores * len(spec.frequencies_hz)


def _normalize_space_params(params: Dict[str, object]) -> Dict[str, object]:
    """Validate and canonicalise space-parameter types before digesting.

    JSON clients may send ``6`` or ``6.0``; the config digest serialises
    values literally, so types must be pinned or equal requests would
    fragment the cache.  Values that only coerce to a parameter (``true``,
    ``"6"``, ``2.5``, ``NaN``) are rejected instead, here in the validate
    stage, so a bad request costs no admission slot and no sweep.  So is a
    space larger than :data:`MAX_SPACE_CONFIGS`, counted as
    :func:`repro.cluster.configuration.count_configurations` counts.
    """
    if not isinstance(params["workload"], str):
        raise ReproError(f"workload must be a string, got {params['workload']!r}")
    wimpy = params["max_wimpy"] = _positive_count("max_wimpy", params["max_wimpy"])
    brawny = params["max_brawny"] = _positive_count("max_brawny", params["max_brawny"])
    n_configs = (_choices_per_node("A9") * wimpy + 1) * (
        _choices_per_node("K10") * brawny + 1
    ) - 1
    if n_configs > MAX_SPACE_CONFIGS:
        raise ReproError(
            f"max_wimpy={wimpy}, max_brawny={brawny} spans {n_configs} "
            f"configurations; the limit is {MAX_SPACE_CONFIGS}"
        )
    if params["budget_w"] is not None:
        params["budget_w"] = _positive_number("budget_w", params["budget_w"])
    return params


def _check_name(key: str, value: object, names: Sequence[str]) -> None:
    if not isinstance(value, str) or value not in names:
        raise ReproError(f"{key} must be one of {list(names)}, got {value!r}")


def _normalize_schedule_params(params: Dict[str, object]) -> Dict[str, object]:
    """Validate and canonicalise schedule-replay parameters before digesting.

    As for the space parameters, a value that only coerces (``"2"``,
    ``true``) or that the replay would reject is a 400 here, in the
    validate stage, before admission and compute.
    """
    from repro.experiments.scheduling import STUDY_WORKLOADS
    from repro.scheduler.policies import POLICY_NAMES

    _check_name("workload", params["workload"], STUDY_WORKLOADS)
    _check_name("policy", params["policy"], POLICY_NAMES)
    _check_name("trace", params["trace"], ("diurnal", "constant"))
    seed = params["seed"]
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise ReproError(f"seed must be null or a non-negative integer, got {seed!r}")
    params["intervals"] = _positive_count("intervals", params["intervals"])
    params["interval_s"] = _positive_number("interval_s", params["interval_s"])
    params["demand"] = _positive_number("demand", params["demand"])
    if params["trace"] == "constant" and params["demand"] > 1.0:
        raise ReproError(f"demand must be in (0, 1], got {params['demand']!r}")
    return params


def _build_space_payload(params: Mapping[str, object]) -> _SpacePayload:
    """Evaluate one space and render every answer it can give.

    Runs on the compute lane's worker thread: ONE vectorized
    :func:`evaluate_space_arrays` pass over the whole configuration
    space, one staircase build (one sort), then work on its few steps
    only — their answer fragments and their Pareto frontier.  The space
    arrays are not kept.
    """
    import repro
    from repro.cluster.pareto import pareto_indices
    from repro.model.batched import deadline_staircase, evaluate_space_arrays

    t0 = perf_counter()
    workload = repro.workload(str(params["workload"]))
    spaces = [
        repro.TypeSpace(repro.get_node_spec("A9"), n_max=int(params["max_wimpy"])),
        repro.TypeSpace(repro.get_node_spec("K10"), n_max=int(params["max_brawny"])),
    ]
    with span("serve.build_space", workload=workload.name):
        arrays = evaluate_space_arrays(workload, spaces)
        budget_w = params.get("budget_w")
        mask = None
        if budget_w is not None:
            mask = repro.PowerBudget(float(budget_w)).fits_mask(
                arrays.nameplate_w,
                arrays.counts.get("A9", np.zeros(arrays.n_configs, dtype=np.int64)),
            )
        staircase = deadline_staircase(arrays, mask)
        steps = staircase.step_idx
        answers: Dict[int, Dict[str, object]] = {}
        for idx in steps.tolist():
            config = arrays.config_at(idx)
            answers[idx] = {
                "mix": config.label(),
                "operating_point": str(config),
                "tp_s": float(arrays.tp_s[idx]),
                "energy_j": float(arrays.energy_j[idx]),
                "peak_power_w": float(arrays.peak_power_w[idx]),
            }
        # Every frontier point is a step, so the steps' frontier is the
        # frontier of the whole (budget-masked) space.
        keep = steps[pareto_indices(arrays.tp_s[steps], arrays.energy_j[steps])]
    return _SpacePayload(
        n_configs=arrays.n_configs,
        staircase=staircase,
        answers=answers,
        frontier=tuple(answers[idx] for idx in keep.tolist()),
        build_s=perf_counter() - t0,
    )


def _run_schedule(params: Mapping[str, object]) -> Dict[str, object]:
    """One autoscaled-day replay as a compact JSON document.

    The full per-interval telemetry stream is dropped (this is a serving
    response, not an export — ``repro schedule --json`` remains the
    firehose); everything else matches ``schedule_result_json``.
    """
    from repro.experiments.scheduling import (
        replay_day,
        replay_scalars,
        schedule_result_json,
    )
    from repro.util.rng import DEFAULT_SEED

    seed = params["seed"]
    seed = DEFAULT_SEED if seed is None else int(seed)
    result, oracle = replay_day(
        str(params["workload"]),
        str(params["policy"]),
        trace_kind=str(params["trace"]),
        seed=seed,
        n_intervals=int(params["intervals"]),
        interval_s=float(params["interval_s"]),
        demand=float(params["demand"]),
    )
    doc = schedule_result_json(result, oracle, seed=seed)
    doc.pop("telemetry", None)
    doc.pop("node_stats", None)
    doc["scalars"] = replay_scalars(result, oracle)
    return doc


class ReproService:
    """The asyncio HTTP service tying cache, compute lane and admission together.

    Lifecycle::

        service = ReproService(ServeConfig(precompute=("EP",)))
        await service.start()          # precompute + listener
        ...                            # service.port is now bound
        await service.run_until_stopped(duration_s=60)
        await service.close()
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache = FrontierCache(self.config.cache_capacity)
        self.admission = AdmissionController(self.config.slo_p95_s)
        self.batcher = MicroBatcher(observe=self.admission.observe)
        self.stats_counters = ServeStats()
        self.recorder = RequestRecorder(
            slo_p95_s=self.config.slo_p95_s,
            sample_rate=self.config.trace_sample,
            enabled=self.config.request_tracing,
            flight_capacity=self.config.flight_capacity,
            flight_dir=self.config.flight_dir,
            fast_window_s=self.config.burn_fast_window_s,
            slow_window_s=self.config.burn_slow_window_s,
            burn_threshold=self.config.burn_threshold,
            state_provider=self.stats,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Warm the precompute set, bind the listener."""
        if self._server is not None:
            raise ReproError("service already started")
        self._stop_event = asyncio.Event()
        for name in self.config.precompute:
            params = dict(_SPACE_DEFAULTS)
            params["workload"] = name
            await self.cache.get_or_compute(
                request_digest(params),
                params,
                lambda p=params: self._compute_entry(_build_space_payload, p),
            )
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.stats_counters.started = perf_counter()

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral port 0)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("service is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self.config.host

    def request_stop(self) -> None:
        """Ask :meth:`run_until_stopped` to return (loop-thread only)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def run_until_stopped(self, duration_s: Optional[float] = None) -> None:
        """Serve until :meth:`request_stop`, ``max_requests``, or a timeout."""
        if self._stop_event is None:
            raise ReproError("service is not started")
        if duration_s is None:
            await self._stop_event.wait()
            return
        try:
            await asyncio.wait_for(self._stop_event.wait(), timeout=duration_s)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        """Stop listening and fail every compute that has not started.

        Dumps the flight ring first when a burn alert is still active —
        the operator stopping a misbehaving service is exactly when the
        post-mortem must not be lost.
        """
        self.recorder.on_shutdown()
        self.batcher.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stop_event is not None:
            self._stop_event.set()

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The full service state document (the ``/stats`` body)."""
        return {
            "service": self.stats_counters.to_dict(),
            "cache": self.cache.stats(),
            "admission": self.admission.stats(),
            "batching": self.batcher.stats(),
            "slo": self.recorder.slo_stats(),
            "tracing": self.recorder.tracing_stats(),
        }

    def summary_scalars(self) -> Dict[str, float]:
        """Flat scalars for the one ``cli/serve`` shutdown ledger record."""
        cache = self.cache.stats()
        admission = self.admission.stats()
        return {
            "requests_total": float(self.stats_counters.total),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_hit_fraction": cache["hit_fraction"],
            "cache_evictions": cache["evictions"],
            "shed": admission["shed"],
            "admission_depth_limit": admission["depth_limit"],
            "computes": float(self.batcher.computes),
            **self.recorder.summary_scalars(),
        }

    # -- compute path ------------------------------------------------------
    async def _compute_entry(
        self,
        compute: Callable[[Mapping[str, object]], Any],
        params: Mapping[str, object],
        ctx: Optional[RequestContext] = None,
    ) -> Any:
        """Run ``compute(params)`` on the compute lane for one cold digest.

        The lane stamps the leader request's ``batch.queue`` and
        ``batch.compute`` stages (nested under its open ``cache`` stage)
        and feeds the compute's wall time to admission control.
        """
        return await self.batcher.submit(
            partial(compute, dict(params)),
            timeout_s=self.config.request_timeout_s,
            ctx=ctx,
        )

    def _admit_or_shed(self, params: Mapping[str, object], ctx: RequestContext) -> str:
        """Digest one request's parameters and run the admission check on
        the digest, both inside the trace's ``admission`` stage; returns
        the digest."""
        with ctx.stage("admission") as st:
            digest = ctx.digest = request_digest(params)
            if digest in self.cache:
                ctx.admitted = True
                st.set(resident=True, admitted=True)
                return digest
            decision = self.admission.decide(self.batcher.depth)
            ctx.admitted = decision.admitted
            st.set(
                resident=False,
                admitted=decision.admitted,
                depth=decision.depth,
                depth_limit=decision.depth_limit,
            )
            if not decision.admitted:
                raise _Shed(digest)
        return digest

    async def _space_entry(self, params: Dict[str, object], ctx: RequestContext):
        """The cached space entry for one request, with admission on misses.

        Returns ``(entry, was_hit)``; raises ``_Shed`` when admission
        rejects a cold compute.
        """
        digest = self._admit_or_shed(params, ctx)
        with ctx.stage("cache") as st:
            entry, was_hit = await self.cache.get_or_compute(
                digest,
                params,
                lambda: self._compute_entry(_build_space_payload, params, ctx),
                ctx=ctx,
            )
            st.set(hit=was_hit)
        ctx.cache_hit = was_hit
        return digest, (entry, was_hit)

    # -- endpoint handlers -------------------------------------------------
    async def _handle_recommend(
        self, body: Mapping[str, object], ctx: RequestContext
    ) -> Dict[str, object]:
        with ctx.stage("validate"):
            params = _validated_params(
                body, _SPACE_DEFAULTS, ("workload", "deadline_s")
            )
            deadline_s = _positive_number("deadline_s", params.pop("deadline_s"))
            params = _normalize_space_params(params)
        digest, (entry, was_hit) = await self._space_entry(params, ctx)
        payload: _SpacePayload = entry.payload
        with ctx.stage("lookup"):
            idx = payload.staircase.best_index(deadline_s)
            doc: Dict[str, object] = {
                "endpoint": "recommend",
                "workload": params["workload"],
                "deadline_s": deadline_s,
                "digest": digest,
                "cache_hit": was_hit,
                "evaluated_configs": payload.n_configs,
                "strategy": "exhaustive",
                "feasible": idx >= 0,
            }
            if idx >= 0:
                doc.update(payload.answers[idx])
        return doc

    async def _handle_frontier(
        self, body: Mapping[str, object], ctx: RequestContext
    ) -> Dict[str, object]:
        with ctx.stage("validate"):
            params = _normalize_space_params(
                _validated_params(body, _SPACE_DEFAULTS, ("workload",))
            )
        digest, (entry, was_hit) = await self._space_entry(params, ctx)
        payload: _SpacePayload = entry.payload
        with ctx.stage("lookup"):
            doc = {
                "endpoint": "frontier",
                "workload": params["workload"],
                "digest": digest,
                "cache_hit": was_hit,
                "evaluated_configs": payload.n_configs,
                "points": list(payload.frontier),
            }
        return doc

    async def _handle_schedule(
        self, body: Mapping[str, object], ctx: RequestContext
    ) -> Dict[str, object]:
        with ctx.stage("validate"):
            params = _normalize_schedule_params(
                _validated_params(body, _SCHEDULE_DEFAULTS, ())
            )
        digest = self._admit_or_shed(params, ctx)
        with ctx.stage("cache") as st:
            entry, was_hit = await self.cache.get_or_compute(
                digest,
                params,
                lambda: self._compute_entry(_run_schedule, params, ctx),
                ctx=ctx,
            )
            st.set(hit=was_hit)
        ctx.cache_hit = was_hit
        with ctx.stage("lookup"):
            doc = dict(entry.payload)
            doc.update(endpoint="schedule", digest=digest, cache_hit=was_hit)
        return doc

    # -- HTTP plumbing -----------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes, ctx: RequestContext
    ) -> Tuple[int, str, bytes]:
        """Dispatch one parsed request; returns (status, content-type, body)."""
        if method == "GET":
            if path == "/healthz":
                return 200, "application/json", _json_bytes(
                    {"status": "ok", "requests": self.stats_counters.total}
                )
            if path == "/stats":
                return 200, "application/json", _json_bytes(self.stats())
            if path == "/metrics":
                return 200, "text/plain; version=0.0.4", get_registry().to_prometheus().encode("utf-8")
            return 404, "application/json", _json_bytes({"error": f"no such path {path}"})
        if method != "POST":
            return 405, "application/json", _json_bytes({"error": f"method {method} not allowed"})
        handler = {
            "/recommend": self._handle_recommend,
            "/frontier": self._handle_frontier,
            "/schedule": self._handle_schedule,
        }.get(path)
        if handler is None:
            return 404, "application/json", _json_bytes({"error": f"no such path {path}"})
        try:
            with ctx.stage("parse"):
                parsed = json.loads(body.decode("utf-8")) if body else {}
                if not isinstance(parsed, dict):
                    raise ReproError("request body must be a JSON object")
            doc = await handler(parsed, ctx)
            with ctx.stage("render"):
                payload = _json_bytes(doc)
            return 200, "application/json", payload
        except _Shed as shed:
            limit = self.admission.limit
            return 503, "application/json", _json_bytes(
                {
                    "error": "shed",
                    "digest": shed.digest,
                    "depth": self.batcher.depth,
                    "depth_limit": limit.depth,
                    "retry_after_s": limit.service_time_s,
                }
            )
        except BatchTimeout as exc:
            return 504, "application/json", _json_bytes({"error": str(exc)})
        except (ReproError, ValueError, TypeError, json.JSONDecodeError) as exc:
            return 400, "application/json", _json_bytes({"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - the connection must survive
            return 500, "application/json", _json_bytes(
                {"error": f"{type(exc).__name__}: {exc}"}
            )

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive HTTP/1.1 connection: parse, route, respond, repeat."""
        registry = get_registry()
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await _respond(writer, 400, "application/json",
                                   _json_bytes({"error": "malformed request line"}),
                                   close=True)
                    break
                method, target, _version = parts
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                raw_length = headers.get("content-length") or "0"
                if not raw_length.isdecimal():  # latin-1: ASCII digits only
                    await _respond(writer, 400, "application/json",
                                   _json_bytes({"error": f"malformed Content-Length {raw_length!r}"}),
                                   close=True)
                    break
                length = int(raw_length)
                body = await reader.readexactly(length) if length else b""
                path = target.split("?", 1)[0]
                ctx = self.recorder.start_request(
                    path, request_id=headers.get(REQUEST_ID_HEADER)
                )
                t0 = perf_counter()
                status, ctype, payload = await self._route(method, path, body, ctx)
                latency = perf_counter() - t0
                self.stats_counters.count(path, status)
                if registry.enabled:
                    registry.counter(
                        "repro_serve_requests_total",
                        help="HTTP requests routed by the serve endpoint",
                    ).inc()
                    registry.histogram(
                        "repro_serve_request_latency_s",
                        buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
                        labels={
                            "endpoint": path,
                            "outcome": classify_outcome(status),
                        },
                        help="Server-side request latency (route to response)",
                    ).observe(latency)
                self.recorder.finish_request(ctx, status, latency)
                close = headers.get("connection", "").lower() == "close"
                await _respond(
                    writer,
                    status,
                    ctype,
                    payload,
                    close=close,
                    request_id=ctx.request_id,
                )
                if self.config.max_requests is not None and (
                    self.stats_counters.total >= self.config.max_requests
                ):
                    self.request_stop()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Service shutdown while parked on an idle keep-alive
            # connection; ending the handler quietly is the clean exit.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


class _Shed(Exception):
    """Internal control flow: the request was rejected by admission."""

    def __init__(self, digest: str) -> None:
        super().__init__(digest)
        self.digest = digest


def _json_bytes(doc: Mapping[str, object]) -> bytes:
    return json.dumps(doc).encode("utf-8")


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    ctype: str,
    body: bytes,
    *,
    close: bool = False,
    request_id: Optional[str] = None,
) -> None:
    request_id_line = (
        f"X-Repro-Request-Id: {request_id}\r\n" if request_id else ""
    )
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{request_id_line}"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
