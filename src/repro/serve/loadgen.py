"""Closed/open-loop load generator for the serve endpoint.

The serving claim ("batched serving sustains the reference load inside
the p95 SLO, answering exactly what the offline sweep would") needs a
driver that measures the service the way the paper's M/D/1 analysis
measures a cluster: arrivals with a controlled process, client-side
response-time percentiles, sheds counted separately from completions.

Two modes:

* **closed** — ``clients`` concurrent workers, each holding one
  keep-alive connection and firing its next request the moment the
  previous answer lands (think-time zero).  Throughput is
  demand-limited; this is the mode the benchmark and the serving-SLO
  monitor use because it is robust to machine speed.
* **open** — request due times drawn from a
  :mod:`repro.queueing.processes` arrival process (``poisson``,
  ``mmpp``, ``flash-crowd``, ``diurnal``) at a target rate, dispatched
  regardless of completions — the mode that can actually overload the
  service and exercise admission control.  Latency runs from each
  request's *due* time, so a backlog (requests waiting for a free
  connection or queued in the server) is counted, not hidden; the
  generator's own lateness against its schedule is reported beside it.

The query plan is seeded (``RngRegistry(seed).stream("serve/loadgen")``)
and replayable: a priming pass fetches each workload's frontier (cold
sweeps, excluded from the measured window), then deadlines are drawn
log-uniform across each frontier's execution-time range so queries span
infeasible through trivially-feasible.

Results land in a ``repro-serve/1`` envelope
(:func:`loadgen_envelope`) which the CLI records to the run ledger as an
``experiment/serve-loadgen`` record, mirroring the robustness command.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.util.rng import DEFAULT_SEED, RngRegistry

__all__ = [
    "LOADGEN_SCHEMA",
    "LoadgenResult",
    "loadgen_envelope",
    "run_loadgen",
    "selfhosted_loadgen",
]

#: Version tag of the load-generator result envelope.
LOADGEN_SCHEMA = "repro-serve/1"

#: Deadline draw range relative to a workload's frontier execution times:
#: log-uniform over [lo_mult * tp_min, hi_mult * tp_max], so some draws are
#: infeasible (below tp_min) and some trivially feasible.
_DEADLINE_LO_MULT = 0.5
_DEADLINE_HI_MULT = 2.0


@dataclass(frozen=True)
class LoadgenResult:
    """One load-generation run's client-side measurements."""

    mode: str
    attempted: int
    completed: int
    shed: int
    errors: int
    infeasible: int
    wall_s: float
    latencies_s: Tuple[float, ...]
    statuses: Mapping[str, int]
    seed: int
    #: The service's final ``/stats`` document (None when unreachable).
    server_stats: Optional[Mapping[str, object]] = None
    #: ``(request_body, response_doc)`` pairs for completed requests, kept
    #: only when ``collect_responses=True`` (the serving-SLO monitor's
    #: bit-identity audit); empty otherwise.
    responses: Tuple[Tuple[Mapping[str, object], Mapping[str, object]], ...] = ()
    #: Per-request ``(request_id, status, latency_s)`` records, every
    #: outcome included (status 0: transport error) — the client-side
    #: half of a flight-recorder join.
    request_records: Tuple[Tuple[str, int, float], ...] = ()
    #: Responses whose ``X-Repro-Request-Id`` echo matched the id sent.
    id_echoes: int = 0
    #: Open loop only: how late the generator issued each request after
    #: its due time.  Large values mean the latencies describe the
    #: generator, not the service.
    lateness_s: Tuple[float, ...] = ()

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the measured window."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile_s(self, q: float) -> float:
        """Client-side latency percentile over completed requests."""
        if not self.latencies_s:
            return math.nan
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def p50_s(self) -> float:
        """Median client-side latency."""
        return self.latency_percentile_s(50.0)

    @property
    def p95_s(self) -> float:
        """95th-percentile client-side latency (the SLO quantity)."""
        return self.latency_percentile_s(95.0)

    @property
    def p99_s(self) -> float:
        """99th-percentile client-side latency."""
        return self.latency_percentile_s(99.0)

    @property
    def lateness_p99_s(self) -> float:
        """99th-percentile generator lateness (NaN in closed mode)."""
        if not self.lateness_s:
            return math.nan
        return float(np.percentile(np.asarray(self.lateness_s), 99.0))

    @property
    def mean_s(self) -> float:
        """Mean client-side latency over completed requests."""
        if not self.latencies_s:
            return math.nan
        return float(np.mean(np.asarray(self.latencies_s)))


def loadgen_scalars(result: LoadgenResult) -> Dict[str, float]:
    """Flat ledger scalars of one load-generation run."""
    return {
        "attempted": float(result.attempted),
        "completed": float(result.completed),
        "shed": float(result.shed),
        "errors": float(result.errors),
        "throughput_rps": result.throughput_rps,
        "p50_latency_s": result.p50_s,
        "p95_latency_s": result.p95_s,
        "p99_latency_s": result.p99_s,
    }


def _request_id_section(result: LoadgenResult) -> Dict[str, object]:
    """The envelope's flight-recorder join keys: ids of the interesting
    requests (sheds, errors, the slowest completions), bounded so a
    10^5-request run cannot bloat the ledger record."""
    records = result.request_records
    answered = [r for r in records if r[1] > 0]
    slowest = sorted(
        (r for r in records if r[1] == 200), key=lambda r: -r[2]
    )[:5]
    return {
        "echoed_fraction": (
            result.id_echoes / len(answered) if answered else 0.0
        ),
        "shed": [r[0] for r in records if r[1] == 503][:32],
        "errors": [r[0] for r in records if r[1] not in (200, 503)][:32],
        "slowest": [
            {"request_id": r[0], "status": r[1], "latency_s": r[2]}
            for r in slowest
        ],
    }


def loadgen_envelope(
    result: LoadgenResult, params: Mapping[str, object]
) -> Dict[str, object]:
    """The ``repro-serve/1`` result envelope around one run."""
    return {
        "schema": LOADGEN_SCHEMA,
        "mode": result.mode,
        "params": dict(params),
        "seed": result.seed,
        "requests": {
            "attempted": result.attempted,
            "completed": result.completed,
            "shed": result.shed,
            "errors": result.errors,
            "infeasible": result.infeasible,
        },
        "latency_s": {
            "p50": result.p50_s,
            "p95": result.p95_s,
            "p99": result.p99_s,
            "mean": result.mean_s,
        },
        "throughput_rps": result.throughput_rps,
        "wall_s": result.wall_s,
        "lateness_p99_s": result.lateness_p99_s if result.lateness_s else None,
        "statuses": dict(result.statuses),
        "request_ids": _request_id_section(result),
        "server": dict(result.server_stats) if result.server_stats else None,
    }


class _HttpClient:
    """A minimal keep-alive HTTP/1.1 client over asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Response headers of the most recent request (lower-cased keys) —
        #: how callers read the server's ``X-Repro-Request-Id`` echo.
        self.last_headers: Dict[str, str] = {}

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        doc: Optional[Mapping[str, object]] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """One request/response round trip; reconnects a dropped connection."""
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = json.dumps(doc).encode("utf-8") if doc is not None else b""
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2:
            raise ReproError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        resp_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            resp_headers[key.strip().lower()] = value.strip()
        self.last_headers = resp_headers
        length = int(resp_headers.get("content-length", "0") or "0")
        payload = await self._reader.readexactly(length) if length else b""
        ctype = resp_headers.get("content-type", "")
        if payload and ctype.startswith("application/json"):
            return status, json.loads(payload.decode("utf-8"))
        return status, {"raw": payload.decode("utf-8", "replace")}


@dataclass
class _Tally:
    """Mutable request-outcome accumulator shared by all workers."""

    completed: int = 0
    shed: int = 0
    errors: int = 0
    infeasible: int = 0
    id_echoes: int = 0
    keep_responses: bool = False
    latencies: List[float] = None  # type: ignore[assignment]
    statuses: Dict[str, int] = None  # type: ignore[assignment]
    responses: List[Tuple[Mapping[str, object], Mapping[str, object]]] = None  # type: ignore[assignment]
    records: List[Tuple[str, int, float]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.latencies = []
        self.statuses = {}
        self.responses = []
        self.records = []

    def record(
        self,
        status: int,
        body: Mapping[str, object],
        doc: Mapping[str, object],
        latency_s: float,
        *,
        request_id: str = "",
        echoed: bool = False,
    ) -> None:
        self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
        self.records.append((request_id, status, latency_s))
        if echoed:
            self.id_echoes += 1
        if status == 200:
            self.completed += 1
            self.latencies.append(latency_s)
            if doc.get("feasible") is False:
                self.infeasible += 1
            if self.keep_responses:
                self.responses.append((dict(body), doc))
        elif status == 503:
            self.shed += 1
        else:
            self.errors += 1

    def error(self, request_id: str = "", latency_s: float = 0.0) -> None:
        self.errors += 1
        self.records.append((request_id, 0, latency_s))


def _build_plan(
    rng: np.random.Generator,
    n: int,
    workloads: Sequence[str],
    tp_ranges: Mapping[str, Tuple[float, float]],
    space: Mapping[str, object],
    cold_fraction: float = 0.0,
) -> List[Dict[str, object]]:
    """The seeded query plan: one /recommend body per request.

    ``cold_fraction`` is the overload injector: that fraction of requests
    gets a unique (non-binding, enormous) ``budget_w``, so each carries a
    digest the cache has never seen and forces a full cold sweep — the
    only way warmed traffic can be driven past the admission limit.  The
    extra draws happen *after* the base plan, so ``cold_fraction=0``
    reproduces the historical plan bit-for-bit for a given seed.
    """
    plan: List[Dict[str, object]] = []
    for _ in range(n):
        name = workloads[int(rng.integers(len(workloads)))]
        lo, hi = tp_ranges[name]
        log_lo = math.log(lo * _DEADLINE_LO_MULT)
        log_hi = math.log(hi * _DEADLINE_HI_MULT)
        deadline = math.exp(float(rng.uniform(log_lo, log_hi)))
        body: Dict[str, object] = {"workload": name, "deadline_s": deadline}
        body.update(space)
        plan.append(body)
    if cold_fraction > 0:
        draws = rng.random(n)
        for i, body in enumerate(plan):
            if draws[i] < cold_fraction:
                body["budget_w"] = 1e9 + float(i)
    return plan


async def run_loadgen(
    host: str,
    port: int,
    *,
    mode: str = "closed",
    clients: int = 8,
    total_requests: int = 200,
    arrival: str = "poisson",
    rate_rps: float = 200.0,
    workloads: Sequence[str] = ("EP",),
    space: Optional[Mapping[str, object]] = None,
    seed: int = DEFAULT_SEED,
    timeout_s: float = 30.0,
    collect_responses: bool = False,
    cold_fraction: float = 0.0,
) -> LoadgenResult:
    """Drive one seeded load-generation run against a live service.

    A priming pass (one ``/frontier`` per workload, outside the measured
    window) warms each workload's cache entry and reads its frontier
    execution-time range for the deadline draws; the measured window then
    issues ``total_requests`` ``/recommend`` queries in the chosen mode.

    Every request carries a deterministic client-generated id in the
    ``X-Repro-Request-Id`` header (``lg-<seed hex>-<index>``), which the
    server echoes and stamps on its flight-recorder traces — so a dump
    can be joined back to the exact client-side record.
    ``cold_fraction > 0`` injects never-before-seen digests (forced cold
    sweeps) to drive the service past its admission limit.
    """
    if mode not in ("closed", "open"):
        raise ReproError(f"mode must be 'closed' or 'open', got {mode!r}")
    if clients < 1:
        raise ReproError(f"clients must be >= 1, got {clients}")
    if total_requests < 1:
        raise ReproError(f"total_requests must be >= 1, got {total_requests}")
    if not workloads:
        raise ReproError("at least one workload is required")
    if not 0.0 <= cold_fraction <= 1.0:
        raise ReproError(
            f"cold_fraction must be in [0, 1], got {cold_fraction}"
        )
    space = dict(space or {})
    rng = RngRegistry(seed).stream("serve/loadgen")

    # Priming pass: warm each workload's space entry and learn its
    # frontier tp range (cold sweeps — excluded from the measured window).
    primer = _HttpClient(host, port)
    await primer.connect()
    tp_ranges: Dict[str, Tuple[float, float]] = {}
    try:
        for name in workloads:
            status, doc = await asyncio.wait_for(
                primer.request("POST", "/frontier", {"workload": name, **space}),
                timeout=timeout_s,
            )
            if status != 200:
                raise ReproError(
                    f"priming /frontier for {name!r} failed "
                    f"({status}): {doc.get('error', doc)}"
                )
            tps = [float(p["tp_s"]) for p in doc.get("points", [])]
            if not tps:
                raise ReproError(f"workload {name!r} has an empty frontier")
            tp_ranges[name] = (min(tps), max(tps))
    finally:
        await primer.aclose()

    plan = _build_plan(
        rng, total_requests, list(workloads), tp_ranges, space, cold_fraction
    )
    tally = _Tally(keep_responses=collect_responses)
    id_prefix = f"lg-{seed & 0xFFFFFFFF:08x}"

    async def fire(
        client: _HttpClient,
        index: int,
        body: Mapping[str, object],
        t0: Optional[float] = None,
    ) -> None:
        """One request; its latency runs from ``t0`` (default: now)."""
        rid = f"{id_prefix}-{index:06d}"
        if t0 is None:
            t0 = perf_counter()
        try:
            status, doc = await asyncio.wait_for(
                client.request(
                    "POST",
                    "/recommend",
                    body,
                    headers={"X-Repro-Request-Id": rid},
                ),
                timeout=timeout_s,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError, ReproError):
            tally.error(rid, perf_counter() - t0)
            await client.aclose()
            return
        tally.record(
            status,
            body,
            doc,
            perf_counter() - t0,
            request_id=rid,
            echoed=client.last_headers.get("x-repro-request-id") == rid,
        )

    lateness: List[float] = []
    t_start = perf_counter()
    if mode == "closed":
        cursor = {"next": 0}

        async def worker() -> None:
            client = _HttpClient(host, port)
            await client.connect()
            try:
                while True:
                    i = cursor["next"]
                    if i >= len(plan):
                        return
                    cursor["next"] = i + 1
                    await fire(client, i, plan[i])
            finally:
                await client.aclose()

        await asyncio.gather(*(worker() for _ in range(clients)))
    else:
        from repro.queueing.processes import make_arrivals

        times = make_arrivals(arrival, rate_rps).sample_arrivals(
            rng, total_requests
        )
        pool: "asyncio.Queue[_HttpClient]" = asyncio.Queue()
        for _ in range(clients):
            client = _HttpClient(host, port)
            await client.connect()
            pool.put_nowait(client)

        async def dispatch(
            at_s: float, index: int, body: Mapping[str, object]
        ) -> None:
            due = t_start + at_s
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(perf_counter() - due)
            client = await pool.get()
            try:
                await fire(client, index, body, t0=due)
            finally:
                pool.put_nowait(client)

        await asyncio.gather(
            *(
                dispatch(float(t), i, body)
                for i, (t, body) in enumerate(zip(times, plan))
            )
        )
        while not pool.empty():
            await pool.get_nowait().aclose()
    wall_s = perf_counter() - t_start

    server_stats: Optional[Mapping[str, object]] = None
    try:
        stats_client = _HttpClient(host, port)
        await stats_client.connect()
        status, doc = await asyncio.wait_for(
            stats_client.request("GET", "/stats"), timeout=timeout_s
        )
        if status == 200:
            server_stats = doc
        await stats_client.aclose()
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass

    return LoadgenResult(
        mode=mode,
        attempted=total_requests,
        completed=tally.completed,
        shed=tally.shed,
        errors=tally.errors,
        infeasible=tally.infeasible,
        wall_s=wall_s,
        latencies_s=tuple(tally.latencies),
        statuses=dict(tally.statuses),
        seed=seed,
        server_stats=server_stats,
        responses=tuple(tally.responses),
        request_records=tuple(tally.records),
        id_echoes=tally.id_echoes,
        lateness_s=tuple(lateness),
    )


def selfhosted_loadgen(
    serve_config=None, **loadgen_kwargs
) -> Tuple[LoadgenResult, Dict[str, object]]:
    """Boot a service in-process, drive a run against it, tear it down.

    Returns ``(result, service_summary_scalars)``.  The one-call entry
    the CLI default, the benchmark, and the serving-SLO monitor share —
    no sockets leak, no external process management.
    """
    from repro.serve.service import ReproService, ServeConfig

    async def main() -> Tuple[LoadgenResult, Dict[str, object]]:
        service = ReproService(serve_config or ServeConfig())
        await service.start()
        try:
            result = await run_loadgen(
                service.host, service.port, **loadgen_kwargs
            )
            summary = service.summary_scalars()
        finally:
            await service.close()
        return result, summary

    return asyncio.run(main())
