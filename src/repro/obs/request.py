"""Request-level observability for the serving stack.

The process-wide :mod:`repro.obs.tracing` tracer keeps ONE span stack,
which is exactly right for the offline pipelines it instruments and
exactly wrong for the serving path, where dozens of requests interleave
on one event loop and each needs its *own* nested span tree.  This
module supplies the per-request layer :mod:`repro.serve` wires through
admission, cache and the compute lane:

:class:`RequestContext`
    One request's trace: an id (client-supplied header or generated),
    the admission decision, the cache outcome, and a nested stage tree
    (``parse``/``admission``/``cache``/``batch.queue``/``batch.compute``
    /``lookup``/``render``).  Stages opened with :meth:`~RequestContext.stage`
    nest via a per-context stack; work timed on *another* thread (the
    compute lane's queue wait and compute) lands with explicit timings
    via :meth:`~RequestContext.add_stage`, parented under whatever stage
    the request coroutine currently holds open.

:class:`TailSampler`
    Tail-based keep/drop decided at request *completion*: errors, sheds
    and expiries are always kept, so is anything at or above a streaming
    p99 latency estimate, and a deterministic 1-in-``1/rate`` count of
    the routine rest — so the flight ring stays representative across
    10^5+ request runs without unbounded memory.

:class:`BurnRateMonitor`
    Multi-window (fast/slow) error-budget burn against the configured
    p95 SLO, computed online from the per-request latency/shed stream.
    ``burn = bad_fraction / budget_fraction`` (budget 5% for a p95 SLO);
    an alert fires on the rising edge when *both* windows exceed the
    threshold — the Google-SRE multi-window rule: the fast window catches
    the onset, the slow window keeps one blip from paging.

:class:`FlightRecorder`
    A bounded ring of the last N kept traces that dumps a JSON +
    Chrome-trace post-mortem to disk (and appends a ledger record) on a
    burn alert, a 5xx, or shutdown-with-alert.

All of it follows the layer's prime rule: near-zero cost while
disabled, zero effect on answers while enabled — contexts never touch
RNG streams or floating-point work, so cache-hit responses stay
bit-identical to the offline sweep with tracing at full sampling
(``tests/serve/test_request_obs.py``).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "AlertEvent",
    "BurnRateMonitor",
    "DEFAULT_FLIGHT_CAPACITY",
    "DEFAULT_SAMPLE_RATE",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "REQUEST_ID_HEADER",
    "RequestContext",
    "RequestRecorder",
    "StageRecord",
    "TailSampler",
    "classify_outcome",
    "flight_chrome_trace",
    "flight_document",
    "list_flight_dumps",
    "load_flight_dump",
    "span_coverage",
]

#: The request-id header the service reads and echoes (lower-cased, the
#: way the server's header parser normalises keys).
REQUEST_ID_HEADER = "x-repro-request-id"

#: Version tag of the flight-recorder dump document.
FLIGHT_SCHEMA = "repro-flight/1"

#: Default routine-traffic sampling rate (errors/sheds/p99 tail are
#: always kept regardless).
DEFAULT_SAMPLE_RATE = 0.05

#: Default flight-ring capacity (fully-traced requests held for dumps).
DEFAULT_FLIGHT_CAPACITY = 64

#: Default dump directory when neither config nor REPRO_FLIGHT_DIR says
#: otherwise.
DEFAULT_FLIGHT_DIR = Path(".repro") / "flight"

#: Multi-window burn-rate defaults, sized for short benchmark/CI runs
#: rather than week-long SLO periods: the fast window catches an onset
#: within seconds, the slow window confirms it is not one blip.
DEFAULT_FAST_WINDOW_S = 5.0
DEFAULT_SLOW_WINDOW_S = 30.0
DEFAULT_BURN_THRESHOLD = 2.0

#: Error budget for a p95 SLO: 5% of requests may be bad by definition.
DEFAULT_BUDGET_FRACTION = 0.05

#: The request-outcome vocabulary (histogram label values).
OUTCOMES = ("ok", "shed", "expired", "error")


def classify_outcome(status: int) -> str:
    """Map an HTTP status to the serving-outcome vocabulary.

    503 is admission doing its job (``shed``), 504 a deadline expiry
    (``expired``); anything else non-2xx/3xx is an ``error``.
    """
    if status < 400:
        return "ok"
    if status == 503:
        return "shed"
    if status == 504:
        return "expired"
    return "error"


@dataclass(frozen=True)
class StageRecord:
    """One closed stage of one request: where time went."""

    name: str
    #: Ancestry including the stage itself, e.g. ``("cache", "batch.queue")``.
    path: Tuple[str, ...]
    #: Start relative to the recorder's origin (one timeline for all
    #: requests, so a dump renders as a single Chrome-trace session).
    t0_s: float
    wall_s: float
    attrs: Mapping[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "path": list(self.path),
            "t0_s": self.t0_s,
            "wall_s": self.wall_s,
            "attrs": dict(self.attrs),
        }


class _NoopStage:
    """Shared do-nothing stage for untraced (or finished) contexts."""

    __slots__ = ()

    def __enter__(self) -> "_NoopStage":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass


_NOOP_STAGE = _NoopStage()


class _Stage:
    """One open stage: a context manager bound to its request's stack."""

    __slots__ = ("_ctx", "name", "attrs", "_t0")

    def __init__(self, ctx: "RequestContext", name: str, attrs: Dict[str, object]):
        self._ctx = ctx
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_Stage":
        self._ctx._stack.append(self.name)
        self._t0 = perf_counter()
        return self

    def set(self, **attrs: object) -> None:
        """Attach attributes to the stage (visible in dumps)."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = perf_counter() - self._t0
        ctx = self._ctx
        path = tuple(ctx._stack)
        ctx._stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        ctx.stages.append(
            StageRecord(
                name=self.name,
                path=path,
                t0_s=self._t0 - ctx.origin_s,
                wall_s=wall,
                attrs=dict(self.attrs),
            )
        )
        return False


class RequestContext:
    """One request's propagated trace context.

    Created by :meth:`RequestRecorder.start_request` for *every* request
    (so the id echo always works); ``traced=False`` turns every stage
    into a shared no-op so the disabled path costs one attribute check.
    """

    __slots__ = (
        "request_id",
        "endpoint",
        "origin_s",
        "traced",
        "t0_s",
        "wall_s",
        "status",
        "outcome",
        "admitted",
        "cache_hit",
        "digest",
        "keep_reason",
        "stages",
        "_stack",
        "_t0_pc",
        "_finished",
    )

    def __init__(
        self,
        request_id: str,
        endpoint: str,
        *,
        origin_s: float,
        traced: bool = True,
    ) -> None:
        self.request_id = request_id
        self.endpoint = endpoint
        self.origin_s = origin_s
        self.traced = traced
        self._t0_pc = perf_counter()
        self.t0_s = self._t0_pc - origin_s
        self.wall_s = 0.0
        self.status = 0
        self.outcome = ""
        self.admitted: Optional[bool] = None
        self.cache_hit: Optional[bool] = None
        self.digest: Optional[str] = None
        self.keep_reason: Optional[str] = None
        self.stages: List[StageRecord] = []
        self._stack: List[str] = []
        self._finished = False

    def stage(self, name: str, **attrs: object):
        """Open one nested stage (``with ctx.stage("cache") as st: ...``)."""
        if not self.traced or self._finished:
            return _NOOP_STAGE
        return _Stage(self, name, dict(attrs))

    def add_stage(
        self, name: str, *, start_s: float, wall_s: float, **attrs: object
    ) -> None:
        """Record one stage with explicit timings, from any task/thread.

        ``start_s`` is an absolute ``perf_counter`` reading.  The stage is
        parented under whatever the request coroutine holds open *now* —
        which is exactly right for the compute lane, which stamps
        ``batch.queue`` and ``batch.compute`` while the request is still
        inside its ``cache`` stage.  Ignored once the request has
        finished, so a late client-side timeout cannot mutate a trace
        already in the flight ring.
        """
        if not self.traced or self._finished:
            return
        path = tuple(self._stack) + (name,)
        self.stages.append(
            StageRecord(
                name=name,
                path=path,
                t0_s=start_s - self.origin_s,
                wall_s=wall_s,
                attrs=dict(attrs),
            )
        )

    def finish(self, status: int, wall_s: float) -> None:
        """Seal the context with its final status and end-to-end wall."""
        self.status = int(status)
        self.outcome = classify_outcome(status)
        self.wall_s = float(wall_s)
        self._finished = True

    def to_dict(self) -> Dict[str, object]:
        """JSON-able trace of this request (the dump record)."""
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "t0_s": self.t0_s,
            "wall_s": self.wall_s,
            "status": self.status,
            "outcome": self.outcome,
            "admitted": self.admitted,
            "cache_hit": self.cache_hit,
            "digest": self.digest,
            "keep_reason": self.keep_reason,
            "stages": [s.to_dict() for s in self.stages],
        }


def span_coverage(request_doc: Mapping[str, object]) -> float:
    """Fraction of a request's wall time its top-level stages account for.

    The acceptance metric for trace completeness: direct children of the
    request root (path length 1) should sum to ~the end-to-end wall; a
    low value means un-attributed time is hiding between stages.
    """
    wall = float(request_doc.get("wall_s") or 0.0)
    if wall <= 0:
        return 0.0
    covered = sum(
        float(s["wall_s"])
        for s in request_doc.get("stages", ())
        if len(s["path"]) == 1
    )
    return covered / wall


class TailSampler:
    """Keep/drop decided at completion: errors, sheds, the p99 tail, and
    a deterministic sample of the routine rest.

    The slow-keep threshold is a streaming p99 estimate over a bounded
    window of recent latencies, refreshed every ``refresh_every``
    observations — cheap enough for the hot path, accurate enough to
    keep the genuinely slowest slice.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        *,
        window: int = 512,
        quantile: float = 0.99,
        refresh_every: int = 64,
        min_window: int = 16,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self._period = int(round(1.0 / sample_rate)) if sample_rate > 0 else 0
        self.quantile = float(quantile)
        self._window: Deque[float] = deque(maxlen=int(window))
        self._min_window = int(min_window)
        self._refresh_every = int(refresh_every)
        self._since_refresh = 0
        self._threshold = math.inf
        self._routine = 0
        self.decided = 0
        self.kept_by_reason: Dict[str, int] = {}
        self.dropped = 0

    @property
    def slow_threshold_s(self) -> float:
        """The current keep-if-slower-than threshold (inf until primed)."""
        return self._threshold

    def _observe(self, wall_s: float) -> None:
        self._window.append(wall_s)
        self._since_refresh += 1
        if (
            len(self._window) >= self._min_window
            and self._since_refresh >= self._refresh_every
        ):
            ordered = sorted(self._window)
            idx = min(
                len(ordered) - 1, int(math.ceil(self.quantile * len(ordered))) - 1
            )
            self._threshold = ordered[max(idx, 0)]
            self._since_refresh = 0

    def decide(self, ctx: RequestContext) -> Tuple[bool, Optional[str]]:
        """``(keep, reason)`` for one finished request."""
        self.decided += 1
        threshold = self._threshold
        self._observe(ctx.wall_s)
        if ctx.outcome != "ok":
            reason: Optional[str] = ctx.outcome
        elif ctx.wall_s >= threshold:
            reason = "slow"
        else:
            self._routine += 1
            if self._period and self._routine % self._period == 0:
                reason = "sampled"
            else:
                self.dropped += 1
                return False, None
        self.kept_by_reason[reason] = self.kept_by_reason.get(reason, 0) + 1
        return True, reason

    def stats(self) -> Dict[str, object]:
        return {
            "sample_rate": self.sample_rate,
            "decided": self.decided,
            "dropped": self.dropped,
            "kept_by_reason": dict(self.kept_by_reason),
            "slow_threshold_s": (
                self._threshold if math.isfinite(self._threshold) else None
            ),
        }


@dataclass(frozen=True)
class AlertEvent:
    """One structured SLO burn-rate alert (the rising edge)."""

    kind: str
    #: Fire time relative to the recorder origin (seconds).
    t_s: float
    fast_burn: float
    slow_burn: float
    fast_window_s: float
    slow_window_s: float
    threshold: float
    slo_p95_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "t_s": self.t_s,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "threshold": self.threshold,
            "slo_p95_s": self.slo_p95_s,
        }


class BurnRateMonitor:
    """Online multi-window error-budget burn against the p95 SLO.

    A request is *bad* when it was shed, errored, or completed slower
    than the SLO.  With a 5% budget, burn 1.0 means bad requests arrive
    exactly at the rate the SLO tolerates; burn 20 means *every* request
    is bad.  The alert fires on the rising edge when both windows exceed
    the threshold and the fast window holds at least ``min_requests``
    observations (so one slow boot request cannot page), and re-arms
    once the fast window drops back below threshold.
    """

    def __init__(
        self,
        slo_p95_s: float,
        *,
        budget_fraction: float = DEFAULT_BUDGET_FRACTION,
        fast_window_s: float = DEFAULT_FAST_WINDOW_S,
        slow_window_s: float = DEFAULT_SLOW_WINDOW_S,
        threshold: float = DEFAULT_BURN_THRESHOLD,
        min_requests: int = 20,
    ) -> None:
        if budget_fraction <= 0 or budget_fraction >= 1:
            raise ValueError(
                f"budget fraction must be in (0, 1), got {budget_fraction}"
            )
        if fast_window_s <= 0 or slow_window_s < fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast <= slow, got "
                f"{fast_window_s}/{slow_window_s}"
            )
        self.slo_p95_s = float(slo_p95_s)
        self.budget_fraction = float(budget_fraction)
        self.fast_window_s = float(fast_window_s)
        self.slow_window_s = float(slow_window_s)
        self.threshold = float(threshold)
        self.min_requests = int(min_requests)
        #: (t_s, good) pairs within the slow window, oldest first.
        self._events: Deque[Tuple[float, bool]] = deque()
        #: (t_s, good) pairs within the fast window, oldest first.
        self._fast_events: Deque[Tuple[float, bool]] = deque()
        #: Running bad counts for each window, kept in lockstep with the
        #: deques so ``observe`` is O(1) amortized instead of rescanning
        #: tens of thousands of events per request at serving rates.
        self._slow_bad = 0
        self._fast_bad = 0
        self._fast_burn = 0.0
        self._slow_burn = 0.0
        self.good = 0
        self.bad = 0
        self.alert_active = False
        self.alerts: List[AlertEvent] = []
        self._last_t_s = 0.0

    def _window_burn(self, window_s: float, now_s: float) -> Tuple[float, int]:
        """``(burn, count)`` over events newer than ``now - window``."""
        cutoff = now_s - window_s
        total = 0
        bad = 0
        for t, good in reversed(self._events):
            if t < cutoff:
                break
            total += 1
            if not good:
                bad += 1
        if total == 0:
            return 0.0, 0
        return (bad / total) / self.budget_fraction, total

    def burn_rate(self, window_s: float, now_s: Optional[float] = None) -> float:
        """The current burn over one window (for export/inspection)."""
        if now_s is None or now_s == self._last_t_s:
            # The hot path (per-request gauge export) asks for the two
            # standard windows as of the last observation — answer from
            # the incremental counters without touching the deques.
            if window_s == self.fast_window_s:
                return self._fast_burn
            if window_s == self.slow_window_s:
                return self._slow_burn
        now = self._last_t_s if now_s is None else now_s
        return self._window_burn(window_s, now)[0]

    def observe(self, t_s: float, good: bool) -> Optional[AlertEvent]:
        """Feed one finished request; returns an alert on the rising edge."""
        self._last_t_s = t_s
        event = (t_s, good)
        self._events.append(event)
        self._fast_events.append(event)
        if good:
            self.good += 1
        else:
            self.bad += 1
            self._slow_bad += 1
            self._fast_bad += 1
        cutoff = t_s - self.slow_window_s
        while self._events and self._events[0][0] < cutoff:
            if not self._events.popleft()[1]:
                self._slow_bad -= 1
        cutoff = t_s - self.fast_window_s
        while self._fast_events and self._fast_events[0][0] < cutoff:
            if not self._fast_events.popleft()[1]:
                self._fast_bad -= 1
        fast_count = len(self._fast_events)
        slow_count = len(self._events)
        fast = (
            (self._fast_bad / fast_count) / self.budget_fraction
            if fast_count
            else 0.0
        )
        slow = (
            (self._slow_bad / slow_count) / self.budget_fraction
            if slow_count
            else 0.0
        )
        self._fast_burn = fast
        self._slow_burn = slow
        firing = (
            fast_count >= self.min_requests
            and fast >= self.threshold
            and slow >= self.threshold
        )
        if firing and not self.alert_active:
            self.alert_active = True
            event = AlertEvent(
                kind="slo-burn-rate",
                t_s=t_s,
                fast_burn=fast,
                slow_burn=slow,
                fast_window_s=self.fast_window_s,
                slow_window_s=self.slow_window_s,
                threshold=self.threshold,
                slo_p95_s=self.slo_p95_s,
            )
            self.alerts.append(event)
            return event
        if self.alert_active and fast < self.threshold:
            self.alert_active = False
        return None

    def stats(self, now_s: Optional[float] = None) -> Dict[str, object]:
        """The ``/stats`` burn section."""
        now = self._last_t_s if now_s is None else now_s
        return {
            "slo_p95_s": self.slo_p95_s,
            "budget_fraction": self.budget_fraction,
            "threshold": self.threshold,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "fast_burn": self._window_burn(self.fast_window_s, now)[0],
            "slow_burn": self._window_burn(self.slow_window_s, now)[0],
            "alert_active": self.alert_active,
            "alerts": len(self.alerts),
            "good": self.good,
            "bad": self.bad,
        }


def flight_document(
    contexts: Sequence[RequestContext],
    *,
    reason: str,
    state: Optional[Mapping[str, object]] = None,
    alert: Optional[AlertEvent] = None,
) -> Dict[str, object]:
    """Assemble one ``repro-flight/1`` post-mortem document."""
    requests = [ctx.to_dict() for ctx in contexts]
    slowest: Optional[Dict[str, object]] = None
    if requests:
        doc = max(requests, key=lambda r: float(r["wall_s"]))
        slowest = {
            "request_id": doc["request_id"],
            "endpoint": doc["endpoint"],
            "status": doc["status"],
            "wall_s": doc["wall_s"],
            "coverage": span_coverage(doc),
        }
    return {
        "schema": FLIGHT_SCHEMA,
        "reason": reason,
        "created_utc": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%S.%fZ"
        ),
        "alert": alert.to_dict() if alert is not None else None,
        "service": dict(state) if state is not None else None,
        "slowest": slowest,
        "requests": requests,
    }


def flight_chrome_trace(doc: Mapping[str, object]) -> Dict[str, object]:
    """Render one flight document as Chrome-trace JSON (chrome://tracing).

    One tid per request so the per-request span trees stack instead of
    interleaving; timestamps are the shared recorder timeline in µs.
    """
    events: List[Dict[str, object]] = []
    for tid, req in enumerate(doc.get("requests", ())):
        events.append(
            {
                "name": f"{req['endpoint']} [{req['outcome']}]",
                "cat": "request",
                "ph": "X",
                "ts": float(req["t0_s"]) * 1e6,
                "dur": float(req["wall_s"]) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {
                    "request_id": req["request_id"],
                    "status": req["status"],
                    "digest": req.get("digest"),
                    "keep_reason": req.get("keep_reason"),
                },
            }
        )
        for stage in req.get("stages", ()):
            events.append(
                {
                    "name": stage["name"],
                    "cat": "stage",
                    "ph": "X",
                    "ts": float(stage["t0_s"]) * 1e6,
                    "dur": float(stage["wall_s"]) * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": dict(stage.get("attrs", {})),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _flight_dir(directory: Optional[Path]) -> Path:
    import os

    if directory is not None:
        return Path(directory)
    env = os.environ.get("REPRO_FLIGHT_DIR")
    if env:
        return Path(env)
    return DEFAULT_FLIGHT_DIR


def list_flight_dumps(directory: Optional[Path] = None) -> List[Path]:
    """Flight-dump JSON paths under ``directory``, oldest first."""
    root = _flight_dir(directory)
    if not root.is_dir():
        return []
    return sorted(
        p
        for p in root.glob("flight-*.json")
        if not p.name.endswith(".trace.json")
    )


def load_flight_dump(path: Path) -> Dict[str, object]:
    """Parse and schema-check one flight dump.

    Raises ``ValueError`` for anything the readers could not render: a
    non-object document, a foreign schema, a ``requests`` that is not a
    list of objects, or a ``slowest`` that is neither an object nor null.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a JSON object")
    if doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path} is not a {FLIGHT_SCHEMA} document "
            f"(schema={doc.get('schema')!r})"
        )
    requests = doc.get("requests")
    if not isinstance(requests, list) or not all(
        isinstance(r, dict) for r in requests
    ):
        raise ValueError(f"{path}: 'requests' must be a list of objects")
    if not isinstance(doc.get("slowest"), (dict, type(None))):
        raise ValueError(f"{path}: 'slowest' must be an object or null")
    return doc


class FlightRecorder:
    """The bounded ring of kept traces, plus the dump machinery."""

    def __init__(
        self,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        *,
        directory: Optional[Path] = None,
        min_dump_interval_s: float = 5.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.directory = Path(directory) if directory is not None else None
        self.min_dump_interval_s = float(min_dump_interval_s)
        self._ring: Deque[RequestContext] = deque(maxlen=self.capacity)
        self._last_dump_pc: Dict[str, float] = {}
        self._seq = itertools.count(1)
        self.dumps: List[str] = []

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, ctx: RequestContext) -> None:
        """Keep one finished trace (evicting the oldest when full)."""
        self._ring.append(ctx)

    def traces(self) -> List[RequestContext]:
        """The kept traces, oldest first."""
        return list(self._ring)

    def slowest(self) -> Optional[RequestContext]:
        """The slowest kept trace (the acceptance-metric subject)."""
        if not self._ring:
            return None
        return max(self._ring, key=lambda ctx: ctx.wall_s)

    def maybe_dump(
        self,
        reason: str,
        *,
        state: Optional[Mapping[str, object]] = None,
        alert: Optional[AlertEvent] = None,
    ) -> Optional[Path]:
        """Dump unless the same reason fired within the rate-limit window."""
        now = perf_counter()
        last = self._last_dump_pc.get(reason)
        if last is not None and now - last < self.min_dump_interval_s:
            return None
        if not self._ring:
            return None
        return self.dump(reason, state=state, alert=alert)

    def dump(
        self,
        reason: str,
        *,
        state: Optional[Mapping[str, object]] = None,
        alert: Optional[AlertEvent] = None,
    ) -> Path:
        """Write the JSON + Chrome-trace post-mortem; append a ledger record.

        A dump failure (full disk, read-only dir) must never take the
        serving loop down, so OS errors are swallowed after recording
        nothing; the returned path exists only on success.
        """
        from repro.obs.ledger import default_ledger, ledger_enabled, new_record

        self._last_dump_pc[reason] = perf_counter()
        doc = flight_document(self.traces(), reason=reason, state=state, alert=alert)
        root = _flight_dir(self.directory)
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        name = f"flight-{stamp}-{reason}-{next(self._seq):03d}"
        json_path = root / f"{name}.json"
        trace_path = root / f"{name}.trace.json"
        root.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        trace_path.write_text(
            json.dumps(flight_chrome_trace(doc)), encoding="utf-8"
        )
        self.dumps.append(str(json_path))
        if ledger_enabled():
            slowest = doc.get("slowest") or {}
            default_ledger().append(
                new_record(
                    "experiment",
                    "serve/flight-dump",
                    params={"reason": reason},
                    scalars={
                        "requests": float(len(doc["requests"])),
                        "slowest_wall_s": float(slowest.get("wall_s") or 0.0),
                        "slowest_coverage": float(slowest.get("coverage") or 0.0),
                    },
                    extra={"path": str(json_path), "trace_path": str(trace_path)},
                )
            )
        return json_path

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._ring),
            "capacity": self.capacity,
            "dumps": len(self.dumps),
            "dump_paths": list(self.dumps),
        }


class RequestRecorder:
    """The per-service facade tying context creation, sampling, burn-rate
    alerting and the flight recorder together.

    One instance per :class:`repro.serve.service.ReproService`; all
    methods are event-loop-confined except :meth:`RequestContext.add_stage`
    (which only appends to a per-request list).
    """

    def __init__(
        self,
        *,
        slo_p95_s: float,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        enabled: bool = True,
        flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
        flight_dir: Optional[Path] = None,
        fast_window_s: float = DEFAULT_FAST_WINDOW_S,
        slow_window_s: float = DEFAULT_SLOW_WINDOW_S,
        burn_threshold: float = DEFAULT_BURN_THRESHOLD,
        state_provider: Optional[Callable[[], Mapping[str, object]]] = None,
    ) -> None:
        self.origin_s = perf_counter()
        self.enabled = bool(enabled)
        self.sampler = TailSampler(sample_rate)
        self.burn = BurnRateMonitor(
            slo_p95_s,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            threshold=burn_threshold,
        )
        self.flight = FlightRecorder(flight_capacity, directory=flight_dir)
        self._state_provider = state_provider
        self._id_counter = itertools.count(1)
        self.started = 0
        self.finished = 0
        #: Per-top-level-stage (count, total wall) aggregates over every
        #: traced request (kept or dropped) — the live breakdown
        #: ``repro obs watch --serve`` streams.
        self._stage_totals: Dict[str, List[float]] = {}

    # -- request lifecycle -------------------------------------------------
    def start_request(
        self, endpoint: str, request_id: Optional[str] = None
    ) -> RequestContext:
        """A fresh context; generates an id when the client sent none."""
        rid = request_id or f"req-{next(self._id_counter):06d}"
        self.started += 1
        return RequestContext(
            rid, endpoint, origin_s=self.origin_s, traced=self.enabled
        )

    def finish_request(
        self, ctx: RequestContext, status: int, wall_s: float
    ) -> Optional[AlertEvent]:
        """Seal one request: sample, burn-account, maybe alert, maybe dump.

        Returns the alert event when this request's completion fired the
        rising edge.
        """
        from repro.obs.metrics import get_registry

        ctx.finish(status, wall_s)
        self.finished += 1
        now_s = perf_counter() - self.origin_s
        good = ctx.outcome == "ok" and wall_s <= self.burn.slo_p95_s
        alert = self.burn.observe(now_s, good)
        registry = get_registry()
        if registry.enabled:
            for window, value in (
                ("fast", self.burn.burn_rate(self.burn.fast_window_s, now_s)),
                ("slow", self.burn.burn_rate(self.burn.slow_window_s, now_s)),
            ):
                registry.gauge(
                    "repro_serve_slo_burn_rate",
                    labels={"window": window},
                    help="Error-budget burn rate against the p95 SLO",
                ).set(value)
            if alert is not None:
                registry.counter(
                    "repro_serve_slo_alerts_total",
                    help="SLO burn-rate alerts raised (rising edges)",
                ).inc()
        if self.enabled:
            for stage in ctx.stages:
                if len(stage.path) != 1:
                    continue
                bucket = self._stage_totals.setdefault(stage.name, [0.0, 0.0])
                bucket[0] += 1.0
                bucket[1] += stage.wall_s
            keep, reason = self.sampler.decide(ctx)
            if keep:
                ctx.keep_reason = reason
                self.flight.record(ctx)
                if registry.enabled:
                    registry.counter(
                        "repro_serve_traces_kept_total",
                        labels={"reason": str(reason)},
                        help="Request traces kept by the tail sampler",
                    ).inc()
        if alert is not None:
            self._log_alert(alert)
            self.flight.maybe_dump("slo-burn", state=self._state(), alert=alert)
        if status >= 500 and status != 503:
            # 503 is admission policy (covered by the burn alert); 500s
            # and 504 deadline expiries are genuine post-mortem material.
            self.flight.maybe_dump(f"http-{status}", state=self._state())
        return alert

    def on_shutdown(self) -> Optional[Path]:
        """Dump the ring when the service stops with an alert still active."""
        if not self.burn.alert_active:
            return None
        return self.flight.maybe_dump("shutdown-with-alert", state=self._state())

    # -- introspection -----------------------------------------------------
    def _state(self) -> Optional[Mapping[str, object]]:
        if self._state_provider is None:
            return None
        try:
            return self._state_provider()
        except Exception:  # noqa: BLE001 - a dump must not take serving down
            return None

    def _log_alert(self, alert: AlertEvent) -> None:
        from repro.obs.logs import get_logger

        get_logger(__name__).warning(
            "SLO burn-rate alert: fast=%.1fx slow=%.1fx (threshold %.1fx, "
            "p95 SLO %.3fs)",
            alert.fast_burn,
            alert.slow_burn,
            alert.threshold,
            alert.slo_p95_s,
        )

    def stage_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Mean/total wall per top-level stage over traced requests."""
        return {
            name: {
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for name, (count, total) in sorted(self._stage_totals.items())
        }

    def slo_stats(self) -> Dict[str, object]:
        """The ``/stats`` ``slo`` section (burn windows evaluated now)."""
        return self.burn.stats(perf_counter() - self.origin_s)

    def tracing_stats(self) -> Dict[str, object]:
        """The ``/stats`` ``tracing`` section."""
        return {
            "enabled": self.enabled,
            "started": self.started,
            "finished": self.finished,
            "sampler": self.sampler.stats(),
            "flight": self.flight.stats(),
            "stages": self.stage_breakdown(),
        }

    def summary_scalars(self) -> Dict[str, float]:
        """Flat scalars folded into the service's shutdown ledger record."""
        kept = sum(self.sampler.kept_by_reason.values())
        return {
            "slo_alerts": float(len(self.burn.alerts)),
            "traces_kept": float(kept),
            "flight_dumps": float(len(self.flight.dumps)),
        }
