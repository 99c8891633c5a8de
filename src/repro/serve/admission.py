"""Model-informed admission control: the scheduler schedules itself.

The paper's response-time analysis models the cluster dispatcher as an
M/D/1 queue and reads p95 response times off Franx's waiting-time
distribution (:mod:`repro.queueing.md1`).  The serving layer applies the
same model to *its own* compute queue: cold requests arrive
(approximately) Poisson and the compute lane
(:mod:`repro.serve.batching`) serves them one at a time in
near-deterministic time, so the service is its own M/D/1 system.

:func:`derive_occupancy_limit` inverts the model: given the measured
per-request service time ``D`` and the p95 response-time SLO, bisection
finds the largest utilisation ``rho*`` whose analytic p95 still meets
the SLO, and the occupancy threshold is the smallest queue depth ``n``
with ``P(L <= n) >= 0.95`` at ``rho*`` — the depth the stationary
system-size distribution says a compliant queue exceeds only 5% of the
time.  A request arriving to a deeper queue is shed (HTTP 503) instead
of blowing the tail for everyone behind it.

The derivation rests on the model's scale invariance: the M/D/1 p95 is
``D * g(rho)``, with ``g`` the p95 at ``D = 1``, and the system-size
distribution depends on ``rho`` alone.  The bisection therefore tests
``g(mid) <= SLO / D`` against ``g`` memoised per ``rho``; every (D, SLO)
pair walks the same tree of midpoints, so a re-derivation mostly reads
the memo, and the costly probes near saturation (Franx's sum needs
``O(1/(1 - rho))`` terms) run only when the target lies up there.

The controller re-derives the threshold whenever its service-time
estimate (an EWMA over measured computes) drifts beyond a relative
tolerance, so a workload shift — e.g. cold keys forcing full sweeps —
tightens admission within a few computes, and a warm cache relaxes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.queueing.md1 import MD1Queue

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "OccupancyLimit",
    "derive_occupancy_limit",
]

#: Utilisation bracket for the bisection: the analytic model is exact on
#: (0, 1); searching beyond 0.999 asks for percentiles of an effectively
#: unstable queue.
_RHO_LO, _RHO_HI = 1e-6, 0.999

#: The bisection stops once the utilisation bracket is this narrow.
_RHO_TOL = 1e-4

#: Depth percentile backing the occupancy threshold: the queue is allowed
#: to look like a compliant M/D/1 queue's 95th-percentile depth, no more.
_DEPTH_PERCENTILE = 0.95

#: Hard ceiling on the derived depth so a very loose SLO cannot produce an
#: unbounded (memory-hostile) admission queue.
_MAX_DEPTH = 4096

#: Service-time prior (seconds) before the first compute is measured.
_INITIAL_SERVICE_TIME_S = 1e-3

#: EWMA weight of each new service-time sample.
_EWMA_ALPHA = 0.2

#: Relative drift of the service-time estimate that triggers a re-derivation.
_REDERIVE_REL = 0.25


@dataclass(frozen=True)
class OccupancyLimit:
    """One derived admission threshold and the model inputs behind it."""

    #: Largest utilisation whose analytic M/D/1 p95 meets the SLO.
    rho_star: float
    #: Queue-depth threshold: shed arrivals that would exceed it.
    depth: int
    #: The service-time estimate the derivation used (seconds).
    service_time_s: float
    #: The p95 SLO the derivation targeted (seconds).
    slo_p95_s: float
    #: Analytic p95 response at ``rho_star`` (<= the SLO by construction).
    p95_at_limit_s: float


@lru_cache(maxsize=4096)
def _unit_model(rho: float) -> Tuple[float, int]:
    """``(g, depth)`` at utilisation ``rho``: the M/D/1 p95 response at
    ``D = 1``, and the smallest depth ``n >= 1`` (capped) with
    ``P(L <= n) >= 0.95``.  The p95 at any ``D`` is ``D * g``."""
    queue = MD1Queue.from_utilisation(rho, 1.0)
    p95 = queue.p95_response_s()
    depth = 1
    while depth < _MAX_DEPTH and queue.system_size_cdf(depth) < _DEPTH_PERCENTILE:
        depth += 1
    return p95, depth


def derive_occupancy_limit(service_time_s: float, slo_p95_s: float) -> OccupancyLimit:
    """Derive the shed threshold from the M/D/1 p95 model.

    Bisection on utilisation: p95 response of an M/D/1 queue is strictly
    increasing in ``rho`` at fixed ``D``, so the largest SLO-compliant
    ``rho*`` brackets cleanly.  The bracket top is probed only once the
    bisection has converged against it.  The depth threshold is the 95th
    percentile of the stationary system size at ``rho*`` (at least 1 —
    a service that cannot meet its SLO even empty still serves one
    request at a time rather than shedding everything).
    """
    if service_time_s <= 0:
        raise ReproError(f"service time must be positive, got {service_time_s}")
    if slo_p95_s <= 0:
        raise ReproError(f"p95 SLO must be positive, got {slo_p95_s}")
    d, slo = float(service_time_s), float(slo_p95_s)
    target = slo / d
    lo = _RHO_LO
    # When even an idle queue misses the SLO (D alone exceeds it), rho*
    # stays at the bracket bottom: serial admission, and the SLO monitor
    # flags the miss.
    if _unit_model(lo)[0] <= target:
        hi = _RHO_HI
        while hi - lo > _RHO_TOL:
            mid = 0.5 * (lo + hi)
            if _unit_model(mid)[0] <= target:
                lo = mid
            else:
                hi = mid
        if hi == _RHO_HI and _unit_model(hi)[0] <= target:
            lo = hi
    g, depth = _unit_model(lo)
    return OccupancyLimit(
        rho_star=lo,
        depth=depth,
        service_time_s=d,
        slo_p95_s=slo,
        p95_at_limit_s=d * g,
    )


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit/shed verdict with the inputs that produced it.

    The request trace (:class:`repro.obs.request.RequestContext`) records
    these fields on its ``admission`` stage, so a flight-recorder dump
    shows not just *that* a request was shed but against which depth and
    threshold.
    """

    admitted: bool
    #: Queue depth the request arrived to.
    depth: int
    #: The shed threshold in force at decision time.
    depth_limit: int
    #: The EWMA service-time estimate behind that threshold (seconds).
    service_time_estimate_s: float


class AdmissionController:
    """Shed-or-admit decisions against a model-derived occupancy limit.

    ``observe(service_time_s)`` feeds measured per-request compute times
    into an EWMA (starting from a 1 ms prior); when the estimate drifts
    more than 25% from the one the current limit was derived with, the
    threshold is re-derived from the M/D/1 model.  ``admit(depth)`` is
    the hot-path check: True when a request arriving to ``depth``
    waiting computes should be admitted.
    """

    def __init__(self, slo_p95_s: float) -> None:
        self.slo_p95_s = float(slo_p95_s)
        self._estimate_s = _INITIAL_SERVICE_TIME_S
        self._limit = derive_occupancy_limit(self._estimate_s, self.slo_p95_s)
        self.shed_total = 0
        self.admitted_total = 0
        self.rederivations = 0

    @property
    def limit(self) -> OccupancyLimit:
        """The occupancy limit currently enforced."""
        return self._limit

    @property
    def service_time_estimate_s(self) -> float:
        """The EWMA per-request service-time estimate (seconds)."""
        return self._estimate_s

    def observe(self, service_time_s: float) -> None:
        """Feed one measured per-request service time into the estimate.

        Re-derives the occupancy limit when the estimate has drifted more
        than the relative tolerance from the derivation's input.
        """
        if service_time_s <= 0 or math.isnan(service_time_s):
            return
        self._estimate_s += _EWMA_ALPHA * (service_time_s - self._estimate_s)
        anchor = self._limit.service_time_s
        if abs(self._estimate_s - anchor) > _REDERIVE_REL * anchor:
            self._limit = derive_occupancy_limit(self._estimate_s, self.slo_p95_s)
            self.rederivations += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "repro_serve_admission_rederivations_total",
                    help="Occupancy-limit re-derivations from the M/D/1 model",
                ).inc()
                registry.gauge(
                    "repro_serve_admission_depth_limit",
                    help="Current model-derived shed threshold (queue depth)",
                ).set(self._limit.depth)

    def decide(self, depth: int) -> AdmissionDecision:
        """The full admit/shed verdict for a request arriving at ``depth``.

        Counts the decision (this IS the hot-path check, not a preview);
        :meth:`admit` is the boolean shorthand.
        """
        admitted = depth < self._limit.depth
        if admitted:
            self.admitted_total += 1
        else:
            self.shed_total += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "repro_serve_shed_total",
                    help="Requests shed by model-informed admission control",
                ).inc()
        return AdmissionDecision(
            admitted=admitted,
            depth=int(depth),
            depth_limit=self._limit.depth,
            service_time_estimate_s=self._estimate_s,
        )

    def admit(self, depth: int) -> bool:
        """Whether a request arriving at queue depth ``depth`` is admitted."""
        return self.decide(depth).admitted

    def stats(self) -> Dict[str, float]:
        """Controller counters and the live threshold (for ``/stats``)."""
        return {
            "depth_limit": float(self._limit.depth),
            "rho_star": self._limit.rho_star,
            "service_time_estimate_s": self._estimate_s,
            "slo_p95_s": self.slo_p95_s,
            "admitted": float(self.admitted_total),
            "shed": float(self.shed_total),
            "rederivations": float(self.rederivations),
        }
