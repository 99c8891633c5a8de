"""Discrete-event simulation of the dispatcher + cluster queue.

The paper's queueing model (Section II-B) treats the whole cluster as one
FIFO server: jobs queue at a dispatcher "until all the previous jobs have
been serviced".  This simulator is the empirical ground truth the analytic
M/D/1 results are property-tested against, and the only way to get
percentiles for general service-time distributions (M/G/1).

The single-server FIFO recursion

    start_n  = max(arrival_n, completion_{n-1})
    wait_n   = start_n - arrival_n
    completion_n = start_n + service_n

is served by the vectorized Lindley kernel from :mod:`repro.queueing.mc`
(``W = running_max(B) - B`` with ``B_n = A_n - CS_{n-1}``); the tests
compare it against the loop-carried oracle
:func:`~repro.queueing.mc.scalar_lindley_waits`.  Multi-server pools use
an earliest-free-server heap.

Inputs and the RNG-stream contract
----------------------------------
The simulator takes its inputs the way
:class:`~repro.queueing.mc.MonteCarloQueue` does, through the same
helpers: arrivals as an :class:`~repro.queueing.processes.ArrivalSpec`
or as an array of arrival times the caller already drew, and service as
a fixed time or a batch sampler ``(rng, n) -> array``.  A spec is drawn
from ``rng``: the complete arrival sequence first, then — only once
arrivals are final — one batch of service times, in arrival order.
``run_jobs(n)`` draws exactly ``n`` arrivals in one batch, so its
randomness is a pure function of the seed and ``n``, and a single-server
run on generator ``r`` of ``MonteCarloQueue.spawn_generators`` reproduces
replication ``r`` of :meth:`~repro.queueing.mc.MonteCarloQueue.simulate_waits`
bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import QueueingError
from repro.queueing.mc import (
    BatchServiceSampler,
    check_arrivals,
    check_services,
    lindley_waits,
    service_input,
)
from repro.queueing.processes import ArrivalSpec, PoissonProcess
from repro.util.stats import SummaryStats, summarize

__all__ = ["QueueSimulator", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Output of one FIFO-queue simulation run."""

    arrivals: np.ndarray
    waits: np.ndarray
    services: np.ndarray
    horizon_s: float
    n_servers: int = 1
    #: Per-server time of last completion (0.0 for servers that never
    #: served).  Populated by :class:`QueueSimulator`; optional so that
    #: hand-built results keep working.
    server_completions_s: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (len(self.arrivals) == len(self.waits) == len(self.services)):
            raise QueueingError("result arrays must have equal length")
        if self.n_servers <= 0:
            raise QueueingError("n_servers must be positive")
        if (
            self.server_completions_s is not None
            and len(self.server_completions_s) != self.n_servers
        ):
            raise QueueingError(
                "server_completions_s must have one entry per server"
            )

    @property
    def n_jobs(self) -> int:
        """Number of jobs that arrived within the horizon."""
        return int(len(self.arrivals))

    @property
    def responses(self) -> np.ndarray:
        """Response (sojourn) times: wait + service."""
        return self.waits + self.services

    @property
    def completions(self) -> np.ndarray:
        """Completion times of every job."""
        return self.arrivals + self.responses

    @property
    def busy_time_s(self) -> float:
        """Total time the servers spent serving."""
        return float(np.sum(self.services))

    @property
    def utilisation(self) -> float:
        """Per-server busy fraction over each server's *observed span*.

        A server's span runs to the later of the horizon and that server's
        own last completion, so jobs finishing after the horizon do not
        inflate utilisation above one, and — in a multi-server pool — a
        server that finished early is not charged idle time for a
        colleague's long tail job.  Without per-server completions (a
        hand-built result) the pool-wide last completion is used for every
        server, which is exact for a single server.
        """
        if self.n_jobs == 0:
            return 0.0
        if self.server_completions_s is not None:
            spans = np.maximum(self.horizon_s, self.server_completions_s)
            return self.busy_time_s / float(np.sum(spans))
        span = max(self.horizon_s, float(np.max(self.completions)))
        return self.busy_time_s / (span * self.n_servers)

    def wait_stats(self) -> SummaryStats:
        """Summary statistics of the queueing delays."""
        return summarize(self.waits)

    def response_stats(self) -> SummaryStats:
        """Summary statistics of the response times."""
        return summarize(self.responses)

    def empirical_wait_cdf(self, x: float) -> float:
        """Empirical P(W <= x)."""
        if self.n_jobs == 0:
            raise QueueingError("no jobs simulated")
        return float(np.mean(self.waits <= x))


class QueueSimulator:
    """FIFO queue simulator (single server, or a shared-queue server pool).

    Parameters
    ----------
    arrivals:
        An :class:`~repro.queueing.processes.ArrivalSpec`, drawn from
        ``rng`` on every run, or a 1-D array of arrival times (finite,
        non-negative, non-decreasing) that every run replays.
    service:
        A fixed service time in seconds (deterministic — the paper's
        M/D/1 case) or a :data:`~repro.queueing.mc.BatchServiceSampler`
        such as a :class:`~repro.queueing.processes.ServiceSpec`; a
        sampler with a non-None ``fixed_s`` takes the fixed path.
    rng:
        Generator for an arrival spec and for a service sampler; may be
        None when both inputs are deterministic.
    n_servers:
        Number of parallel servers sharing the FIFO queue (1 reproduces the
        paper's whole-cluster-as-one-server dispatcher; larger values model
        a cluster partitioned into independent job slots).
    """

    def __init__(
        self,
        arrivals: Union[ArrivalSpec, np.ndarray],
        service: Union[float, BatchServiceSampler],
        rng: Optional[np.random.Generator] = None,
        *,
        n_servers: int = 1,
    ) -> None:
        if n_servers <= 0:
            raise QueueingError(f"n_servers must be positive, got {n_servers}")
        self._n_servers = int(n_servers)
        if isinstance(arrivals, ArrivalSpec):
            if rng is None:
                raise QueueingError("an arrival process spec needs an RNG")
            self._arrivals: Union[ArrivalSpec, np.ndarray] = arrivals
        else:
            self._arrivals = check_arrivals(arrivals)
        self._service_fixed, self._sampler = service_input(service)
        if self._sampler is not None and rng is None:
            raise QueueingError("a random service model needs an RNG")
        self._rng = rng

    @classmethod
    def md1(
        cls,
        arrival_rate: float,
        service_time_s: float,
        rng: np.random.Generator,
        **kwargs: object,
    ) -> "QueueSimulator":
        """Convenience constructor mirroring :class:`~repro.queueing.md1.MD1Queue`."""
        return cls(PoissonProcess(arrival_rate), service_time_s, rng, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sample_services(self, n: int) -> np.ndarray:
        """One batch of ``n`` service times, in arrival order."""
        if self._service_fixed is not None:
            return np.full(n, self._service_fixed)
        return check_services(self._sampler(self._rng, n), n)

    def _serve(self, arrivals: np.ndarray, horizon_s: float) -> SimulationResult:
        """Serve a finalised arrival sequence to completion."""
        n = len(arrivals)
        if n == 0:
            return SimulationResult(
                arrivals=np.empty(0),
                waits=np.empty(0),
                services=np.empty(0),
                horizon_s=horizon_s,
                n_servers=self._n_servers,
                server_completions_s=np.zeros(self._n_servers),
            )
        services = self._sample_services(n)
        if self._n_servers == 1:
            if self._service_fixed is not None:
                waits = lindley_waits(arrivals, self._service_fixed)
            else:
                waits = lindley_waits(arrivals, services)
            server_completions = np.array(
                [arrivals[-1] + waits[-1] + services[-1]]
            )
        else:
            waits, server_completions = self._serve_pool(arrivals, services)
        return SimulationResult(
            arrivals=arrivals,
            waits=waits,
            services=services,
            horizon_s=horizon_s,
            n_servers=self._n_servers,
            server_completions_s=server_completions,
        )

    def _serve_pool(
        self, arrivals: np.ndarray, services: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Multi-server FIFO: each job takes the earliest-free server."""
        n = len(arrivals)
        waits = np.empty(n)
        free_at = [0.0] * self._n_servers
        heapq.heapify(free_at)
        for i in range(n):
            earliest = heapq.heappop(free_at)
            start = arrivals[i] if arrivals[i] > earliest else earliest
            waits[i] = start - arrivals[i]
            heapq.heappush(free_at, start + services[i])
        return waits, np.asarray(free_at, dtype=float)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, horizon_s: float) -> SimulationResult:
        """Simulate all arrivals in [0, horizon) and serve them to completion."""
        if horizon_s <= 0:
            raise QueueingError(f"horizon must be positive, got {horizon_s}")
        if isinstance(self._arrivals, ArrivalSpec):
            arrivals = self._arrivals.arrivals_until(self._rng, horizon_s)
        else:
            arrivals = self._arrivals[self._arrivals < horizon_s]
        return self._serve(arrivals, horizon_s)

    def run_jobs(self, n_jobs: int) -> SimulationResult:
        """Simulate exactly the first ``n_jobs`` arrivals.

        Percentile estimates need a controlled sample size.  A spec draws
        exactly ``n_jobs`` arrivals in one batch, then one batch of
        services, so the result is a pure function of the seed and
        ``n_jobs``; an arrival array must hold at least ``n_jobs`` times.
        """
        if n_jobs <= 0:
            raise QueueingError(f"n_jobs must be positive, got {n_jobs}")
        if isinstance(self._arrivals, ArrivalSpec):
            arrivals = check_arrivals(
                self._arrivals.sample_arrivals(self._rng, n_jobs), n_jobs
            )
        elif len(self._arrivals) < n_jobs:
            raise QueueingError(
                f"arrival array holds {len(self._arrivals)} jobs, "
                f"fewer than {n_jobs}"
            )
        else:
            arrivals = self._arrivals[:n_jobs]
        return self._serve(arrivals, float(arrivals[-1]) + 1e-12)
