"""Vectorized Monte-Carlo queue engine.

The discrete-event simulator in :mod:`repro.queueing.des` advances the
single-server FIFO recursion one job at a time::

    start_n      = max(arrival_n, completion_{n-1})
    completion_n = start_n + service_n

The loop-carried dependency makes it a pure-Python bottleneck, which caps
the replication counts the statistical validation of the paper's
95th-percentile claims can afford.  This module removes the loop with the
vectorized Lindley form.  Writing ``CS_n = sum_{j<=n} S_j`` for the service
cumsum, the completion time of job ``n`` is

    C_n = CS_n + max_{k<=n} (A_k - CS_{k-1})

so with ``B_n = A_n - CS_{n-1}`` the waiting times collapse to

    W_n = C_n - S_n - A_n = running_max(B)_n - B_n

— three elementwise passes plus one :func:`numpy.maximum.accumulate`, no
Python loop.  The scalar recursion is kept here as
:func:`scalar_lindley_waits`, the oracle the vectorized kernel is
property-tested against (agreement within ``1e-12`` of the simulated span;
the two differ only by cumulative-sum round-off, which is O(n*eps*T)).

Replications
------------
:class:`MonteCarloQueue` runs batched replications: ``n_reps`` independent
simulations of ``n_jobs`` jobs each, as rows of a conceptual ``(reps, jobs)``
array.  Each replication draws from its own :class:`numpy.random.Generator`
seeded via ``SeedSequence.spawn`` from a single root seed, so results are
reproducible and independent of replication execution order.  Within one
replication the randomness contract is: first one batch of ``n_jobs``
inter-arrival gaps, then (for random service) one batch of ``n_jobs``
service times — arrivals are finalised before any service draw.

The per-replication wait/response vectors are reduced on the fly (the
working set stays cache-resident); :class:`ReplicatedResult` keeps the
per-replication percentiles, utilisation and busy/idle split, and derives
mean estimates with normal (Student-t) and bootstrap confidence intervals
for the cross-validation harness in
:mod:`repro.experiments.validation_mc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (processes imports mc)
    from repro.queueing.processes import ArrivalSpec

from repro.errors import QueueingError
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.util.rng import DEFAULT_SEED

__all__ = [
    "BatchServiceSampler",
    "check_arrivals",
    "check_services",
    "service_input",
    "lindley_waits",
    "scalar_lindley_waits",
    "waits_agreement",
    "ExponentialService",
    "UniformService",
    "exponential_service",
    "uniform_service",
    "ConfidenceInterval",
    "ReplicatedResult",
    "SliceStats",
    "MonteCarloQueue",
]

#: A batched service sampler: given an RNG and a count, return that many
#: service times (seconds) in one vectorized draw.
BatchServiceSampler = Callable[[np.random.Generator, int], np.ndarray]

#: Percentiles every replication records (the paper reports p95; p50/p99
#: bracket the tail for the validation report).
TRACKED_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def lindley_waits(arrivals: np.ndarray, services: Union[float, np.ndarray]) -> np.ndarray:
    """Waiting times of a single-server FIFO queue, vectorized.

    Accepts 1-D arrays (one replication) or 2-D ``(reps, jobs)`` arrays
    batched along the last axis.  ``services`` may be a scalar (the
    deterministic M/D/1 case) or an array matching ``arrivals``.
    """
    a = np.asarray(arrivals, dtype=float)
    if a.size == 0:
        return np.zeros_like(a)
    if np.isscalar(services) or np.ndim(services) == 0:
        d = float(services)
        # CS_{n-1} = d * (n - 1): no service array needed.
        b = a - d * np.arange(a.shape[-1], dtype=float)
    else:
        s = np.asarray(services, dtype=float)
        if s.shape != a.shape:
            raise QueueingError(
                f"arrival/service shape mismatch: {a.shape} vs {s.shape}"
            )
        cs_prev = np.cumsum(s, axis=-1) - s
        b = a - cs_prev
    m = np.maximum.accumulate(b, axis=-1)
    return m - b


def scalar_lindley_waits(
    arrivals: np.ndarray, services: Union[float, np.ndarray]
) -> np.ndarray:
    """The loop-carried FIFO recursion — the oracle for :func:`lindley_waits`.

    This is the exact per-job recursion the discrete-event simulator used
    before the vectorized fast path existed; it is kept as the reference
    the kernel is property-tested (and benchmarked) against.
    """
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1:
        raise QueueingError("the scalar oracle handles one replication at a time")
    n = a.size
    if np.isscalar(services) or np.ndim(services) == 0:
        s = np.full(n, float(services))
    else:
        s = np.asarray(services, dtype=float)
    waits = np.empty(n)
    completion = 0.0
    for i in range(n):
        arrival = a[i]
        start = arrival if arrival > completion else completion
        waits[i] = start - arrival
        completion = start + s[i]
    return waits


def waits_agreement(
    vectorized: np.ndarray, scalar: np.ndarray, arrivals: np.ndarray,
    services: Union[float, np.ndarray],
) -> float:
    """Span-normalised disagreement between the two kernels.

    The kernels compute identical quantities in different summation orders,
    so their difference is bounded by the round-off of a length-n cumulative
    sum — an *absolute* error proportional to the simulated span.  The
    engine's contract is therefore stated scale-free::

        max |W_vec - W_scalar| / max(1, span)  <=  1e-12

    where ``span`` is the last completion time.
    """
    v = np.asarray(vectorized, dtype=float)
    s = np.asarray(scalar, dtype=float)
    if v.size == 0:
        return 0.0
    a = np.asarray(arrivals, dtype=float)
    last_service = (
        float(services) if np.ndim(services) == 0 else float(np.asarray(services).flat[-1])
    )
    span = float(a.flat[-1] + s.flat[-1] + last_service)
    return float(np.max(np.abs(v - s)) / max(1.0, span))


# ----------------------------------------------------------------------
# Inputs shared by both queue engines
# ----------------------------------------------------------------------
def service_input(
    service: Union[float, BatchServiceSampler],
) -> Tuple[Optional[float], Optional[BatchServiceSampler]]:
    """Split a service argument into ``(fixed_s, sampler)``, one of them None.

    A float is a deterministic service time; a callable is a
    :data:`BatchServiceSampler`, except that one exposing a non-None
    ``fixed_s`` (:class:`repro.queueing.processes.DeterministicService`)
    takes the fixed path and consumes no service draws.
    """
    if callable(service):
        fixed = getattr(service, "fixed_s", None)
        if fixed is None:
            return None, service
        return float(fixed), None
    if not 0.0 < service < np.inf:  # NaN fails both comparisons
        raise QueueingError(
            f"service time must be positive and finite, got {service}"
        )
    return float(service), None


def check_services(services: np.ndarray, n: int) -> np.ndarray:
    """One sampler batch as a float array of ``n`` positive service times."""
    services = np.asarray(services, dtype=float)
    if services.shape != (n,):
        raise QueueingError(
            f"service sampler returned shape {services.shape}, expected ({n},)"
        )
    if np.any(services <= 0):
        raise QueueingError("service sampler produced a non-positive time")
    return services


def check_arrivals(arrivals: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """Arrival times as a 1-D float array: finite, non-negative and
    non-decreasing, and of length ``n`` when ``n`` is given."""
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1 or (n is not None and a.shape != (n,)):
        expected = "a 1-D array" if n is None else f"shape ({n},)"
        raise QueueingError(f"arrival times have shape {a.shape}, expected {expected}")
    if a.size and (
        not np.all(np.isfinite(a)) or a[0] < 0 or np.any(a[1:] < a[:-1])
    ):
        raise QueueingError(
            "arrival times must be finite, non-negative and non-decreasing"
        )
    return a


# ----------------------------------------------------------------------
# Service samplers
# ----------------------------------------------------------------------
# Samplers are callable *classes* rather than closures so a configured
# MonteCarloQueue pickles cleanly into repro.parallel worker processes
# (a closure cannot cross a process boundary).  The factory functions
# below keep the original construction API.
class ExponentialService:
    """Exponential service times with a given mean (M/M/1 service)."""

    __slots__ = ("mean_s",)

    def __init__(self, mean_s: float) -> None:
        if mean_s <= 0:
            raise QueueingError(f"mean service time must be positive, got {mean_s}")
        self.mean_s = float(mean_s)

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.mean_s, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExponentialService(mean_s={self.mean_s!r})"


class UniformService:
    """Uniform service times on ``[low_s, high_s)`` — bounded variability."""

    __slots__ = ("low_s", "high_s")

    def __init__(self, low_s: float, high_s: float) -> None:
        if not 0 < low_s <= high_s:
            raise QueueingError(f"need 0 < low <= high, got ({low_s}, {high_s})")
        self.low_s = float(low_s)
        self.high_s = float(high_s)

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low_s, self.high_s, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformService(low_s={self.low_s!r}, high_s={self.high_s!r})"


def exponential_service(mean_s: float) -> BatchServiceSampler:
    """Exponential service times with the given mean (M/M/1 service)."""
    return ExponentialService(mean_s)


def uniform_service(low_s: float, high_s: float) -> BatchServiceSampler:
    """Uniform service times on ``[low_s, high_s)`` — bounded variability."""
    return UniformService(low_s, high_s)


# ----------------------------------------------------------------------
# Replicated results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean estimate with a two-sided confidence interval."""

    mean: float
    lo: float
    hi: float
    level: float
    method: str

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return 0.5 * (self.hi - self.lo)


@dataclass(frozen=True)
class ReplicatedResult:
    """Per-replication statistics of a batched Monte-Carlo run.

    All arrays have length ``n_reps``.  Response-time percentiles and means
    are computed on the post-warm-up jobs; the utilisation and busy/idle
    split cover the full replication span (the energy accounting needs the
    whole busy period, not just the measured window).
    """

    n_jobs: int
    n_reps: int
    warmup_jobs: int
    arrival_rate: float
    #: (n_percentiles, n_reps) response-time percentiles, rows ordered as
    #: :data:`TRACKED_PERCENTILES`.
    response_percentiles_s: np.ndarray
    mean_response_s: np.ndarray
    mean_wait_s: np.ndarray
    utilisation: np.ndarray
    busy_time_s: np.ndarray
    idle_time_s: np.ndarray
    span_s: np.ndarray

    def __post_init__(self) -> None:
        if self.n_reps < 1:
            raise QueueingError("need at least one replication")
        expected = (len(TRACKED_PERCENTILES), self.n_reps)
        if self.response_percentiles_s.shape != expected:
            raise QueueingError(
                f"percentile matrix must be {expected}, "
                f"got {self.response_percentiles_s.shape}"
            )

    # -- access ---------------------------------------------------------
    def percentile_samples(self, q: float) -> np.ndarray:
        """Per-replication estimates of the ``q``-th response percentile."""
        for i, tracked in enumerate(TRACKED_PERCENTILES):
            if abs(tracked - q) < 1e-9:
                return self.response_percentiles_s[i]
        raise QueueingError(
            f"percentile {q} not tracked; available: {TRACKED_PERCENTILES}"
        )

    @property
    def p50_s(self) -> np.ndarray:
        """Per-replication median response times."""
        return self.percentile_samples(50.0)

    @property
    def p95_s(self) -> np.ndarray:
        """Per-replication 95th-percentile response times — the paper's
        Figures 9-12 metric."""
        return self.percentile_samples(95.0)

    @property
    def p99_s(self) -> np.ndarray:
        """Per-replication 99th-percentile response times."""
        return self.percentile_samples(99.0)

    # -- interval estimates ---------------------------------------------
    def _mean_ci_normal(self, samples: np.ndarray, level: float) -> ConfidenceInterval:
        from scipy import stats

        r = samples.size
        mean = float(samples.mean())
        if r < 2:
            raise QueueingError("normal CI needs at least 2 replications")
        half = float(
            stats.t.ppf(0.5 + level / 2.0, df=r - 1) * samples.std(ddof=1) / np.sqrt(r)
        )
        return ConfidenceInterval(mean, mean - half, mean + half, level, "normal")

    def _mean_ci_bootstrap(
        self, samples: np.ndarray, level: float, n_resamples: int, seed: int
    ) -> ConfidenceInterval:
        r = samples.size
        if r < 2:
            raise QueueingError("bootstrap CI needs at least 2 replications")
        rng = np.random.default_rng(np.random.SeedSequence([seed, r, n_resamples]))
        idx = rng.integers(0, r, size=(n_resamples, r))
        means = samples[idx].mean(axis=1)
        alpha = (1.0 - level) / 2.0
        lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
        return ConfidenceInterval(
            float(samples.mean()), float(lo), float(hi), level, "bootstrap"
        )

    def percentile_ci(
        self,
        q: float = 95.0,
        *,
        level: float = 0.99,
        method: str = "normal",
        n_resamples: int = 2000,
        seed: int = DEFAULT_SEED,
    ) -> ConfidenceInterval:
        """CI for the mean ``q``-th response percentile across replications.

        ``method`` is ``"normal"`` (Student-t over the per-replication
        estimates) or ``"bootstrap"`` (percentile bootstrap over
        replications).
        """
        if not 0.0 < level < 1.0:
            raise QueueingError(f"confidence level must be in (0, 1), got {level}")
        samples = self.percentile_samples(q)
        if method == "normal":
            return self._mean_ci_normal(samples, level)
        if method == "bootstrap":
            return self._mean_ci_bootstrap(samples, level, n_resamples, seed)
        raise QueueingError(f"unknown CI method {method!r}")

    def mean_response_ci(
        self, *, level: float = 0.99, method: str = "normal"
    ) -> ConfidenceInterval:
        """CI for the mean response time across replications."""
        if method == "normal":
            return self._mean_ci_normal(self.mean_response_s, level)
        if method == "bootstrap":
            return self._mean_ci_bootstrap(
                self.mean_response_s, level, 2000, DEFAULT_SEED
            )
        raise QueueingError(f"unknown CI method {method!r}")

    @property
    def mean_utilisation(self) -> float:
        """Mean per-replication busy fraction."""
        return float(self.utilisation.mean())

    @property
    def busy_fraction(self) -> float:
        """Pooled busy time over pooled span — the energy-accounting split."""
        return float(self.busy_time_s.sum() / self.span_s.sum())


@dataclass(frozen=True)
class SliceStats:
    """Reduced statistics of the replication slice ``[start, stop)``.

    The picklable unit of work :mod:`repro.parallel.mc` ships between
    processes: every array has length ``stop - start`` and holds exactly
    the per-replication reductions :meth:`MonteCarloQueue.run` computes,
    for the slice's replications only.  Because replication ``r`` always
    draws from stream ``r`` of ``SeedSequence(seed).spawn(n_reps)``,
    slices reassemble into a :class:`ReplicatedResult` that is
    bit-identical to a serial run regardless of how the slices were cut
    or which process computed them.
    """

    start: int
    stop: int
    warmup_jobs: int
    response_percentiles_s: np.ndarray
    mean_response_s: np.ndarray
    mean_wait_s: np.ndarray
    utilisation: np.ndarray
    busy_time_s: np.ndarray
    idle_time_s: np.ndarray
    span_s: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise QueueingError(
                f"need 0 <= start < stop, got [{self.start}, {self.stop})"
            )
        expected = (len(TRACKED_PERCENTILES), self.stop - self.start)
        if self.response_percentiles_s.shape != expected:
            raise QueueingError(
                f"slice percentile matrix must be {expected}, "
                f"got {self.response_percentiles_s.shape}"
            )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class MonteCarloQueue:
    """Batched Monte-Carlo simulation of the paper's dispatcher queue.

    Parameters
    ----------
    arrival_rate:
        Either a Poisson arrival rate ``lambda_job`` (jobs/s) or an
        arrival process object from :mod:`repro.queueing.processes`
        (anything with a ``rate`` attribute and a
        ``sample_arrivals(rng, n)`` method).  A process reporting a
        non-None ``poisson_rate()`` takes the engine's preallocated
        Poisson fast path, which consumes identical randomness.
    service:
        Either a fixed service time in seconds (the paper's deterministic
        T_P — an M/D/1 queue) or a :data:`BatchServiceSampler` for general
        service distributions.  A sampler exposing a non-None ``fixed_s``
        (``repro.queueing.processes.DeterministicService``) takes the
        exact deterministic reductions — the plug-in form is a pure
        refactor of the M/D/1 case.
    seed:
        Root seed; each replication's generator is spawned from it.
    warmup_fraction:
        Fraction of each replication's jobs discarded from the response
        statistics to remove the empty-start transient (utilisation and the
        busy/idle split still cover the full span).
    """

    def __init__(
        self,
        arrival_rate: Union[float, "ArrivalSpec"],
        service: Union[float, BatchServiceSampler],
        *,
        seed: int = DEFAULT_SEED,
        warmup_fraction: float = 0.1,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise QueueingError(
                f"warmup fraction must be in [0, 1), got {warmup_fraction}"
            )
        if isinstance(arrival_rate, (int, float, np.integer, np.floating)):
            if arrival_rate <= 0:
                raise QueueingError(
                    f"arrival rate must be positive, got {arrival_rate}"
                )
            self._arrivals: Optional[object] = None
            self._rate = float(arrival_rate)
        else:
            rate = getattr(arrival_rate, "rate", None)
            if rate is None or not callable(
                getattr(arrival_rate, "sample_arrivals", None)
            ):
                raise QueueingError(
                    "arrival_rate must be a number or an arrival process "
                    "with .rate and .sample_arrivals(rng, n) "
                    f"(got {type(arrival_rate).__name__})"
                )
            poisson = getattr(arrival_rate, "poisson_rate", lambda: None)()
            # An exactly-Poisson process takes the in-place buffer path,
            # which draws the same stream the same way (pinned by
            # tests/queueing/test_processes.py).
            self._arrivals = None if poisson is not None else arrival_rate
            self._rate = float(rate)
        self._service_fixed, self._sampler = service_input(service)
        self._seed = int(seed)
        self._warmup_fraction = float(warmup_fraction)

    # -- constructors ----------------------------------------------------
    @classmethod
    def md1(
        cls, arrival_rate: float, service_time_s: float, **kwargs: object
    ) -> "MonteCarloQueue":
        """The paper's M/D/1 queue (deterministic service at T_P)."""
        return cls(arrival_rate, float(service_time_s), **kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_utilisation(
        cls, utilisation: float, service_time_s: float, **kwargs: object
    ) -> "MonteCarloQueue":
        """Build the M/D/1 queue achieving a target utilisation
        (``U = T_P * lambda_job`` inverted, like
        :meth:`repro.queueing.md1.MD1Queue.from_utilisation`)."""
        if not 0.0 < utilisation < 1.0:
            raise QueueingError(f"utilisation must be in (0, 1), got {utilisation}")
        return cls(
            utilisation / service_time_s, float(service_time_s), **kwargs  # type: ignore[arg-type]
        )

    # -- properties ------------------------------------------------------
    @property
    def arrival_rate(self) -> float:
        """Long-run mean arrival rate (jobs/s)."""
        return self._rate

    @property
    def arrival_process(self) -> Optional[object]:
        """The arrival process object, or None on the Poisson fast path."""
        return self._arrivals

    @property
    def service_time_s(self) -> Optional[float]:
        """The deterministic service time, or None for random service."""
        return self._service_fixed

    @property
    def utilisation(self) -> Optional[float]:
        """``lambda * D`` for deterministic service, else None."""
        if self._service_fixed is None:
            return None
        return self._rate * self._service_fixed

    def spawn_generators(self, n_reps: int) -> list[np.random.Generator]:
        """The per-replication generators (exposed for reproducibility
        tests): stream ``r`` is ``default_rng(SeedSequence(seed).spawn(n)[r])``."""
        root = np.random.SeedSequence(self._seed)
        return [np.random.default_rng(child) for child in root.spawn(n_reps)]

    # -- simulation ------------------------------------------------------
    def _iter_waits(self, n_jobs: int, n_reps: int, start: int = 0,
                    stop: Optional[int] = None):
        """Yield ``(arrivals, services, waits)`` for replications
        ``[start, stop)`` of an ``n_reps``-replication run.

        The vectorized hot path: every array except the sampler's service
        draw lives in buffers reused across replications (one replication's
        working set stays cache-resident, and no per-rep page faulting).
        Consumers must reduce or copy each yield before advancing — the
        buffers are overwritten by the next replication.

        The slice bounds exist for :mod:`repro.parallel.mc`: all ``n_reps``
        generators are spawned (stream identity depends on the *total*
        replication count, never on the slice) and only the slice's streams
        are simulated.
        """
        registry = get_registry()
        rep_counter = jobs_counter = reuse_counter = None
        if registry.enabled:
            rep_counter = registry.counter(
                "repro_mc_replications_total",
                help="Monte-Carlo replication batches simulated",
            )
            jobs_counter = registry.counter(
                "repro_mc_jobs_simulated_total",
                help="Jobs pushed through the vectorized Lindley kernel",
            )
            reuse_counter = registry.counter(
                "repro_mc_buffer_reuses_total",
                help="Replications served from the preallocated work buffers",
            )
        gaps = np.empty(n_jobs)
        arrivals = np.empty(n_jobs)
        b = np.empty(n_jobs)
        waits = np.empty(n_jobs)
        if self._service_fixed is not None:
            # CS_{n-1} for deterministic service, shared by every rep.
            drift = self._service_fixed * np.arange(n_jobs, dtype=float)
        else:
            cs_prev = np.empty(n_jobs)
        inv_rate = 1.0 / self._rate
        generators = self.spawn_generators(n_reps)[start:stop]
        for rep_index, rng in enumerate(generators):
            if self._arrivals is None:
                rng.standard_exponential(n_jobs, out=gaps)
                np.multiply(gaps, inv_rate, out=gaps)
                np.cumsum(gaps, out=arrivals)
            else:
                # Copy into the shared buffer so the Lindley passes below
                # stay in-place regardless of the process.  Arrivals are
                # fully drawn before any service draw (the contract).
                arrivals[:] = check_arrivals(
                    self._arrivals.sample_arrivals(rng, n_jobs), n_jobs  # type: ignore[union-attr]
                )
            if self._service_fixed is not None:
                services: Union[float, np.ndarray] = self._service_fixed
                np.subtract(arrivals, drift, out=b)
            else:
                services = check_services(self._sampler(rng, n_jobs), n_jobs)  # type: ignore[misc]
                np.cumsum(services, out=cs_prev)
                np.subtract(cs_prev, services, out=cs_prev)
                np.subtract(arrivals, cs_prev, out=b)
            np.maximum.accumulate(b, out=waits)
            np.subtract(waits, b, out=waits)
            if rep_counter is not None:
                rep_counter.inc()
                jobs_counter.inc(n_jobs)
                if rep_index:
                    reuse_counter.inc()
            yield arrivals, services, waits

    def simulate_waits(self, n_jobs: int, n_reps: int) -> np.ndarray:
        """All replications' waiting times as a ``(n_reps, n_jobs)`` array.

        Row ``r`` is what :class:`repro.queueing.des.QueueSimulator` gives
        for the same arrivals and service on generator ``r`` of
        :meth:`spawn_generators` (pinned by ``tests/queueing/test_des.py``).
        """
        if n_jobs <= 0:
            raise QueueingError(f"n_jobs must be positive, got {n_jobs}")
        if n_reps <= 0:
            raise QueueingError(f"n_reps must be positive, got {n_reps}")
        out = np.empty((n_reps, n_jobs))
        with span("mc.simulate_waits", n_jobs=n_jobs, n_reps=n_reps):
            for r, (_, _, waits) in enumerate(self._iter_waits(n_jobs, n_reps)):
                out[r] = waits
        return out

    def _warmup_jobs(self, n_jobs: int) -> int:
        warmup = int(self._warmup_fraction * n_jobs)
        if warmup >= n_jobs:
            warmup = n_jobs - 1
        return warmup

    def run_slice(
        self, n_jobs: int, n_reps: int, start: int, stop: int
    ) -> SliceStats:
        """Simulate and reduce replications ``[start, stop)`` of an
        ``n_reps``-replication run.

        The worker-side half of :meth:`run`: identical arithmetic, on a
        contiguous slice of the replication streams.  A serial
        :meth:`run` is literally ``run_slice(n_jobs, n_reps, 0, n_reps)``
        rewrapped, which is what makes parallel fan-out bit-identical to
        the serial path — both perform the same reductions on the same
        streams, only the process doing the work differs.
        """
        if n_jobs <= 0:
            raise QueueingError(f"n_jobs must be positive, got {n_jobs}")
        if n_reps <= 0:
            raise QueueingError(f"n_reps must be positive, got {n_reps}")
        if not 0 <= start < stop <= n_reps:
            raise QueueingError(
                f"need 0 <= start < stop <= n_reps, got [{start}, {stop}) "
                f"of {n_reps}"
            )
        warmup = self._warmup_jobs(n_jobs)
        width = stop - start

        pct = np.empty((len(TRACKED_PERCENTILES), width))
        mean_resp = np.empty(width)
        mean_wait = np.empty(width)
        util = np.empty(width)
        busy = np.empty(width)
        idle = np.empty(width)
        spans = np.empty(width)
        q = np.asarray(TRACKED_PERCENTILES)

        with span("mc.run_slice", n_jobs=n_jobs, n_reps=n_reps,
                  start=start, stop=stop):
            for r, (arrivals, services, waits) in enumerate(
                self._iter_waits(n_jobs, n_reps, start, stop)
            ):
                if self._service_fixed is not None:
                    d = self._service_fixed
                    busy_r = n_jobs * d
                    measured = waits[warmup:]
                    # R = W + D exactly: percentiles shift by D.
                    pct[:, r] = np.percentile(measured, q) + d
                    mean_wait[r] = measured.mean()
                    mean_resp[r] = mean_wait[r] + d
                    last_completion = arrivals[-1] + waits[-1] + d
                else:
                    responses = waits + services
                    busy_r = float(services.sum())
                    measured = responses[warmup:]
                    pct[:, r] = np.percentile(measured, q)
                    mean_resp[r] = measured.mean()
                    mean_wait[r] = waits[warmup:].mean()
                    last_completion = arrivals[-1] + waits[-1] + services[-1]
                spans[r] = last_completion
                busy[r] = busy_r
                idle[r] = last_completion - busy_r
                util[r] = busy_r / last_completion
        return SliceStats(
            start=start,
            stop=stop,
            warmup_jobs=warmup,
            response_percentiles_s=pct,
            mean_response_s=mean_resp,
            mean_wait_s=mean_wait,
            utilisation=util,
            busy_time_s=busy,
            idle_time_s=idle,
            span_s=spans,
        )

    def run(
        self, n_jobs: int, n_reps: int, *, workers: Optional[int] = None
    ) -> ReplicatedResult:
        """Run ``n_reps`` independent replications of ``n_jobs`` jobs each.

        Each replication is reduced to its tracked percentiles, means and
        busy/idle split immediately, while its arrays are cache-hot; the
        full ``(reps, jobs)`` wait matrix is never materialised (use
        :meth:`simulate_waits` when the raw waits are needed).

        ``workers`` fans the replications out across a process pool via
        :mod:`repro.parallel.mc` (``None``/``1`` runs in-process, ``0``
        means one worker per available CPU).  Replication ``r`` always
        consumes stream ``r`` of ``SeedSequence(seed).spawn(n_reps)``, so
        the result is **bit-identical at any worker count** — pinned by
        ``tests/parallel/test_mc_parallel.py`` and the hypothesis
        invariants in ``tests/properties/test_parallel_invariants.py``.
        """
        if workers is not None and workers != 1:
            from repro.parallel.mc import run_parallel

            return run_parallel(self, n_jobs, n_reps, workers=workers)
        with span("mc.run", n_jobs=n_jobs, n_reps=n_reps):
            stats = self.run_slice(n_jobs, n_reps, 0, n_reps)
        return ReplicatedResult(
            n_jobs=n_jobs,
            n_reps=n_reps,
            warmup_jobs=stats.warmup_jobs,
            arrival_rate=self._rate,
            response_percentiles_s=stats.response_percentiles_s,
            mean_response_s=stats.mean_response_s,
            mean_wait_s=stats.mean_wait_s,
            utilisation=stats.utilisation,
            busy_time_s=stats.busy_time_s,
            idle_time_s=stats.idle_time_s,
            span_s=stats.span_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        service = (
            f"D={self._service_fixed:.6g}s"
            if self._service_fixed is not None
            else "service=<sampler>"
        )
        arrivals = (
            "Poisson" if self._arrivals is None else type(self._arrivals).__name__
        )
        return (
            f"MonteCarloQueue({arrivals} lambda={self._rate:.6g}/s, "
            f"{service}, seed={self._seed})"
        )
