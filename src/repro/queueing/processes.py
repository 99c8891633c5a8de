"""Pluggable stochastic arrival and service processes.

Every load-bearing statistical claim in this reproduction (the Table 6
PPR winners, the Fig. 9 EP-vs-x264 contrast, the scheduler oracle gap)
was originally derived under Poisson arrivals and deterministic service
— exactly M/D/1.  This module makes the process assumptions a pluggable
axis: arrival and service processes become small picklable objects
behind one *seeded-stream protocol*, consumed by
:class:`repro.queueing.mc.MonteCarloQueue`, :mod:`repro.queueing.des`
and the scheduler trace replay (:mod:`repro.scheduler.engine`), so the
robustness study (:mod:`repro.experiments.robustness`) can re-ask the
paper's questions off the M/D/1 assumption.

The seeded-stream protocol
--------------------------
A process never owns randomness.  It is handed a
:class:`numpy.random.Generator` and draws a batch:

* :class:`ArrivalSpec.sample_arrivals(rng, n)` returns the first ``n``
  arrival times (seconds, non-decreasing, starting after 0), and
  :meth:`ArrivalSpec.arrivals_until(rng, horizon_s)` those inside a
  horizon;
* :class:`ServiceSpec.__call__(rng, size)` returns ``size`` service
  times — the :data:`repro.queueing.mc.BatchServiceSampler` shape.

Two rules make the plug-ins compose with the replication seeding and
the parallel layer:

* **S2 (horizon independence, extended):** the *number and order* of
  raw draws a process consumes is a pure function of ``n`` — never of
  the values drawn.  PR 2 stated S2 for plain Poisson arrivals; here it
  extends to modulated processes: the MMPP regime chain, the
  flash-crowd episode position and the trace inversion all consume a
  fixed draw budget per batch, so replication ``r`` of an ``n``-job run
  reads the same stream positions no matter which process produced the
  values before it.
* **Arrivals before service:** within one replication the engine draws
  the full arrival batch first, then the full service batch
  (:mod:`repro.queueing.mc`'s contract).  Processes must not interleave.

Both rules together are what keep ``workers in {1, 2, 4}`` runs
bit-identical to serial for *every* process type (pinned by
``tests/properties/test_process_invariants.py``).

Mean matching
-------------
All arrival processes honour a long-run mean rate ``rate`` and all
service processes a mean ``mean_s``, so swapping the process changes
*variability and correlation only* — utilisation, and therefore the
energy accounting, stays comparable across the grid.

Interval arrivals
-----------------
The scheduler engine draws arrivals per replay interval rather than per
job; :class:`IntervalArrivals` is the matching protocol
(:class:`PoissonIntervalArrivals` reproduces the engine's historical
draws bit-for-bit).  These models may carry regime state across
intervals; :meth:`IntervalArrivals.reset` rewinds them at run start so
a scheduler replay stays a pure function of its seed.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import QueueingError
from repro.queueing.mc import ExponentialService as _BaseExponentialService

__all__ = [
    "ARRIVAL_KINDS",
    "SERVICE_KINDS",
    "INTERVAL_ARRIVAL_KINDS",
    "ArrivalSpec",
    "ServiceSpec",
    "PoissonProcess",
    "MarkovModulatedPoisson",
    "FlashCrowd",
    "TraceDrivenArrivals",
    "DeterministicService",
    "ExponentialService",
    "ParetoService",
    "LognormalService",
    "IntervalArrivals",
    "PoissonIntervalArrivals",
    "ModulatedIntervalArrivals",
    "FlashIntervalArrivals",
    "make_arrivals",
    "make_service",
    "make_interval_arrivals",
]

#: Arrival process kinds of the robustness grid, in report order.
ARRIVAL_KINDS = ("poisson", "mmpp", "flash-crowd", "diurnal")

#: Service process kinds of the robustness grid, in report order.
SERVICE_KINDS = ("deterministic", "exponential", "lognormal", "pareto")

#: Interval-level arrival models the scheduler engine understands.
INTERVAL_ARRIVAL_KINDS = ("poisson", "mmpp", "flash-crowd")

_EMPTY = np.empty(0)


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------
class ArrivalSpec(abc.ABC):
    """A seeded-stream arrival process.

    Concrete processes expose a ``rate`` attribute (the long-run mean
    arrival rate in jobs/s) and draw batches of arrival times from a
    generator they are handed.  Draw consumption must be a pure
    function of ``n`` (rule S2 above).
    """

    __slots__ = ()

    @abc.abstractmethod
    def sample_arrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The first ``n`` arrival times (seconds, non-decreasing)."""

    def arrivals_until(self, rng: np.random.Generator, horizon_s: float) -> np.ndarray:
        """All arrival times in ``[0, horizon_s)``.

        Draws one batch sized to cover the horizon (expected count plus
        six standard deviations) and keeps its head.  In the rare tail
        case it draws a fresh batch of twice the size rather than
        appending one: a modulated process's batch is not the
        concatenation of shorter batches, so only a redraw is a valid
        top-up.
        """
        if horizon_s <= 0:
            raise QueueingError(f"horizon must be positive, got {horizon_s}")
        expected = self.rate * horizon_s
        n = int(expected + 6.0 * np.sqrt(expected) + 16)
        for _ in range(64):
            times = self.sample_arrivals(rng, n)
            if float(times[-1]) >= horizon_s:
                return times[times < horizon_s]
            n *= 2
        raise QueueingError(
            f"arrival process {self.label} failed to cover a "
            f"{horizon_s:.3g} s horizon"
        )

    def poisson_rate(self) -> Optional[float]:
        """The rate if this process is exactly homogeneous Poisson.

        Engines with a preallocated-buffer Poisson fast path (the MC
        hot loop) use this to take it without losing bit-identity; the
        fast path must consume randomness exactly as
        :meth:`PoissonProcess.sample_arrivals` does.
        """
        return None

    @property
    def label(self) -> str:
        """Short kebab-case name for grids and reports."""
        return type(self).__name__


class ServiceSpec(abc.ABC):
    """A seeded-stream service process — a picklable
    :data:`repro.queueing.mc.BatchServiceSampler` with matched-mean
    metadata.

    Concrete processes expose ``mean_s`` (the mean service time) and
    :attr:`scv` (squared coefficient of variation); ``fixed_s`` is
    non-None only for deterministic service, letting the MC engine keep
    its exact closed-form M/D/1 reductions.
    """

    __slots__ = ()

    @abc.abstractmethod
    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` service times (seconds, positive)."""

    @property
    @abc.abstractmethod
    def scv(self) -> float:
        """Squared coefficient of variation (``inf`` for alpha <= 2 Pareto)."""

    @property
    def fixed_s(self) -> Optional[float]:
        """The deterministic service time, or None for random service."""
        return None

    @property
    def label(self) -> str:
        """Short kebab-case name for grids and reports."""
        return type(self).__name__


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class PoissonProcess(ArrivalSpec):
    """Homogeneous Poisson arrivals — the paper's baseline.

    Consumes exactly ``n`` standard exponentials per batch and scales
    by ``1/rate``, matching the MC engine's historical in-place draws
    bit-for-bit (pinned by ``tests/queueing/test_processes.py``).
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise QueueingError(f"arrival rate must be positive, got {rate}")
        self.rate = float(rate)

    def sample_arrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        gaps = rng.standard_exponential(n)
        np.multiply(gaps, 1.0 / self.rate, out=gaps)
        return np.cumsum(gaps)

    def poisson_rate(self) -> Optional[float]:
        return self.rate

    @property
    def label(self) -> str:
        return "poisson"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PoissonProcess(rate={self.rate!r})"


class MarkovModulatedPoisson(ArrivalSpec):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    A hidden regime chain indexed by *arrival* toggles between a quiet
    state (rate ``base/burstiness``) and a bursty state (rate
    ``base * burstiness``); ``persistence`` is the probability the
    regime survives one arrival, so runs of ``~1/(1-persistence)``
    correlated gaps alternate with opposite-tempo runs.  The base rate
    is chosen so the stationary mean gap is exactly ``1/rate``
    (``base = rate * (b + 1/b) / 2`` with equal regime occupancy).

    Draw budget per batch of ``n``: ``n`` uniforms (regime chain, the
    first doubling as the stationary initial state) then ``n`` standard
    exponentials — a pure function of ``n`` (rule S2).
    """

    __slots__ = ("rate", "burstiness", "persistence", "_rate_lo", "_rate_hi")

    def __init__(
        self, rate: float, *, burstiness: float = 4.0, persistence: float = 0.9
    ) -> None:
        if rate <= 0:
            raise QueueingError(f"arrival rate must be positive, got {rate}")
        if burstiness < 1.0:
            raise QueueingError(
                f"burstiness must be >= 1, got {burstiness}"
            )
        if not 0.0 <= persistence < 1.0:
            raise QueueingError(
                f"persistence must be in [0, 1), got {persistence}"
            )
        self.rate = float(rate)
        self.burstiness = float(burstiness)
        self.persistence = float(persistence)
        base = self.rate * (self.burstiness + 1.0 / self.burstiness) / 2.0
        self._rate_lo = base / self.burstiness
        self._rate_hi = base * self.burstiness

    @property
    def regime_rates(self) -> tuple:
        """(quiet, bursty) regime rates; their harmonic mean is ``rate``."""
        return (self._rate_lo, self._rate_hi)

    def sample_arrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        e = rng.standard_exponential(n)
        # toggles[0] seeds the chain from its (uniform) stationary law;
        # later entries flip the regime with probability 1 - persistence.
        toggles = u >= self.persistence
        if n:
            toggles[0] = u[0] < 0.5
        bursty = np.logical_xor.accumulate(toggles)
        gaps = e / np.where(bursty, self._rate_hi, self._rate_lo)
        return np.cumsum(gaps)

    @property
    def label(self) -> str:
        return "mmpp"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MarkovModulatedPoisson(rate={self.rate!r}, "
            f"burstiness={self.burstiness!r}, persistence={self.persistence!r})"
        )


class FlashCrowd(ArrivalSpec):
    """Poisson arrivals with one contiguous flash-crowd episode.

    A fraction ``spike_fraction`` of each batch's arrivals lands in a
    single episode whose gaps shrink by ``spike_factor``; the episode
    position is drawn uniformly over the batch.  The base rate is
    ``rate * ((1 - f) + f / s)`` so the long-run mean rate stays
    ``rate``.  Draw budget per batch of ``n``: one uniform (episode
    position) then ``n`` standard exponentials.
    """

    __slots__ = ("rate", "spike_factor", "spike_fraction", "_base_rate")

    def __init__(
        self, rate: float, *, spike_factor: float = 8.0, spike_fraction: float = 0.08
    ) -> None:
        if rate <= 0:
            raise QueueingError(f"arrival rate must be positive, got {rate}")
        if spike_factor < 1.0:
            raise QueueingError(
                f"spike factor must be >= 1, got {spike_factor}"
            )
        if not 0.0 <= spike_fraction < 1.0:
            raise QueueingError(
                f"spike fraction must be in [0, 1), got {spike_fraction}"
            )
        self.rate = float(rate)
        self.spike_factor = float(spike_factor)
        self.spike_fraction = float(spike_fraction)
        self._base_rate = self.rate * (
            (1.0 - self.spike_fraction) + self.spike_fraction / self.spike_factor
        )

    def sample_arrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = float(rng.random())
        gaps = rng.standard_exponential(n)
        np.multiply(gaps, 1.0 / self._base_rate, out=gaps)
        width = int(round(self.spike_fraction * n))
        if width:
            start = min(int(u * (n - width + 1)), n - width)
            gaps[start : start + width] /= self.spike_factor
        return np.cumsum(gaps)

    @property
    def label(self) -> str:
        return "flash-crowd"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashCrowd(rate={self.rate!r}, spike_factor={self.spike_factor!r}, "
            f"spike_fraction={self.spike_fraction!r})"
        )


class TraceDrivenArrivals(ArrivalSpec):
    """Inhomogeneous Poisson arrivals driven by a periodic demand trace.

    The trace gives relative intensity per interval; it is normalised
    by its mean so the long-run rate is exactly ``rate``, and repeated
    periodically so any batch length is defined (rule S2: exactly ``n``
    standard exponentials per batch).  Sampling inverts the piecewise
    linear cumulative intensity ``Lambda`` at unit-rate Poisson epochs.
    """

    __slots__ = (
        "rate",
        "trace",
        "interval_s",
        "_lambdas",
        "_cum",
        "_period_s",
        "_period_intensity",
    )

    def __init__(
        self, rate: float, trace: Sequence[float], *, interval_s: float = 60.0
    ) -> None:
        if rate <= 0:
            raise QueueingError(f"arrival rate must be positive, got {rate}")
        if interval_s <= 0:
            raise QueueingError(
                f"trace interval must be positive, got {interval_s}"
            )
        arr = np.asarray(trace, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise QueueingError("trace must be a non-empty 1-D sequence")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise QueueingError("trace intensities must be positive and finite")
        self.rate = float(rate)
        self.trace = arr.copy()
        self.interval_s = float(interval_s)
        self._lambdas = self.rate * arr / arr.mean()
        self._cum = np.concatenate(
            ([0.0], np.cumsum(self._lambdas * self.interval_s))
        )
        self._period_s = arr.size * self.interval_s
        self._period_intensity = float(self._cum[-1])

    @classmethod
    def diurnal(
        cls,
        rate: float,
        *,
        n_intervals: int = 24,
        interval_s: float = 60.0,
        rng: Optional[np.random.Generator] = None,
        noise: float = 0.0,
        **trace_kwargs: float,
    ) -> "TraceDrivenArrivals":
        """Arrivals modulated by the scheduler's diurnal demand curve.

        Built through :func:`repro.extensions.dynamic.diurnal_trace` —
        the *same* generator the scheduler replay uses — so the MC and
        scheduler paths share one trace per seed (the seam regression in
        ``tests/queueing/test_processes.py``).
        """
        from repro.extensions.dynamic import diurnal_trace

        trace = diurnal_trace(
            n_intervals=n_intervals, rng=rng, noise=noise, **trace_kwargs
        )
        return cls(rate, trace, interval_s=interval_s)

    def sample_arrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        epochs = np.cumsum(rng.standard_exponential(n))
        cycles = np.floor(epochs / self._period_intensity)
        rem = epochs - cycles * self._period_intensity
        k = np.searchsorted(self._cum, rem, side="right") - 1
        np.clip(k, 0, self._lambdas.size - 1, out=k)
        return (
            cycles * self._period_s
            + k * self.interval_s
            + (rem - self._cum[k]) / self._lambdas[k]
        )

    @property
    def label(self) -> str:
        return "diurnal"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceDrivenArrivals(rate={self.rate!r}, "
            f"n_intervals={self.trace.size}, interval_s={self.interval_s!r})"
        )


# ----------------------------------------------------------------------
# Service processes
# ----------------------------------------------------------------------
class DeterministicService(ServiceSpec):
    """Fixed service time — the paper's T_P (M/D/1 service).

    ``fixed_s`` is set, so the MC engine takes its exact deterministic
    reductions (percentile-of-waits + D) and consumes zero service
    draws — identical to passing the bare float.
    """

    __slots__ = ("mean_s",)

    def __init__(self, mean_s: float) -> None:
        if mean_s <= 0:
            raise QueueingError(
                f"mean service time must be positive, got {mean_s}"
            )
        self.mean_s = float(mean_s)

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.mean_s)

    @property
    def scv(self) -> float:
        return 0.0

    @property
    def fixed_s(self) -> Optional[float]:
        return self.mean_s

    @property
    def label(self) -> str:
        return "deterministic"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicService(mean_s={self.mean_s!r})"


class ExponentialService(_BaseExponentialService, ServiceSpec):
    """Exponential service (M/M/1) as a :class:`ServiceSpec`.

    Subclasses the MC engine's sampler, so draws are bit-identical to
    the historical ``exponential_service`` factory."""

    __slots__ = ()

    @property
    def scv(self) -> float:
        return 1.0

    @property
    def label(self) -> str:
        return "exponential"


class ParetoService(ServiceSpec):
    """Heavy-tailed Pareto service with matched mean.

    Classic Pareto with tail index ``alpha > 1`` and scale
    ``x_m = mean_s * (alpha - 1) / alpha`` (so the mean is ``mean_s``),
    drawn by inverse transform from one batch of uniforms.  The tail
    index is recoverable by the Hill estimator
    (:func:`repro.util.stats.hill_tail_index`) — the property suite's
    sanity check.  Variance is infinite for ``alpha <= 2``.
    """

    __slots__ = ("mean_s", "tail_index", "x_m")

    def __init__(self, mean_s: float, *, tail_index: float = 2.2) -> None:
        if mean_s <= 0:
            raise QueueingError(
                f"mean service time must be positive, got {mean_s}"
            )
        if tail_index <= 1.0:
            raise QueueingError(
                f"Pareto tail index must exceed 1 (finite mean), got {tail_index}"
            )
        self.mean_s = float(mean_s)
        self.tail_index = float(tail_index)
        self.x_m = self.mean_s * (self.tail_index - 1.0) / self.tail_index

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # 1 - U in (0, 1]: the inverse CDF stays finite and >= x_m.
        return self.x_m * (1.0 - rng.random(size)) ** (-1.0 / self.tail_index)

    @property
    def scv(self) -> float:
        a = self.tail_index
        if a <= 2.0:
            return math.inf
        return 1.0 / (a * (a - 2.0))

    @property
    def label(self) -> str:
        return "pareto"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParetoService(mean_s={self.mean_s!r}, "
            f"tail_index={self.tail_index!r})"
        )


class LognormalService(ServiceSpec):
    """Heavy-tailed lognormal service with matched mean.

    ``mu = ln(mean_s) - sigma^2 / 2`` so the mean is exactly
    ``mean_s``; ``sigma`` controls the (all-moments-finite) tail:
    ``scv = exp(sigma^2) - 1``.
    """

    __slots__ = ("mean_s", "sigma", "_mu")

    def __init__(self, mean_s: float, *, sigma: float = 0.8) -> None:
        if mean_s <= 0:
            raise QueueingError(
                f"mean service time must be positive, got {mean_s}"
            )
        if sigma <= 0:
            raise QueueingError(f"sigma must be positive, got {sigma}")
        self.mean_s = float(mean_s)
        self.sigma = float(sigma)
        self._mu = math.log(self.mean_s) - 0.5 * self.sigma * self.sigma

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self._mu, self.sigma, size)

    @property
    def scv(self) -> float:
        return math.exp(self.sigma * self.sigma) - 1.0

    @property
    def label(self) -> str:
        return "lognormal"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LognormalService(mean_s={self.mean_s!r}, sigma={self.sigma!r})"


# ----------------------------------------------------------------------
# Interval-level arrival models (scheduler trace replay)
# ----------------------------------------------------------------------
class IntervalArrivals(abc.ABC):
    """Per-interval arrival model for the scheduler replay engine.

    The engine hands each interval's demand-implied rate ``lam`` and
    the interval bounds; the model returns the sorted arrival times
    within the interval.  Models may carry regime state across
    intervals; :meth:`reset` rewinds it so every replay is a pure
    function of its seed.
    """

    __slots__ = ()

    def reset(self) -> None:
        """Rewind any cross-interval regime state (run start)."""

    @abc.abstractmethod
    def sample_interval(
        self,
        rng: np.random.Generator,
        lam: float,
        interval_s: float,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        """Sorted arrival times in ``[t0, t1)`` at mean rate ``lam``."""

    @property
    def label(self) -> str:
        """Short kebab-case name for reports and ledger params."""
        return type(self).__name__


class PoissonIntervalArrivals(IntervalArrivals):
    """The engine's historical draws: Poisson count, uniform placement.

    Bit-identical to the inline sampling the engine used before the
    protocol existed (count first, uniforms only when the count is
    positive) — pinned by ``tests/scheduler/test_engine_processes.py``.
    """

    __slots__ = ()

    def sample_interval(
        self,
        rng: np.random.Generator,
        lam: float,
        interval_s: float,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        n = int(rng.poisson(lam * interval_s))
        if not n:
            return _EMPTY
        return np.sort(rng.uniform(t0, t1, size=n))

    @property
    def label(self) -> str:
        return "poisson"


class ModulatedIntervalArrivals(IntervalArrivals):
    """Bursty replay demand: a two-state regime chain over intervals.

    Each interval's rate is the demand-implied ``lam`` scaled by a
    quiet (``1/(b*m)``) or bursty (``b/m``) factor with
    ``m = (b + 1/b)/2``, so the expected scale is 1 and the mean served
    demand matches the Poisson replay.  The regime survives an interval
    with probability ``persistence``.  Draw budget per interval: one
    uniform (regime), one Poisson count, then the placement uniforms.
    """

    __slots__ = ("burstiness", "persistence", "_factor_lo", "_factor_hi", "_bursty")

    def __init__(
        self, *, burstiness: float = 4.0, persistence: float = 0.8
    ) -> None:
        if burstiness < 1.0:
            raise QueueingError(
                f"burstiness must be >= 1, got {burstiness}"
            )
        if not 0.0 <= persistence < 1.0:
            raise QueueingError(
                f"persistence must be in [0, 1), got {persistence}"
            )
        self.burstiness = float(burstiness)
        self.persistence = float(persistence)
        m = (self.burstiness + 1.0 / self.burstiness) / 2.0
        self._factor_lo = 1.0 / (self.burstiness * m)
        self._factor_hi = self.burstiness / m
        self._bursty: Optional[bool] = None

    def reset(self) -> None:
        self._bursty = None

    def sample_interval(
        self,
        rng: np.random.Generator,
        lam: float,
        interval_s: float,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        u = float(rng.random())
        if self._bursty is None:
            self._bursty = u < 0.5
        elif u >= self.persistence:
            self._bursty = not self._bursty
        factor = self._factor_hi if self._bursty else self._factor_lo
        n = int(rng.poisson(lam * factor * interval_s))
        if not n:
            return _EMPTY
        return np.sort(rng.uniform(t0, t1, size=n))

    @property
    def label(self) -> str:
        return "mmpp"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModulatedIntervalArrivals(burstiness={self.burstiness!r}, "
            f"persistence={self.persistence!r})"
        )


class FlashIntervalArrivals(IntervalArrivals):
    """Replay demand with random flash-crowd intervals.

    Each interval independently spikes with probability
    ``spike_probability``, scaling its rate by ``spike_factor``; the
    base factor ``1 / (1 - q + q*s)`` keeps the expected scale at 1.
    """

    __slots__ = ("spike_factor", "spike_probability", "_base_factor")

    def __init__(
        self, *, spike_factor: float = 6.0, spike_probability: float = 0.1
    ) -> None:
        if spike_factor < 1.0:
            raise QueueingError(
                f"spike factor must be >= 1, got {spike_factor}"
            )
        if not 0.0 <= spike_probability < 1.0:
            raise QueueingError(
                f"spike probability must be in [0, 1), got {spike_probability}"
            )
        self.spike_factor = float(spike_factor)
        self.spike_probability = float(spike_probability)
        self._base_factor = 1.0 / (
            1.0 - self.spike_probability + self.spike_probability * self.spike_factor
        )

    def sample_interval(
        self,
        rng: np.random.Generator,
        lam: float,
        interval_s: float,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        spike = float(rng.random()) < self.spike_probability
        factor = self._base_factor * (self.spike_factor if spike else 1.0)
        n = int(rng.poisson(lam * factor * interval_s))
        if not n:
            return _EMPTY
        return np.sort(rng.uniform(t0, t1, size=n))

    @property
    def label(self) -> str:
        return "flash-crowd"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashIntervalArrivals(spike_factor={self.spike_factor!r}, "
            f"spike_probability={self.spike_probability!r})"
        )


# ----------------------------------------------------------------------
# Grid factories
# ----------------------------------------------------------------------
def make_arrivals(kind: str, rate: float) -> ArrivalSpec:
    """An arrival process of the robustness grid at the given mean rate."""
    if kind == "poisson":
        return PoissonProcess(rate)
    if kind == "mmpp":
        return MarkovModulatedPoisson(rate)
    if kind == "flash-crowd":
        return FlashCrowd(rate)
    if kind == "diurnal":
        return TraceDrivenArrivals.diurnal(rate)
    raise QueueingError(
        f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
    )


def make_service(kind: str, mean_s: float) -> ServiceSpec:
    """A service process of the robustness grid at the given mean.

    ``make_service(kind, 1.0)`` yields the unit-mean multiplier form
    the scheduler engine's ``service_model`` expects.
    """
    if kind == "deterministic":
        return DeterministicService(mean_s)
    if kind == "exponential":
        return ExponentialService(mean_s)
    if kind == "lognormal":
        return LognormalService(mean_s)
    if kind == "pareto":
        return ParetoService(mean_s)
    raise QueueingError(
        f"unknown service kind {kind!r}; expected one of {SERVICE_KINDS}"
    )


def make_interval_arrivals(
    kind: Union[str, IntervalArrivals, None]
) -> IntervalArrivals:
    """An interval arrival model from a kind name (instances pass through)."""
    if kind is None:
        return PoissonIntervalArrivals()
    if isinstance(kind, IntervalArrivals):
        return kind
    if kind == "poisson":
        return PoissonIntervalArrivals()
    if kind == "mmpp":
        return ModulatedIntervalArrivals()
    if kind == "flash-crowd":
        return FlashIntervalArrivals()
    raise QueueingError(
        f"unknown interval arrival kind {kind!r}; "
        f"expected one of {INTERVAL_ARRIVAL_KINDS}"
    )
