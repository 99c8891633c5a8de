"""Synthetic job-trace generation — the testbed's "real programs".

The model sees a workload as a flat demand vector, but real programs are
not flat: they run as a sequence of parallel *phases* whose per-op demands
fluctuate around the mean (input-dependent branches, cache behaviour,
protocol overheads).  The simulated testbed executes these phase traces, and
the difference between the flat model and the structured trace is exactly
what produces the paper's Table 4 model-vs-measured errors.

Two second-order effects are modelled per workload:

* ``variability`` — the coefficient of variation of per-phase demand
  (:data:`repro.workloads.suite.TRACE_VARIABILITY`); irregular programs
  (Julius, x264) straggle more across nodes.
* ``size_sensitivity`` — per-op demands grow slightly with input size
  (working sets leave caches); characterizing on the small input P_s and
  predicting the full run therefore under-estimates demand.

A memslap-style request generator is included for the memcached workload:
fixed key/value sizes, uniformly popular keys, Poisson arrivals — exactly
the load profile the paper drives its memcached server with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.queueing.processes import PoissonProcess
from repro.workloads.base import Workload

__all__ = [
    "TracePhase",
    "JobTrace",
    "SIZE_SENSITIVITY",
    "generate_trace",
    "KeyValueRequest",
    "RequestGenerator",
]

#: Relative per-op demand growth per 16x input-size increase.  Characterized
#: runs use the small input (1/16 of a job); these sensitivities are the
#: dominant source of the Table 4 execution-time errors, so their ordering
#: follows the paper's: regular kernels (EP, RSA-2048) barely move, cache-
#: and input-sensitive programs (memcached, x264, Julius) move by ~10%.
SIZE_SENSITIVITY: Mapping[str, float] = {
    "EP": 0.025,
    "memcached": 0.080,
    "x264": 0.095,
    "blackscholes": 0.030,
    "julius": 0.105,
    "rsa2048": 0.012,
}

#: Default number of parallel phases a job is split into.
DEFAULT_PHASES = 24


@dataclass(frozen=True)
class TracePhase:
    """One parallel phase of a job trace: absolute demands for this phase."""

    ops: float
    core_cycles: float
    mem_cycles: float
    io_bytes: float

    def __post_init__(self) -> None:
        if self.ops <= 0:
            raise WorkloadError(f"phase ops must be positive, got {self.ops}")
        if min(self.core_cycles, self.mem_cycles, self.io_bytes) < 0:
            raise WorkloadError("phase demands must be non-negative")


@dataclass(frozen=True)
class JobTrace:
    """A job's execution trace for one node type.

    The trace is the ground truth the simulated node executes; its aggregate
    demands deviate from ``ops * flat demand`` through phase noise and the
    input-size effect.
    """

    workload_name: str
    node_type: str
    ops_total: float
    phases: Tuple[TracePhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError("a trace needs at least one phase")
        ops = sum(p.ops for p in self.phases)
        if not math.isclose(ops, self.ops_total, rel_tol=1e-9):
            raise WorkloadError(
                f"phase ops sum {ops} does not match ops_total {self.ops_total}"
            )

    @property
    def total_core_cycles(self) -> float:
        """Aggregate core work cycles across phases."""
        return sum(p.core_cycles for p in self.phases)

    @property
    def total_mem_cycles(self) -> float:
        """Aggregate memory stall cycles across phases."""
        return sum(p.mem_cycles for p in self.phases)

    @property
    def total_io_bytes(self) -> float:
        """Aggregate network bytes across phases."""
        return sum(p.io_bytes for p in self.phases)


def _size_factor(workload: Workload, ops: float) -> float:
    """Demand inflation of a run of ``ops`` relative to the small input.

    Grows logarithmically for one 16x size step beyond the characterization
    input, then saturates: once the working set has left the caches, making
    the input larger does not make each op more expensive.
    """
    sensitivity = SIZE_SENSITIVITY.get(workload.name, 0.0)
    small = workload.small_input_ops()
    if ops <= small:
        return 1.0
    step = min(1.0, math.log(ops / small) / math.log(16.0))
    return 1.0 + sensitivity * step


def generate_trace(
    workload: Workload,
    node_type: str,
    ops: float,
    rng: np.random.Generator,
    *,
    n_phases: int = DEFAULT_PHASES,
    variability: float | None = None,
    size_reference_ops: float | None = None,
) -> JobTrace:
    """Generate the ground-truth trace of ``ops`` work units on one node type.

    Per-phase demands are lognormally distributed around the (size-inflated)
    calibrated means with coefficient of variation ``variability`` (defaults
    to the workload's entry in
    :data:`repro.workloads.suite.TRACE_VARIABILITY`, falling back to 0).

    ``size_reference_ops`` overrides the input size used for the working-set
    inflation: a characterization run that *loops* a small input processes
    many ops but only ever touches the small input's working set, so its
    per-op demands are those of the small size.
    """
    if ops <= 0:
        raise WorkloadError(f"ops must be positive, got {ops}")
    if n_phases <= 0:
        raise WorkloadError(f"n_phases must be positive, got {n_phases}")
    demand = workload.demand_for(node_type)
    if variability is None:
        from repro.workloads.suite import TRACE_VARIABILITY  # cycle-safe import

        variability = TRACE_VARIABILITY.get(workload.name, 0.0)
    if variability < 0:
        raise WorkloadError(f"variability must be non-negative, got {variability}")
    if size_reference_ops is not None and size_reference_ops <= 0:
        raise WorkloadError("size_reference_ops must be positive")

    factor = _size_factor(
        workload, size_reference_ops if size_reference_ops is not None else ops
    )
    ops_per_phase = ops / n_phases
    if variability > 0:
        sigma = math.sqrt(math.log(1.0 + variability**2))
        mu = -0.5 * sigma * sigma  # unit mean
        noise = rng.lognormal(mean=mu, sigma=sigma, size=(n_phases, 3))
    else:
        noise = np.ones((n_phases, 3))

    phases = tuple(
        TracePhase(
            ops=ops_per_phase,
            core_cycles=ops_per_phase * demand.core_cycles_per_op * factor * noise[i, 0],
            mem_cycles=ops_per_phase * demand.mem_cycles_per_op * factor * noise[i, 1],
            io_bytes=ops_per_phase * demand.io_bytes_per_op * noise[i, 2],
        )
        for i in range(n_phases)
    )
    return JobTrace(
        workload_name=workload.name,
        node_type=node_type,
        ops_total=ops,
        phases=phases,
    )


# ----------------------------------------------------------------------
# memslap-style request generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KeyValueRequest:
    """One memcached request: arrival time, key id, operation, sizes."""

    arrival_s: float
    key: int
    is_get: bool
    key_bytes: int
    value_bytes: int

    @property
    def wire_bytes(self) -> int:
        """Bytes crossing the NIC for this request (both directions)."""
        return self.key_bytes + self.value_bytes


class RequestGenerator:
    """memslap substitute: fixed-size keys/values, uniform popularity.

    The paper drives memcached with memslap "with fixed key-value size and
    uniform popularity" over a 1 Gbps link; this generator reproduces that
    request stream so the memcached trace (and any queueing experiment over
    individual requests) has a faithful open-loop load source.
    """

    def __init__(
        self,
        *,
        rate_rps: float,
        n_keys: int = 10_000,
        key_bytes: int = 16,
        value_bytes: int = 1024,
        get_fraction: float = 0.9,
        rng: np.random.Generator,
    ) -> None:
        if rate_rps <= 0:
            raise WorkloadError(f"request rate must be positive, got {rate_rps}")
        if n_keys <= 0:
            raise WorkloadError(f"key space must be positive, got {n_keys}")
        if key_bytes <= 0 or value_bytes <= 0:
            raise WorkloadError("key/value sizes must be positive")
        if not 0.0 <= get_fraction <= 1.0:
            raise WorkloadError(f"get fraction must be in [0, 1], got {get_fraction}")
        self._rate = rate_rps
        self._n_keys = n_keys
        self._key_bytes = key_bytes
        self._value_bytes = value_bytes
        self._get_fraction = get_fraction
        self._rng = rng

    def generate_arrays(
        self, duration_s: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The requests arriving within ``duration_s`` as three arrays:
        arrival times, key ids and get flags.

        Arrival times are Poisson, from the shared horizon sampler
        :meth:`repro.queueing.processes.ArrivalSpec.arrivals_until`; the
        keys, then the operations, are drawn after them.
        """
        if duration_s <= 0:
            raise WorkloadError(f"duration must be positive, got {duration_s}")
        times = PoissonProcess(self._rate).arrivals_until(self._rng, duration_s)
        keys = self._rng.integers(0, self._n_keys, size=len(times))
        gets = self._rng.random(len(times)) < self._get_fraction
        return times, keys, gets

    def generate(self, duration_s: float) -> List[KeyValueRequest]:
        """All requests arriving within ``duration_s`` (Poisson arrivals)."""
        times, keys, gets = self.generate_arrays(duration_s)
        return [
            KeyValueRequest(
                arrival_s=float(t),
                key=int(k),
                is_get=bool(g),
                key_bytes=self._key_bytes,
                value_bytes=self._value_bytes,
            )
            for t, k, g in zip(times, keys, gets)
        ]

    def to_trace_ops(self, requests: Sequence[KeyValueRequest]) -> float:
        """Total work units (bytes served) represented by ``requests``."""
        return float(sum(r.wire_bytes for r in requests))
