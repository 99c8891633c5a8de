"""Queueing substrate: the paper's M/D/1 utilisation model, analytic
companions (M/M/1, M/G/1), a discrete-event FIFO simulator, a vectorized
Monte-Carlo replication engine, and pluggable arrival/service processes
(:mod:`repro.queueing.processes`) behind one seeded-stream protocol."""

from repro.queueing.des import QueueSimulator, SimulationResult
from repro.queueing.forkjoin import ForkJoinResult, simulate_fork_join
from repro.queueing.mc import (
    ConfidenceInterval,
    MonteCarloQueue,
    ReplicatedResult,
    exponential_service,
    lindley_waits,
    scalar_lindley_waits,
    uniform_service,
    waits_agreement,
)
from repro.queueing.md1 import MD1Queue
from repro.queueing.mdc import MDCQueue
from repro.queueing.mg1 import MG1Queue, MM1Queue
from repro.queueing.processes import (
    ArrivalSpec,
    DeterministicService,
    FlashCrowd,
    IntervalArrivals,
    LognormalService,
    MarkovModulatedPoisson,
    ParetoService,
    PoissonProcess,
    ServiceSpec,
    TraceDrivenArrivals,
    make_arrivals,
    make_interval_arrivals,
    make_service,
)

__all__ = [
    "MD1Queue",
    "MDCQueue",
    "MM1Queue",
    "MG1Queue",
    "QueueSimulator",
    "SimulationResult",
    "ForkJoinResult",
    "simulate_fork_join",
    "MonteCarloQueue",
    "ReplicatedResult",
    "ConfidenceInterval",
    "lindley_waits",
    "scalar_lindley_waits",
    "waits_agreement",
    "exponential_service",
    "uniform_service",
    "ArrivalSpec",
    "ServiceSpec",
    "PoissonProcess",
    "MarkovModulatedPoisson",
    "FlashCrowd",
    "TraceDrivenArrivals",
    "DeterministicService",
    "LognormalService",
    "ParetoService",
    "IntervalArrivals",
    "make_arrivals",
    "make_service",
    "make_interval_arrivals",
]
