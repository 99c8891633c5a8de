"""Batched configuration-space engine.

The scalar model (:mod:`repro.model.time_model` / ``energy_model``) builds a
tree of dataclasses per configuration — ideal for inspecting one cluster,
hopeless for sweeping the paper's configuration space (footnote 4: 36,380
configurations for just 10 A9 + 10 K10 nodes).  This module evaluates a whole
enumerated space — varying node counts, active cores *and* DVFS frequency per
type — in one NumPy broadcasted pass.

The collapse that makes this possible: at a fixed per-type operating point
``(cores, frequency)``, one node of type *i* contributes three constants —

* a service rate ``r_i = 1 / t_op,i`` (work units per second),
* a busy dynamic power ``p_dyn,i`` (the equal-finish work division keeps
  every node busy for the whole job, so its dynamic draw is constant), and
* its idle power ``p_idle,i``

— and every quantity of the scalar model follows from sums over groups:

* ``T_P = O / sum_i n_i r_i``
* ``P_peak = sum_i n_i (p_idle,i + p_dyn,i)``
* ``E_P = P_peak * T_P``

The constants are computed ONCE per (workload demand, node type, operating
point) from the scalar-model primitives (:func:`op_time_breakdown`,
:func:`effective_powers`) and memoised in a process-wide cache, so repeated
sweeps — figures, ablations, sensitivity studies, greedy descent — never
recompute them.  Because the constants come from the scalar primitives, the
two paths cannot drift: agreement with the scalar oracle is property-tested
to 1e-9 relative (see ``tests/model/test_batched.py`` and DESIGN.md's
"scalar-oracle contract").

Array results are indexed in exactly the order of
:func:`repro.cluster.configuration.enumerate_configurations`, so callers can
materialise any configuration by index without evaluating it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.configuration import (
    ClusterConfiguration,
    NodeGroup,
    TypeSpace,
)
from repro.errors import ModelError
from repro.hardware.specs import NodeSpec
from repro.model.energy_model import effective_powers
from repro.model.time_model import op_time_breakdown
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.workloads.base import Workload, WorkloadDemand

__all__ = [
    "OperatingPointConstants",
    "operating_point_constants",
    "config_constants",
    "SpaceEvaluationArrays",
    "evaluate_space_arrays",
    "DeadlineStaircase",
    "deadline_staircase",
    "clear_constants_cache",
    "constants_cache_size",
]


@dataclass(frozen=True)
class OperatingPointConstants:
    """Per-node constants of one (workload, node type, operating point).

    ``rate`` is the node's service rate (work units/s), ``busy_dyn_w`` its
    dynamic power while serving the workload (constant under the paper's
    equal-finish work division), ``idle_w`` / ``nameplate_w`` the node's
    idle and nameplate-peak powers.
    """

    rate: float
    busy_dyn_w: float
    idle_w: float
    nameplate_w: float


#: Process-wide constants cache.  Keys capture every input the constants
#: depend on (demand vector, activity factors, spec power/DVFS/NIC data and
#: the operating point), so modified specs — e.g. the DVFS study's scaled
#: idle powers — get their own entries instead of stale hits.
_CONSTANTS_CACHE: Dict[tuple, OperatingPointConstants] = {}


def _cache_key(
    spec: NodeSpec, demand: WorkloadDemand, cores: int, frequency_hz: float
) -> tuple:
    return (
        spec.name,
        spec.cores,
        spec.nic_bps,
        spec.power,
        spec.dvfs,
        cores,
        frequency_hz,
        demand.core_cycles_per_op,
        demand.mem_cycles_per_op,
        demand.io_bytes_per_op,
        demand.io_service_floor_s,
        demand.activity,
    )


def clear_constants_cache() -> None:
    """Drop every cached operating-point constant (mainly for tests)."""
    _CONSTANTS_CACHE.clear()


def constants_cache_size() -> int:
    """Number of (workload, type, operating point) entries currently cached."""
    return len(_CONSTANTS_CACHE)


def operating_point_constants(
    spec: NodeSpec,
    demand: WorkloadDemand,
    cores: int,
    frequency_hz: float,
) -> OperatingPointConstants:
    """The three per-node constants, memoised per operating point.

    Derived from the scalar model's own primitives so the batched path and
    the scalar oracle cannot diverge.
    """
    key = _cache_key(spec, demand, cores, frequency_hz)
    cached = _CONSTANTS_CACHE.get(key)
    registry = get_registry()
    if cached is not None:
        if registry.enabled:
            registry.counter(
                "repro_model_constants_cache_hits_total",
                help="Operating-point constants served from the memo cache",
            ).inc()
        return cached
    if registry.enabled:
        registry.counter(
            "repro_model_constants_cache_misses_total",
            help="Operating-point constants computed from scalar primitives",
        ).inc()
    group = NodeGroup(spec=spec, count=1, cores=cores, frequency_hz=frequency_hz)
    per_op = op_time_breakdown(group, demand)
    if per_op.t_op <= 0:
        raise ModelError(
            f"non-positive per-op time for {spec.name}; demand vector is degenerate"
        )
    rate = 1.0 / per_op.t_op
    powers = effective_powers(group, demand)
    e_dyn_per_op = (
        powers.cpu_active_w * per_op.t_act
        + powers.cpu_stall_w * per_op.t_stall
        + powers.memory_w * per_op.t_mem
        + powers.network_w * per_op.t_io
    )
    constants = OperatingPointConstants(
        rate=rate,
        busy_dyn_w=e_dyn_per_op * rate,
        idle_w=spec.power.idle_w,
        nameplate_w=spec.power.nameplate_peak_w,
    )
    _CONSTANTS_CACHE[key] = constants
    return constants


def config_constants(
    workload: Workload, config: ClusterConfiguration
) -> Tuple[float, float, float]:
    """``(total service rate, idle power, dynamic power)`` of one cluster.

    Everything a time-energy evaluation needs, via the constants cache:
    ``T_P = ops / rate`` and ``E_P = (idle + dynamic) * T_P``.
    """
    total_rate = 0.0
    idle_w = 0.0
    dyn_w = 0.0
    for group in config.groups:
        k = operating_point_constants(
            group.spec,
            workload.demand_for(group.spec),
            group.cores,
            group.frequency_hz,
        )
        total_rate += group.count * k.rate
        idle_w += group.count * k.idle_w
        dyn_w += group.count * k.busy_dyn_w
    return total_rate, idle_w, dyn_w


# ----------------------------------------------------------------------
# Whole-space evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SpaceEvaluationArrays:
    """Every configuration of an enumerated space, evaluated as arrays.

    All arrays have length :attr:`n_configs` and are indexed in the exact
    order of :func:`enumerate_configurations` over the same spaces, so
    ``config_at(i)`` materialises the configuration behind row ``i``.
    ``counts`` maps node-type name to that type's per-configuration node
    count (0 where the type is absent); ``nameplate_w`` is the summed node
    nameplate peak used by power-budget arithmetic.
    """

    workload_name: str
    ops_per_job: float
    spaces: Tuple[TypeSpace, ...]
    tp_s: np.ndarray
    energy_j: np.ndarray
    idle_w: np.ndarray
    dynamic_w: np.ndarray
    nameplate_w: np.ndarray
    counts: Mapping[str, np.ndarray]
    choice_idx: np.ndarray  # (n_types, n_configs); 0 = absent, j>0 = j-th group
    group_lists: Tuple[Tuple[NodeGroup, ...], ...]

    @property
    def n_configs(self) -> int:
        """Number of configurations in the space."""
        return int(self.tp_s.shape[0])

    @property
    def peak_power_w(self) -> np.ndarray:
        """Per-configuration workload peak power: idle + dynamic (watts)."""
        return self.idle_w + self.dynamic_w

    def config_at(self, index: int) -> ClusterConfiguration:
        """Materialise the configuration behind one array row."""
        if not 0 <= index < self.n_configs:
            raise ModelError(
                f"configuration index {index} out of range [0, {self.n_configs})"
            )
        groups = tuple(
            self.group_lists[t][int(j) - 1]
            for t, j in enumerate(self.choice_idx[:, index])
            if j > 0
        )
        return ClusterConfiguration(groups=groups)

    def iter_configs(self) -> Iterator[ClusterConfiguration]:
        """Yield every configuration in array order (= enumeration order)."""
        for i in range(self.n_configs):
            yield self.config_at(i)


def _type_choice_tables(
    space: TypeSpace, demand: WorkloadDemand
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-choice constant tables for one type space.

    Index 0 is the "type absent" choice (all zeros); index ``j > 0`` is the
    ``j``-th entry of :meth:`TypeSpace.groups` (n outer, then cores, then
    frequency — the enumeration order).  Returns
    ``(rate, dynamic_w, idle_w, nameplate_w, count)`` arrays.
    """
    spec = space.spec
    points = [
        (c, f)
        for c in range(1, space.c_max + 1)
        for f in space.frequencies_hz
    ]
    consts = [operating_point_constants(spec, demand, c, f) for c, f in points]
    point_rate = np.array([k.rate for k in consts])
    point_dyn = np.array([k.busy_dyn_w for k in consts])
    counts = np.arange(1, space.n_max + 1, dtype=float)
    n_points = len(points)
    zero = np.zeros(1)
    rate = np.concatenate((zero, np.outer(counts, point_rate).ravel()))
    dyn = np.concatenate((zero, np.outer(counts, point_dyn).ravel()))
    idle = np.concatenate((zero, np.repeat(counts * spec.power.idle_w, n_points)))
    nameplate = np.concatenate(
        (zero, np.repeat(counts * spec.power.nameplate_peak_w, n_points))
    )
    count = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.repeat(np.arange(1, space.n_max + 1), n_points))
    )
    return rate, dyn, idle, nameplate, count


def _choice_indices(sizes: Sequence[int]) -> np.ndarray:
    """Per-type choice indices for every configuration, in enumeration order.

    Returns an ``(n_types, n_configs)`` array where entry ``[t, i]`` is 0
    when type ``t`` is absent from configuration ``i`` and ``j > 0`` for its
    ``j``-th group choice.  Subsets iterate in binary-counter order and
    choices in C order (last type fastest), matching
    :func:`enumerate_configurations` exactly.
    """
    n_types = len(sizes)
    blocks: List[np.ndarray] = []
    for mask in range(1, 1 << n_types):
        selected = [t for t in range(n_types) if mask & (1 << t)]
        shape = tuple(sizes[t] for t in selected)
        n = int(np.prod(shape))
        grid = np.unravel_index(np.arange(n), shape)
        block = np.zeros((n_types, n), dtype=np.int64)
        for dim, t in enumerate(selected):
            block[t] = grid[dim] + 1
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


def evaluate_space_arrays(
    workload: Workload, spaces: Sequence[TypeSpace]
) -> SpaceEvaluationArrays:
    """Evaluate EVERY configuration of an enumerated space in one pass.

    One broadcasted NumPy pass over per-type constant tables replaces the
    per-configuration scalar model; on the paper's 10+10-node space
    (36,380 configurations) this is orders of magnitude faster than the
    scalar loop while agreeing with it to 1e-9 relative (the benchmark
    ``repro.benchmarks.sweep`` records both).
    """
    spaces = tuple(spaces)
    if not spaces:
        raise ModelError("no type spaces supplied")
    names = [s.spec.name for s in spaces]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate node types in spaces: {names}")

    registry = get_registry()
    t_start = perf_counter() if registry.enabled else 0.0
    with span("model.evaluate_space", workload=workload.name) as sp:
        tables = [
            _type_choice_tables(space, workload.demand_for(space.spec))
            for space in spaces
        ]
        idx = _choice_indices([space.choices for space in spaces])

        total_rate = sum(tables[t][0][idx[t]] for t in range(len(spaces)))
        dyn_w = sum(tables[t][1][idx[t]] for t in range(len(spaces)))
        idle_w = sum(tables[t][2][idx[t]] for t in range(len(spaces)))
        nameplate_w = sum(tables[t][3][idx[t]] for t in range(len(spaces)))
        counts = {names[t]: tables[t][4][idx[t]] for t in range(len(spaces))}

        tp_s = workload.ops_per_job / total_rate
        energy_j = (idle_w + dyn_w) * tp_s
        n_configs = int(tp_s.shape[0])
        sp.set(n_configs=n_configs)
    if registry.enabled:
        registry.counter(
            "repro_model_configs_evaluated_total",
            help="Configurations evaluated by the batched space engine",
        ).inc(n_configs)
        elapsed = perf_counter() - t_start
        if elapsed > 0:
            registry.gauge(
                "repro_model_configs_per_s",
                help="Throughput of the most recent batched space evaluation",
            ).set(n_configs / elapsed)
    group_lists = tuple(tuple(space.groups()) for space in spaces)
    return SpaceEvaluationArrays(
        workload_name=workload.name,
        ops_per_job=workload.ops_per_job,
        spaces=spaces,
        tp_s=tp_s,
        energy_j=energy_j,
        idle_w=idle_w,
        dynamic_w=dyn_w,
        nameplate_w=nameplate_w,
        counts=counts,
        choice_idx=idx,
        group_lists=group_lists,
    )


# ----------------------------------------------------------------------
# Deadline queries against one evaluated space
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DeadlineStaircase:
    """Min-energy-by-deadline index over one evaluated space.

    The exhaustive search answers *one* deadline query with a full argmin
    over the space.  A long-lived service answers *many* deadline queries
    against the same space, so this precomputes the answer staircase once.
    Walking the feasible configurations in ascending execution time, the
    winner under exactly the exhaustive search's comparator — minimum
    energy, ties toward the faster configuration, then toward enumeration
    order — changes only at a *step*: a configuration strictly cheaper than
    every one before it.  The staircase keeps only its steps (a handful,
    however large the space), and a query is one ``searchsorted`` over
    them: the serving layer answers every cached ``recommend`` this way.

    Bit-identity contract: ``best_index(d)`` equals the configuration
    index :func:`repro.cluster.search.recommend_exhaustive` materialises
    for the same deadline and feasibility mask (pinned in
    ``tests/model/test_multiquery.py``), so answers served from a cached
    staircase are byte-identical to a fresh offline sweep.  Every point of
    the energy-deadline frontier is a step, so for finite energies
    :func:`repro.cluster.pareto.pareto_indices` over the step rows returns
    the frontier of the whole feasible space.
    """

    #: Execution times of the steps, ascending (the searchsorted key).
    step_tp_s: np.ndarray
    #: Configuration index (into the originating arrays) of each step.
    step_idx: np.ndarray
    #: Number of feasible configurations behind the staircase.
    n_feasible: int

    def best_index(self, deadline_s: float) -> int:
        """The winning configuration index for one deadline (-1: infeasible).

        The last step at or under the deadline.  One ``searchsorted`` call
        and no array round-trips — this sits on the serving layer's
        per-request hot path, where array conversions would dominate the
        O(log n) lookup itself.
        """
        d = float(deadline_s)
        if not d > 0.0:  # also catches NaN
            raise ModelError("deadlines must be positive numbers")
        pos = int(np.searchsorted(self.step_tp_s, d, side="right")) - 1
        return int(self.step_idx[pos]) if pos >= 0 else -1


def deadline_staircase(
    arrays: SpaceEvaluationArrays,
    feasible_mask: Optional[np.ndarray] = None,
) -> DeadlineStaircase:
    """Build the :class:`DeadlineStaircase` of one evaluated space.

    One stable sort and one running minimum.  ``feasible_mask`` restricts
    the space (e.g. a power budget's
    :meth:`~repro.cluster.budget.PowerBudget.fits_mask`); the staircase
    then answers deadline queries over the restricted space only.
    """
    if feasible_mask is None:
        candidates = np.arange(arrays.n_configs, dtype=np.int64)
    else:
        mask = np.asarray(feasible_mask, dtype=bool)
        if mask.shape != arrays.tp_s.shape:
            raise ModelError(
                f"feasible mask shape {mask.shape} does not match the "
                f"{arrays.n_configs}-configuration space"
            )
        candidates = np.flatnonzero(mask)
    tp = arrays.tp_s[candidates]
    # Ascending time; time-ties stay in enumeration order (stable sort),
    # matching recommend_exhaustive's lexsort tie-breaking exactly.
    order = np.argsort(tp, kind="stable")
    energy = arrays.energy_j[candidates][order]
    # A step is strictly cheaper than everything before it: an energy tie
    # keeps the incumbent, which is faster or, among exact time-ties,
    # earlier in enumeration order.  The +inf seed and the NaN-skipping
    # fmin make non-finite energies behave as under a scalar `<` scan:
    # never a step, never the incumbent.
    prior_min = np.fmin.accumulate(np.concatenate(([np.inf], energy[:-1])))
    steps = order[energy < prior_min]
    return DeadlineStaircase(
        step_tp_s=tp[steps],
        step_idx=candidates[steps],
        n_feasible=int(candidates.shape[0]),
    )
