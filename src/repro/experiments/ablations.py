"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one modelling decision and quantifies how the
paper's conclusions move when it changes:

* **Curve shape** — the paper's M/D/1 accounting makes power curves linear
  with an idle offset, which degenerates EPM = LDR = 1 - IPR (its own
  Tables 7/8).  Hsu & Poole (ICPP 2013) found real servers trend quadratic;
  the ablation shows how curvature separates the metrics again.
* **Switch power** — footnote 3's 8:1 substitution ratio bakes in a 20 W
  switch per 8 wimpy nodes; the ablation sweeps the switch power and
  reports the ratio and the budget mixes it produces.
* **Service-time variability** — the paper's jobs are deterministic
  (M/D/1); the ablation sweeps the service SCV from 0 (M/D/1) through 1
  (M/M/1) and beyond, with DES percentiles where no closed form exists.
* **Open vs batch arrivals** — Section II-B models Poisson arrivals while
  Section II-C sweeps utilisation with job batches; the ablation contrasts
  the p95 spread between Pareto mixes under both readings (the root of the
  "sub-millisecond" discussion in EXPERIMENTS.md).
* **KnightShift baseline** — server-level vs inter-node heterogeneity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.budget import substitution_ratio
from repro.cluster.configuration import ClusterConfiguration
from repro.core.batch import batch_response_percentile_s
from repro.core.metrics import QuadraticPowerCurve, analyze_curve
from repro.core.proportionality import power_curve
from repro.core.response import response_percentile_s
from repro.errors import ModelError
from repro.experiments.figures import PARETO_MIXES, pareto_mix_configs
from repro.extensions.knightshift import compare_with_internode
from repro.model.time_model import execution_time
from repro.queueing.des import QueueSimulator
from repro.queueing.md1 import MD1Queue
from repro.queueing.mg1 import MG1Queue, MM1Queue
from repro.queueing.processes import PoissonProcess
from repro.workloads.suite import paper_workloads

__all__ = [
    "curvature_ablation",
    "switch_power_ablation",
    "service_variability_ablation",
    "open_vs_batch_ablation",
    "pooling_ablation",
    "adaptation_ablation",
    "fork_join_ablation",
    "validation_scale_ablation",
    "knightshift_ablation",
    "sweep_engine_ablation",
]

Headers = Tuple[str, ...]
Rows = List[Tuple]


def curvature_ablation(
    workload_name: str = "EP",
    node: str = "K10",
    curvatures: Sequence[float] = (-0.5, -0.25, 0.0, 0.25, 0.5),
) -> Tuple[Headers, Rows]:
    """How curve shape breaks the EPM = LDR = 1 - IPR degeneracy.

    The idle/peak endpoints come from the calibrated workload; only the
    path between them changes.
    """
    w = paper_workloads()[workload_name]
    base = power_curve(w, ClusterConfiguration.mix({node: 1}))
    rows: Rows = []
    for curvature in curvatures:
        curve = QuadraticPowerCurve(base.idle_w, base.peak_w, curvature=curvature)
        r = analyze_curve(curve)
        rows.append(
            (
                curvature,
                round(r.ipr, 3),
                round(1 - r.ipr, 3),
                round(r.epm, 3),
                round(r.ldr_strict, 3),
            )
        )
    return ("curvature", "IPR", "1-IPR", "EPM", "LDR (strict)"), rows


def switch_power_ablation(
    switch_powers_w: Sequence[float] = (0.0, 10.0, 20.0, 40.0),
    *,
    budget_w: float = 1000.0,
) -> Tuple[Headers, Rows]:
    """Sensitivity of the substitution ratio to the switch power."""
    rows: Rows = []
    k_max = int(budget_w // 60.0)  # brawny nodes the budget fits
    for sw in switch_powers_w:
        ratio = substitution_ratio(switch_w=sw)
        # The all-wimpy end of the sweep exists only for integral ratios.
        if abs(ratio - round(ratio)) < 1e-9:
            label = f"{int(round(ratio)) * k_max} A9"
        else:
            label = "n/a (non-integral ratio)"
        rows.append((sw, round(ratio, 3), label))
    return ("switch power [W]", "A9 per K10", "all-wimpy mix at 1 kW"), rows


def service_variability_ablation(
    workload_name: str = "EP",
    mix: Dict[str, int] | None = None,
    *,
    utilisation: float = 0.7,
    scvs: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    des_jobs: int = 30_000,
    seed: int = 424242,
) -> Tuple[Headers, Rows]:
    """Mean and p95 response versus service-time variability.

    SCV 0 and 1 have closed forms (M/D/1, M/M/1); intermediate and heavier
    variability run the DES with a gamma service distribution of the same
    mean and SCV.
    """
    if not 0.0 < utilisation < 1.0:
        raise ModelError(f"utilisation must be in (0, 1), got {utilisation}")
    w = paper_workloads()[workload_name]
    config = ClusterConfiguration.mix(mix or {"A9": 32, "K10": 12})
    tp = execution_time(w, config)
    lam = utilisation / tp
    rows: Rows = []
    for scv in scvs:
        mg1 = MG1Queue(lam, tp, scv)
        if scv == 0.0:
            p95 = MD1Queue(lam, tp).p95_response_s()
            source = "M/D/1 analytic"
        elif scv == 1.0:
            p95 = MM1Queue(lam, tp).response_percentile(95)
            source = "M/M/1 analytic"
        else:
            shape = 1.0 / scv
            scale = tp / shape
            sim = QueueSimulator(
                PoissonProcess(lam).sample_arrivals(
                    np.random.default_rng(seed), des_jobs
                ),
                lambda rng, n: rng.gamma(shape, scale, n),
                rng=np.random.default_rng(seed + 1),
            )
            p95 = float(np.percentile(sim.run_jobs(des_jobs).responses, 95))
            source = f"DES ({des_jobs} jobs)"
        rows.append(
            (scv, round(mg1.mean_response_s, 4), round(p95, 4), source)
        )
    return ("service SCV", "mean response [s]", "p95 response [s]", "source"), rows


def open_vs_batch_ablation(
    workload_name: str = "EP",
    *,
    utilisation: float = 0.6,
    window_multiplier: float = 10.0,
) -> Tuple[Headers, Rows]:
    """p95 spread between the Pareto mixes: open M/D/1 vs batch windows.

    The batch window is ``window_multiplier`` times the maximal mix's
    service time for every configuration, so utilisation means the same
    thing across mixes.
    """
    w = paper_workloads()[workload_name]
    configs = pareto_mix_configs()
    window = window_multiplier * execution_time(w, configs[0])
    rows: Rows = []
    for (a, k), config in zip(PARETO_MIXES, configs):
        open_p95 = response_percentile_s(w, config, utilisation)
        batch_p95 = batch_response_percentile_s(
            w, config, utilisation, window_s=window
        )
        rows.append(
            (f"{a} A9 : {k} K10", round(open_p95, 4), round(batch_p95, 4))
        )
    return ("mix", "open M/D/1 p95 [s]", "batch p95 [s]"), rows


def pooling_ablation(
    workload_name: str = "EP",
    mix: Dict[str, int] | None = None,
    *,
    utilisation: float = 0.7,
    slot_counts: Sequence[int] = (1, 2, 4, 8),
) -> Tuple[Headers, Rows]:
    """Pooled vs partitioned dispatch: split the cluster into c job slots.

    The paper's dispatcher runs each job across the WHOLE cluster (one fast
    M/D/1 server).  Partitioning the same capacity into ``c`` independent
    slots serves each job ``c`` times slower (M/D/c): throughput capacity
    is identical, but tail latency degrades — quantifying what the paper's
    scale-out job model buys.
    """
    from repro.queueing.mdc import MDCQueue

    if not 0.0 < utilisation < 1.0:
        raise ModelError(f"utilisation must be in (0, 1), got {utilisation}")
    w = paper_workloads()[workload_name]
    config = ClusterConfiguration.mix(mix or {"A9": 32, "K10": 12})
    tp_pooled = execution_time(w, config)
    lam = utilisation / tp_pooled
    rows: Rows = []
    for c in slot_counts:
        queue = MDCQueue(lam, tp_pooled * c, c)
        rows.append(
            (
                c,
                round(tp_pooled * c, 4),
                round(queue.mean_wait_s() + tp_pooled * c, 4),
                round(queue.p95_response_s(), 4),
            )
        )
    return ("job slots c", "T_P per slot [s]", "mean response [s]", "p95 response [s]"), rows


def fork_join_ablation(
    workload_name: str = "julius",
    mix: Dict[str, int] | None = None,
    *,
    utilisation: float = 0.7,
    node_counts: Sequence[int] = (1, 8, 16, 44),
    n_jobs: int = 20_000,
    seed: int = 515151,
) -> Tuple[Headers, Rows]:
    """Straggler penalty of explicit fork-join dispatch vs the M/D/1 view.

    The paper's single-server abstraction is exact for perfectly regular
    chunks; with the workload's phase variability the join waits for the
    slowest of n noisy chunks, and the penalty grows with the node count.
    The ablation uses each workload's calibrated ``TRACE_VARIABILITY`` as
    the chunk-time coefficient of variation.
    """
    from repro.queueing.forkjoin import simulate_fork_join
    from repro.workloads.suite import TRACE_VARIABILITY

    if not 0.0 < utilisation < 1.0:
        raise ModelError(f"utilisation must be in (0, 1), got {utilisation}")
    w = paper_workloads()[workload_name]
    config = ClusterConfiguration.mix(mix or {"A9": 32, "K10": 12})
    tp = execution_time(w, config)
    lam = utilisation / tp
    cv = TRACE_VARIABILITY[workload_name]
    analytic_p95 = MD1Queue(lam, tp).p95_response_s()
    rows: Rows = [("M/D/1 abstraction", "-", round(analytic_p95, 4), "-")]
    for n in node_counts:
        result = simulate_fork_join(
            arrival_rate=lam,
            chunk_time_s=tp,
            n_nodes=n,
            cv=cv,
            n_jobs=n_jobs,
            rng=np.random.default_rng(seed),
        )
        penalty = result.p95_response_s / analytic_p95 - 1.0
        rows.append(
            (
                f"fork-join, {n} nodes",
                cv,
                round(result.p95_response_s, 4),
                f"{penalty:+.1%}",
            )
        )
    return ("dispatch model", "chunk cv", "p95 response [s]", "vs M/D/1"), rows


def validation_scale_ablation(
    workload_name: str = "julius",
    *,
    job_scales: Sequence[float] = (1.0, 4.0, 16.0, 64.0),
    seed: int = 20160913,
) -> Tuple[Headers, Rows]:
    """Validation error versus measured-run length.

    Short runs are dominated by fixed overheads (dispatch, phase barriers)
    and power-meter quantisation, inflating the model-vs-measured errors;
    the paper validates with full program inputs for exactly this reason.
    The sweep shows the errors settling as the run grows.
    """
    from repro.model.validation import ValidationPipeline
    from repro.util.rng import RngRegistry

    w = paper_workloads()[workload_name]
    rows: Rows = []
    for scale in job_scales:
        pipeline = ValidationPipeline(
            RngRegistry(seed), n_jobs=3, job_scale=scale
        )
        row = pipeline.validate(w)
        rows.append(
            (
                scale,
                round(row.measured_time_s, 3),
                round(row.time_error_pct, 1),
                round(row.energy_error_pct, 1),
            )
        )
    return (
        "job scale",
        "measured run [s]",
        "time err [%]",
        "energy err [%]",
    ), rows


def adaptation_ablation(
    workload_names: Sequence[str] = ("EP", "x264", "memcached"),
    *,
    seed: int = 77,
    switching_energy_j: float = 5_000.0,
) -> Tuple[Headers, Rows]:
    """Static vs dynamic configuration over a diurnal day.

    Quantifies the complement the paper's introduction defers to: a policy
    that powers nodes up/down per hour against the peak-provisioned static
    cluster, over the same diurnal demand trace.
    """
    from repro.extensions.dynamic import (
        diurnal_trace,
        scaled_candidates,
        simulate_adaptation,
    )

    trace = diurnal_trace(rng=np.random.default_rng(seed))
    candidates = scaled_candidates()
    rows: Rows = []
    for name in workload_names:
        w = paper_workloads()[name]
        result = simulate_adaptation(
            w, trace, candidates=candidates, switching_energy_j=switching_energy_j
        )
        rows.append(
            (
                name,
                result.static_label,
                round(result.static_energy_j / 3.6e6, 3),
                round(result.dynamic_energy_j / 3.6e6, 3),
                f"{result.savings_fraction:.1%}",
                result.switches,
            )
        )
    return (
        "workload",
        "static (peak) cluster",
        "static [kWh/day]",
        "dynamic [kWh/day]",
        "savings",
        "switches",
    ), rows


def sweep_engine_ablation(
    workload_names: Sequence[str] = ("EP", "x264", "memcached"),
    *,
    n_a9: int = 6,
    n_k10: int = 3,
) -> Tuple[Headers, Rows]:
    """Scalar oracle vs batched sweep engine over a full DVFS space.

    The batched engine (:mod:`repro.model.batched`) scores node counts,
    active cores AND per-type DVFS frequency in one broadcasted pass; the
    scalar model remains the oracle.  This ablation enumerates a reduced
    paper space (``n_a9`` A9 + ``n_k10`` K10, all cores/frequency choices)
    both ways and reports the worst relative disagreement per workload —
    the contract is <= 1e-9 on every configuration.
    """
    from repro.cluster.configuration import TypeSpace, enumerate_configurations
    from repro.cluster.pareto import evaluate_configuration
    from repro.hardware.specs import get_node_spec
    from repro.model.batched import evaluate_space_arrays

    rows: Rows = []
    spaces = (
        TypeSpace(get_node_spec("A9"), n_a9),
        TypeSpace(get_node_spec("K10"), n_k10),
    )
    for name in workload_names:
        w = paper_workloads()[name]
        arrays = evaluate_space_arrays(w, spaces)
        tp_err = 0.0
        energy_err = 0.0
        peak_err = 0.0
        for i, config in enumerate(enumerate_configurations(spaces)):
            ev = evaluate_configuration(w, config)
            tp_err = max(tp_err, abs(arrays.tp_s[i] / ev.tp_s - 1.0))
            energy_err = max(energy_err, abs(arrays.energy_j[i] / ev.energy_j - 1.0))
            peak_err = max(
                peak_err, abs(arrays.peak_power_w[i] / ev.peak_power_w - 1.0)
            )
        rows.append(
            (
                name,
                arrays.n_configs,
                f"{tp_err:.2e}",
                f"{energy_err:.2e}",
                f"{peak_err:.2e}",
            )
        )
    return (
        "workload",
        "configs",
        "max rel err T_P",
        "max rel err E_P",
        "max rel err peak W",
    ), rows


def knightshift_ablation(
    workload_name: str = "EP", *, budget_w: float = 1000.0
) -> Tuple[Headers, Rows]:
    """Server-level (KnightShift) vs inter-node heterogeneity."""
    w = paper_workloads()[workload_name]
    comparison = compare_with_internode(w, budget_w=budget_w)
    keys = [k for k in comparison["knightshift"] if k.startswith("ppr@")]
    headers = ("approach", "servers", "EPM", *keys)
    rows: Rows = []
    for name, values in comparison.items():
        rows.append(
            (
                name,
                int(values["servers"]),
                round(values["epm"], 3),
                *[round(values[k], 1) for k in keys],
            )
        )
    return headers, rows
