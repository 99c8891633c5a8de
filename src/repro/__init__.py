"""repro — energy proportionality and time-energy performance of
heterogeneous clusters.

A complete, self-contained reproduction of Ramapantulu, Loghin & Teo,
"On Energy Proportionality and Time-Energy Performance of Heterogeneous
Clusters" (IEEE CLUSTER 2016): the measurement-driven time-energy model,
the energy-proportionality metric suite (DPR/IPR/EPM/LDR/PG/PPR), the
M/D/1 utilisation and response-time analysis, the heterogeneous
configuration space with its power-budget mixes and energy-deadline Pareto
frontier, a simulated measurement testbed (nodes + perf-style counters +
power meter) standing in for the paper's physical cluster, and experiment
drivers regenerating every table and figure of the evaluation.

Quick start::

    import repro

    ep = repro.workload("EP")
    cluster = repro.ClusterConfiguration.mix({"A9": 64, "K10": 8})
    print(repro.proportionality_report(ep, cluster))
    print(repro.p95_response_s(ep, cluster, utilisation=0.9))

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the reproduction methodology and results.
"""

from repro.cluster.budget import (
    PowerBudget,
    budget_mixes,
    substitution_ratio,
    switch_power_w,
)
from repro.cluster.configuration import (
    ClusterConfiguration,
    NodeGroup,
    TypeSpace,
    count_configurations,
    enumerate_configurations,
)
from repro.cluster.search import (
    Recommendation,
    recommend_exhaustive,
    recommend_greedy,
)
from repro.cluster.pareto import (
    TIME_TIE_REL,
    ConfigEvaluation,
    evaluate_configuration,
    evaluate_configuration_cached,
    evaluate_space,
    pareto_frontier,
    pareto_indices,
    sweet_region,
    sweet_spot,
)
from repro.core.metrics import (
    LinearPowerCurve,
    PowerCurve,
    PPRCurve,
    ProportionalityReport,
    QuadraticPowerCurve,
    SampledPowerCurve,
    analyze_curve,
    dpr,
    epm,
    ipr,
    ldr_paper,
    ldr_strict,
    ppr,
    proportionality_gap,
)
from repro.core.proportionality import (
    UtilisationSweep,
    power_curve,
    ppr_curve,
    proportionality_report,
    sublinear_crossover,
    sublinear_mask,
    sweep,
    window_energy_j,
)
from repro.core.response import (
    ResponseTimeSweep,
    p95_response_s,
    response_percentile_s,
    response_sweep,
    simulated_response_percentile_s,
)
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    MeasurementError,
    ModelError,
    QueueingError,
    ReproError,
    WorkloadError,
)
from repro.hardware.specs import (
    DvfsPoint,
    NodeSpec,
    PowerProfile,
    get_node_spec,
    register_node_spec,
    registered_node_names,
)
from repro.hardware.testbed import MeasuredJob, Testbed, validation_testbed
from repro.model.energy_model import (
    JobEnergy,
    PowerDraw,
    dynamic_power_w,
    job_energy,
    peak_power_w,
    power_draw,
)
from repro.model.time_model import (
    JobExecution,
    cluster_service_rate,
    execution_time,
    job_execution,
    node_service_rate,
)
from repro.model.batched import (
    OperatingPointConstants,
    SpaceEvaluationArrays,
    clear_constants_cache,
    config_constants,
    evaluate_space_arrays,
    operating_point_constants,
)
from repro.model.vectorized import MixEvaluation, evaluate_mix_grid
from repro.model.validation import (
    ValidationPipeline,
    ValidationRow,
    validate_workloads,
)
from repro.queueing import (
    MD1Queue,
    MDCQueue,
    MG1Queue,
    MM1Queue,
    MonteCarloQueue,
    QueueSimulator,
    ReplicatedResult,
)
from repro.util.rng import DEFAULT_SEED, RngRegistry
from repro.workloads.base import ActivityFactors, Workload, WorkloadDemand
from repro.workloads.suite import (
    PAPER_WORKLOAD_NAMES,
    build_workload,
    paper_workloads,
    workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "CalibrationError",
    "ModelError",
    "QueueingError",
    "MeasurementError",
    "WorkloadError",
    # hardware
    "NodeSpec",
    "PowerProfile",
    "DvfsPoint",
    "get_node_spec",
    "register_node_spec",
    "registered_node_names",
    "Testbed",
    "MeasuredJob",
    "validation_testbed",
    # workloads
    "Workload",
    "WorkloadDemand",
    "ActivityFactors",
    "PAPER_WORKLOAD_NAMES",
    "paper_workloads",
    "workload",
    "build_workload",
    # cluster
    "ClusterConfiguration",
    "NodeGroup",
    "TypeSpace",
    "count_configurations",
    "enumerate_configurations",
    "PowerBudget",
    "budget_mixes",
    "substitution_ratio",
    "switch_power_w",
    "ConfigEvaluation",
    "TIME_TIE_REL",
    "evaluate_configuration",
    "evaluate_configuration_cached",
    "evaluate_space",
    "pareto_frontier",
    "pareto_indices",
    "sweet_region",
    "sweet_spot",
    "Recommendation",
    "recommend_exhaustive",
    "recommend_greedy",
    # model
    "JobExecution",
    "JobEnergy",
    "PowerDraw",
    "job_execution",
    "job_energy",
    "execution_time",
    "cluster_service_rate",
    "node_service_rate",
    "dynamic_power_w",
    "peak_power_w",
    "power_draw",
    "ValidationPipeline",
    "ValidationRow",
    "validate_workloads",
    "MixEvaluation",
    "evaluate_mix_grid",
    "OperatingPointConstants",
    "SpaceEvaluationArrays",
    "operating_point_constants",
    "config_constants",
    "evaluate_space_arrays",
    "clear_constants_cache",
    # queueing
    "MD1Queue",
    "MDCQueue",
    "MM1Queue",
    "MG1Queue",
    "QueueSimulator",
    "MonteCarloQueue",
    "ReplicatedResult",
    # metrics and analysis
    "PowerCurve",
    "LinearPowerCurve",
    "QuadraticPowerCurve",
    "SampledPowerCurve",
    "PPRCurve",
    "ProportionalityReport",
    "analyze_curve",
    "dpr",
    "ipr",
    "epm",
    "ldr_strict",
    "ldr_paper",
    "ppr",
    "proportionality_gap",
    "power_curve",
    "ppr_curve",
    "proportionality_report",
    "sublinear_mask",
    "sublinear_crossover",
    "UtilisationSweep",
    "sweep",
    "window_energy_j",
    "ResponseTimeSweep",
    "response_percentile_s",
    "simulated_response_percentile_s",
    "p95_response_s",
    "response_sweep",
    # utilities
    "RngRegistry",
    "DEFAULT_SEED",
]
