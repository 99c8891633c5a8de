"""Benchmark: vectorized Monte-Carlo engine vs the scalar DES loop.

Times the *simulate phase* — drawing one replication's randomness and
producing its waiting times — for two scenarios at ``n_jobs`` jobs x
``n_reps`` replications:

* **md1** — deterministic service (the paper's M/D/1 queue).  The scalar
  arm is NumPy arrival sampling plus the loop-carried recursion
  :func:`~repro.queueing.mc.scalar_lindley_waits`.
* **service_model** — exponential service (M/M/1).  The scalar arm is the
  pre-vectorization general-service simulation: one Python draw *per
  job*, then the scalar loop.  The vectorized arm replaces both with
  batched draws and the Lindley kernel — this is the scenario the
  >= 100x engine contract is pinned on, because per-job Python sampling
  is exactly what capped the replication counts before.

The scalar arms are too slow to run all ``n_reps`` replications
(~10 s for the service-model arm alone), so each is timed over
``scalar_reps`` replications and extrapolated linearly — per-replication
cost is constant, and the JSON records both the measured and the
extrapolated figures.  Alongside the timings the benchmark verifies the
engine's correctness contract: the span-normalised vectorized-vs-scalar
kernel agreement (<= 1e-12) on shared inputs, and the full
analytic-vs-simulated validation grid of
:mod:`repro.experiments.validation_mc`.

A note on the 100x target.  The issue that introduced this engine asked
for a >= 100x speedup at 1e5 jobs x 100 replications.  On a single-core
container that target is arithmetically out of reach for *any* correct
implementation: the scalar loop costs ~300 ns/job, while one sequential
memory pass over 1e5 float64s costs ~5 ns/element — and the vectorized
pipeline needs several such passes (sampling, cumsum, running max), so
its floor is ~15-25 ns/job, capping the ratio around 15-60x depending on
machine state.  Reaching 100x requires parallel replications across
cores, which the spawn-based generator streams support by construction
but a 1-CPU container cannot exercise.  The JSON therefore records the
honest measured ratio next to the aspirational target and a
``target_met`` flag instead of silently asserting it.  Run as a console
entry::

    python -m repro.benchmarks.mc [--output BENCH_mc.json]

"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ReproError
from repro.obs import get_registry, instrumented
from repro.obs.timer import bench_envelope, measure, timed, write_bench_json
from repro.parallel.pool import resolve_workers
from repro.queueing.mc import (
    MonteCarloQueue,
    exponential_service,
    lindley_waits,
    scalar_lindley_waits,
    waits_agreement,
)
from repro.queueing.processes import PoissonProcess
from repro.util.rng import DEFAULT_SEED

__all__ = ["run_benchmark", "main"]

#: The engines' agreement contract: span-normalised max deviation.
AGREEMENT_CONTRACT = 1e-12

#: Default scenario shape — the ISSUE's 1e5 jobs x 100 replications.
DEFAULT_N_JOBS = 100_000
DEFAULT_N_REPS = 100

#: The aspirational speedup target (see the module docstring for why a
#: single-core container cannot reach it) and the floors the benchmark
#: harness actually pins, chosen with 2x headroom for machine-state swings.
TARGET_SPEEDUP = 100.0
FLOOR_SPEEDUP = {"md1": 5.0, "service_model": 12.0}

_UTILISATION = 0.7
_SERVICE_S = 1.0


def _scalar_des_seconds(
    queue: MonteCarloQueue,
    n_jobs: int,
    scalar_reps: int,
    *,
    service_model: bool,
) -> float:
    """Time ``scalar_reps`` replications of the scalar simulation.

    Each replication draws its inputs from the same spawned generator
    stream the vectorized engine uses, so both arms solve statistically
    identical problems.
    """
    rngs = queue.spawn_generators(scalar_reps)
    process = PoissonProcess(queue.arrival_rate)
    with timed() as elapsed:
        for rng in rngs:
            arrivals = process.sample_arrivals(rng, n_jobs)
            if service_model:
                services: object = np.fromiter(
                    (float(rng.exponential(_SERVICE_S)) for _ in range(n_jobs)),
                    dtype=float,
                    count=n_jobs,
                )
            else:
                services = _SERVICE_S
            scalar_lindley_waits(arrivals, services)
    return elapsed()


def _kernel_agreement(
    queue: MonteCarloQueue, n_jobs: int, reps: int
) -> float:
    """Worst span-normalised vectorized-vs-scalar deviation on shared inputs."""
    worst = 0.0
    for rng in queue.spawn_generators(reps):
        arrivals = np.cumsum(
            rng.standard_exponential(n_jobs) / queue.arrival_rate
        )
        if queue.service_time_s is not None:
            services: object = queue.service_time_s
        else:
            services = rng.exponential(_SERVICE_S, n_jobs)
        vec = lindley_waits(arrivals, services)
        ora = scalar_lindley_waits(arrivals, services)
        worst = max(worst, waits_agreement(vec, ora, arrivals, services))
    return worst


def _scenario(
    queue: MonteCarloQueue,
    n_jobs: int,
    n_reps: int,
    scalar_reps: int,
    agreement_reps: int,
    *,
    service_model: bool,
    workers: int = 1,
) -> Dict[str, object]:
    """Time one scenario and check its agreement contract."""
    _, t_vec = measure(
        lambda: queue.simulate_waits(n_jobs, n_reps), repeats=1, warmup=0
    )
    vectorized_s = t_vec.best_s

    _, t_stats = measure(lambda: queue.run(n_jobs, n_reps), repeats=1, warmup=0)
    with_stats_s = t_stats.best_s

    scalar_measured_s = _scalar_des_seconds(
        queue, n_jobs, scalar_reps, service_model=service_model
    )
    scalar_extrapolated_s = scalar_measured_s * (n_reps / scalar_reps)
    agreement = _kernel_agreement(queue, n_jobs, agreement_reps)

    timings: Dict[str, object] = {
        "vectorized": vectorized_s,
        "vectorized_with_stats": with_stats_s,
        "scalar_measured": scalar_measured_s,
        "scalar_reps_measured": scalar_reps,
        "scalar_extrapolated": scalar_extrapolated_s,
    }
    speedup: Dict[str, object] = {
        "simulate_phase": scalar_extrapolated_s / vectorized_s,
        "with_stats": scalar_extrapolated_s / with_stats_s,
        "target": TARGET_SPEEDUP,
        "target_met": scalar_extrapolated_s / vectorized_s >= TARGET_SPEEDUP,
    }
    if workers > 1:
        _, t_par = measure(
            lambda: queue.run(n_jobs, n_reps, workers=workers),
            repeats=1,
            warmup=0,
        )
        timings["parallel_with_stats"] = t_par.best_s
        speedup["with_stats_parallel"] = scalar_extrapolated_s / t_par.best_s
        # With multiple cores the 100x target may be met by either arm.
        speedup["target_met"] = bool(
            speedup["target_met"]
            or scalar_extrapolated_s / t_par.best_s >= TARGET_SPEEDUP
        )
    return {
        "utilisation": _UTILISATION,
        "service": "exponential" if service_model else "deterministic",
        "timings_s": timings,
        "speedup": speedup,
        "agreement": {
            "max_span_normalised": agreement,
            "contract": AGREEMENT_CONTRACT,
            "reps_checked": agreement_reps,
        },
    }


def _parallel_bit_identity(
    queue: MonteCarloQueue, n_jobs: int, n_reps: int, workers: int
) -> bool:
    """Whether ``workers``-way and serial runs agree bit-for-bit on a
    reduced shape (the contract the parallel layer pins; cheap to verify
    inside the benchmark so every envelope carries the evidence)."""
    serial = queue.run(n_jobs, n_reps)
    par = queue.run(n_jobs, n_reps, workers=workers)
    return bool(
        np.array_equal(serial.response_percentiles_s, par.response_percentiles_s)
        and np.array_equal(serial.mean_response_s, par.mean_response_s)
        and np.array_equal(serial.mean_wait_s, par.mean_wait_s)
        and np.array_equal(serial.utilisation, par.utilisation)
    )


def run_benchmark(
    n_jobs: int = DEFAULT_N_JOBS,
    n_reps: int = DEFAULT_N_REPS,
    *,
    scalar_reps: int = 4,
    agreement_reps: int = 3,
    seed: int = DEFAULT_SEED,
    validation_jobs: int = 20_000,
    validation_reps: int = 40,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run both scenarios plus the validation grid; return a JSON dict in
    the shared ``repro-bench/1`` envelope.

    ``workers`` adds a parallel arm to each scenario's timings (the
    replication fan-out of :mod:`repro.parallel.mc`), feeds the validation
    grid, and is recorded in ``params`` next to ``cpus_available`` so
    envelopes from different worker counts are never compared as equals.
    """
    if n_jobs <= 0 or n_reps <= 0:
        raise ReproError("n_jobs and n_reps must be positive")
    scalar_reps = min(max(scalar_reps, 1), n_reps)
    n_workers = resolve_workers(workers)

    md1 = MonteCarloQueue.from_utilisation(_UTILISATION, _SERVICE_S, seed=seed)
    mm1 = MonteCarloQueue(
        _UTILISATION / _SERVICE_S, exponential_service(_SERVICE_S), seed=seed
    )
    with timed() as elapsed:
        scenarios = {
            "md1": _scenario(
                md1, n_jobs, n_reps, scalar_reps, agreement_reps,
                service_model=False, workers=n_workers,
            ),
            "service_model": _scenario(
                mm1, n_jobs, n_reps, scalar_reps, agreement_reps,
                service_model=True, workers=n_workers,
            ),
        }

        from repro.experiments.validation_mc import run_validation

        report = run_validation(
            n_jobs=validation_jobs,
            n_reps=validation_reps,
            seed=seed,
            workers=n_workers if n_workers > 1 else None,
        )
    import os

    parallel: Optional[Dict[str, object]] = None
    if n_workers > 1:
        check_jobs, check_reps = min(n_jobs, 10_000), min(n_reps, 8)
        parallel = {
            "workers": n_workers,
            "bit_identical": _parallel_bit_identity(
                md1, check_jobs, check_reps, n_workers
            ),
            "checked": {"n_jobs": check_jobs, "n_reps": check_reps},
        }

    # One short instrumented reduction feeds the metrics sidecar
    # (replication/job counters, buffer reuses); timed separately above.
    with instrumented():
        md1.run(min(n_jobs, 10_000), min(n_reps, 8))
        metrics = get_registry().snapshot()

    extra: Dict[str, object] = {}
    if parallel is not None:
        extra["parallel"] = parallel
    return bench_envelope(
        "mc",
        {
            "n_jobs": n_jobs,
            "n_reps": n_reps,
            "scalar_reps": scalar_reps,
            "seed": seed,
            "workers": n_workers,
            "cpus_available": os.cpu_count(),
        },
        {"total": elapsed()},
        note=(
            "serial speedups are single-core; the 100x target needs "
            "parallel replications across cores — the workers>1 arm "
            "(speedup.with_stats_parallel) measures exactly that "
            "(see repro/benchmarks/mc.py docstring)"
        ),
        scenarios=scenarios,
        validation={
            "cells": len(report.cells),
            "flagged": len(report.flagged),
            "all_agree": report.all_agree,
            "agreement_fraction": report.agreement_fraction,
            "level": report.level,
            "n_jobs": validation_jobs,
            "n_reps": validation_reps,
        },
        metrics=metrics,
        **extra,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: run the MC benchmark and write JSON."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchmarks.mc",
        description="Time the vectorized Monte-Carlo engine vs the scalar DES loop.",
    )
    parser.add_argument("--jobs", type=int, default=DEFAULT_N_JOBS)
    parser.add_argument("--reps", type=int, default=DEFAULT_N_REPS)
    parser.add_argument(
        "--scalar-reps",
        type=int,
        default=4,
        help="replications to actually time on the scalar arms",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for the parallel replication arm "
            "(0 = all CPUs); results stay bit-identical at any value"
        ),
    )
    parser.add_argument(
        "--output",
        default="BENCH_mc.json",
        help="result JSON path (default: ./BENCH_mc.json)",
    )
    args = parser.parse_args(argv)

    try:
        result = run_benchmark(
            args.jobs,
            args.reps,
            scalar_reps=args.scalar_reps,
            workers=args.workers,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sidecar = write_bench_json(args.output, result)

    for name, sc in result["scenarios"].items():
        t = sc["timings_s"]
        s = sc["speedup"]
        a = sc["agreement"]
        parallel_note = (
            f", parallel {s['with_stats_parallel']:.0f}x"
            if "with_stats_parallel" in s
            else ""
        )
        print(
            f"{name:14s} vectorized {t['vectorized']:.3f} s, scalar "
            f"{t['scalar_extrapolated']:.1f} s (extrapolated from "
            f"{t['scalar_reps_measured']} reps) -> "
            f"{s['simulate_phase']:.0f}x{parallel_note} "
            f"(target {s['target']:.0f}x met: {s['target_met']}); "
            f"agreement {a['max_span_normalised']:.2e}"
        )
    v = result["validation"]
    print(
        f"validation grid: {v['cells']} cells, {v['flagged']} flagged "
        f"({'all agree' if v['all_agree'] else 'DISAGREEMENT'})"
    )
    par = result.get("parallel")
    if par:
        print(
            f"parallel arm: {par['workers']} workers, bit-identical to "
            f"serial: {par['bit_identical']}"
        )
    print(f"wrote {args.output}" + (f" (+ {sidecar})" if sidecar else ""))
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry
    sys.exit(main())
