"""Benchmark: batched serving vs a per-request exhaustive re-sweep.

The ``repro.serve`` claim is architectural: answering ``recommend``
queries from a digest-keyed frontier cache plus a single-lane compute
path is at least 20x faster than what the CLI did before the service
existed — re-running ``recommend_exhaustive`` from a cold
operating-point cache for every query.  This benchmark times both arms
on the *same seeded query plan*:

* **resweep** — the pre-service baseline: for each planned query,
  ``clear_constants_cache()`` then one ``recommend_exhaustive`` pass
  over the full space (every query pays the sweep, like a fresh
  ``repro recommend`` process),
* **served** — a closed-loop :func:`repro.serve.loadgen.run_loadgen`
  run against an in-process :class:`repro.serve.service.ReproService`
  (cache hits answered from the deadline staircase).

Both arms draw their deadlines from the identically seeded
``serve/loadgen`` stream, so the served arm's first ``resweep_requests``
queries are exactly the baseline's plan.  Besides the throughput ratio
(the ``speedup.batched_vs_resweep`` floor), the envelope records both
arms' client-side p50/p95 so the "at equal p95" part of the claim is a
recorded number, not an assumption.

A third measurement prices request-level observability: two warm
services answer the identical seeded plan, one with full trace sampling
(``trace_sample=1.0``) and one with request tracing disabled, and
``instrumentation.overhead_ratio`` is the best-of-rounds wall ratio —
the CI gate holds it under 1.15x.  Run as a console entry::

    python -m repro.benchmarks.serve [--output BENCH_serve.json]

"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.configuration import TypeSpace
from repro.cluster.pareto import pareto_indices
from repro.cluster.search import recommend_exhaustive
from repro.errors import ModelError, ReproError
from repro.hardware.specs import get_node_spec
from repro.model.batched import clear_constants_cache, evaluate_space_arrays
from repro.obs import get_registry, instrumented
from repro.obs.timer import bench_envelope, write_bench_json
from repro.util.rng import DEFAULT_SEED, RngRegistry
from repro.workloads.suite import paper_workloads

__all__ = ["run_benchmark", "main"]


def _serve_spaces(max_wimpy: int, max_brawny: int) -> List[TypeSpace]:
    """The serving configuration space (mirrors the service defaults)."""
    return [
        TypeSpace(get_node_spec("A9"), n_max=max_wimpy),
        TypeSpace(get_node_spec("K10"), n_max=max_brawny),
    ]


def _frontier_tp_ranges(
    workload_names: Sequence[str], spaces: Sequence[TypeSpace]
) -> Dict[str, Tuple[float, float]]:
    """Each workload's Pareto-frontier execution-time range, offline.

    The same range the service's ``/frontier`` endpoint reports and the
    load generator's priming pass reads — computed here without a server
    so the baseline arm can replay the identical seeded deadline draws.
    """
    suite = paper_workloads()
    ranges: Dict[str, Tuple[float, float]] = {}
    for name in workload_names:
        if name not in suite:
            raise ModelError(
                f"unknown paper workload {name!r}; expected one of {tuple(suite)}"
            )
        arrays = evaluate_space_arrays(suite[name], spaces)
        frontier = pareto_indices(arrays.tp_s, arrays.energy_j)
        tp = arrays.tp_s[frontier]
        ranges[name] = (float(tp.min()), float(tp.max()))
    return ranges


def _tracing_overhead(
    *,
    workloads: Sequence[str],
    clients: int,
    seed: int,
    rounds: int = 3,
    requests: int = 400,
) -> Dict[str, object]:
    """Wall-clock ratio of full tracing vs tracing disabled, best of rounds.

    Both arms boot a warm service over a deliberately small space (so the
    precompute sweep is cheap and every planned query is a cache hit) and
    answer the identical seeded closed-loop plan; the only difference is
    ``trace_sample=1.0`` vs ``request_tracing=False``.  Best-of-rounds
    absorbs scheduler noise, mirroring the scheduler benchmark's gate.
    """
    import asyncio

    from repro.serve.loadgen import run_loadgen
    from repro.serve.service import ReproService, ServeConfig

    # The service precomputes its *default* space at startup; querying the
    # same space keeps every planned request a warm cache hit, so the two
    # arms time the request path itself, not the sweep.
    space_params = {"max_wimpy": 6, "max_brawny": 3}

    async def _arm(tracing: bool) -> float:
        service = ReproService(
            ServeConfig(
                precompute=tuple(workloads),
                request_tracing=tracing,
                trace_sample=1.0,
            )
        )
        await service.start()
        try:
            result = await run_loadgen(
                service.host,
                service.port,
                mode="closed",
                clients=clients,
                total_requests=requests,
                workloads=tuple(workloads),
                space=space_params,
                seed=seed,
            )
        finally:
            await service.close()
        if result.errors or result.completed != result.attempted:
            raise ReproError(
                f"overhead arm did not complete cleanly: {result.statuses}"
            )
        return result.wall_s

    ratios: List[float] = []
    traced_walls: List[float] = []
    untraced_walls: List[float] = []
    for _ in range(rounds):
        traced = asyncio.run(_arm(True))
        untraced = asyncio.run(_arm(False))
        traced_walls.append(traced)
        untraced_walls.append(untraced)
        ratios.append(traced / untraced)
    return {
        "overhead_ratio": float(min(ratios)),
        "overhead_ratios": [float(r) for r in ratios],
        "rounds": rounds,
        "requests_per_arm": requests,
        "traced_wall_s": [float(w) for w in traced_walls],
        "untraced_wall_s": [float(w) for w in untraced_walls],
    }


def run_benchmark(
    *,
    workloads: Sequence[str] = ("EP", "memcached"),
    served_requests: int = 400,
    resweep_requests: int = 40,
    clients: int = 8,
    max_wimpy: int = 10,
    max_brawny: int = 10,
    seed: int = DEFAULT_SEED,
) -> Dict[str, object]:
    """Time the per-request re-sweep baseline against batched serving.

    Returns a JSON-serialisable ``repro-bench/1`` envelope.  Both arms
    answer queries over the paper's footnote-4 space (10 A9 + 10 K10,
    36,380 configurations — the space ``BENCH_sweep.json`` pins), so the
    baseline is the canonical full-sweep cost per query.  The baseline
    arm runs fewer requests than the served arm (a cold re-sweep per
    query dominates the runtime); throughputs are rates, so the arms
    remain directly comparable.
    """
    if served_requests < 1 or resweep_requests < 1:
        raise ReproError("both arms need at least one request")
    from repro.serve.loadgen import _build_plan, loadgen_scalars, run_loadgen
    from repro.serve.service import ReproService, ServeConfig

    suite = paper_workloads()
    spaces = _serve_spaces(max_wimpy, max_brawny)
    space_params = {"max_wimpy": max_wimpy, "max_brawny": max_brawny}
    tp_ranges = _frontier_tp_ranges(workloads, spaces)

    # Baseline arm: the identically seeded plan prefix, each query paying
    # a full cold sweep — what `repro recommend` per query used to cost.
    rng = RngRegistry(seed).stream("serve/loadgen")
    plan = _build_plan(rng, resweep_requests, list(workloads), tp_ranges, space_params)
    per_request_s: List[float] = []
    for body in plan:
        clear_constants_cache()
        t0 = perf_counter()
        recommend_exhaustive(
            suite[str(body["workload"])], spaces, deadline_s=float(body["deadline_s"])
        )
        per_request_s.append(perf_counter() - t0)
    resweep_total_s = float(sum(per_request_s))
    resweep_rps = resweep_requests / resweep_total_s
    resweep_lat = np.asarray(per_request_s)

    # Served arm: closed-loop load against an in-process service, with
    # the registry live so the metrics sidecar captures the serve counters.
    async def _served():
        service = ReproService(
            ServeConfig(precompute=tuple(workloads), slo_p95_s=0.25)
        )
        await service.start()
        try:
            result = await run_loadgen(
                service.host,
                service.port,
                mode="closed",
                clients=clients,
                total_requests=served_requests,
                workloads=tuple(workloads),
                space=space_params,
                seed=seed,
            )
            recorder = service.recorder
            obs: Dict[str, object] = {
                "slo": recorder.slo_stats(),
                "sampler": recorder.sampler.stats(),
                "stages": recorder.stage_breakdown(),
            }
            slowest = recorder.flight.slowest()
            if slowest is not None:
                from repro.obs.request import span_coverage

                obs["slowest_kept"] = {
                    "request_id": slowest.request_id,
                    "endpoint": slowest.endpoint,
                    "wall_s": slowest.wall_s,
                    "coverage": span_coverage(slowest.to_dict()),
                }
            return result, service.summary_scalars(), obs
        finally:
            await service.close()

    import asyncio

    with instrumented():
        result, summary, observability = asyncio.run(_served())
        metrics = get_registry().snapshot()
    if result.errors or result.completed != result.attempted:
        raise ReproError(
            f"served arm did not complete cleanly: {result.statuses}"
        )

    instrumentation = _tracing_overhead(
        workloads=workloads, clients=clients, seed=seed
    )

    return bench_envelope(
        "serve",
        {
            "workloads": list(workloads),
            "served_requests": served_requests,
            "resweep_requests": resweep_requests,
            "clients": clients,
            "max_wimpy": max_wimpy,
            "max_brawny": max_brawny,
            "seed": seed,
        },
        {
            "resweep_total": resweep_total_s,
            "served_wall": result.wall_s,
        },
        resweep={
            "requests": resweep_requests,
            "throughput_rps": resweep_rps,
            "p50_latency_s": float(np.percentile(resweep_lat, 50.0)),
            "p95_latency_s": float(np.percentile(resweep_lat, 95.0)),
        },
        served={**loadgen_scalars(result), "server": summary},
        speedup={"batched_vs_resweep": result.throughput_rps / resweep_rps},
        instrumentation=instrumentation,
        observability=observability,
        metrics=metrics,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: run the serving benchmark and write JSON."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchmarks.serve",
        description="Time batched serving vs a per-request exhaustive re-sweep.",
    )
    parser.add_argument(
        "--workloads",
        default="EP,memcached",
        help="comma-separated paper workloads (default: %(default)s)",
    )
    parser.add_argument("--requests", type=int, default=400, help="served arm size")
    parser.add_argument(
        "--resweep-requests", type=int, default=40, help="baseline arm size"
    )
    parser.add_argument("--clients", type=int, default=8, help="closed-loop clients")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="plan seed")
    parser.add_argument(
        "--output",
        default="BENCH_serve.json",
        help="result JSON path (default: ./BENCH_serve.json)",
    )
    args = parser.parse_args(argv)

    try:
        result = run_benchmark(
            workloads=tuple(w.strip() for w in args.workloads.split(",") if w.strip()),
            served_requests=args.requests,
            resweep_requests=args.resweep_requests,
            clients=args.clients,
            seed=args.seed,
        )
    except (ModelError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sidecar = write_bench_json(args.output, result)

    resweep = result["resweep"]
    served = result["served"]
    print(
        f"re-sweep baseline: {resweep['throughput_rps']:.1f} req/s "
        f"(p95 {resweep['p95_latency_s'] * 1e3:.1f} ms)"
    )
    print(
        f"batched serving:   {served['throughput_rps']:.1f} req/s "
        f"(p95 {served['p95_latency_s'] * 1e3:.2f} ms)"
    )
    print(f"speedup: {result['speedup']['batched_vs_resweep']:.0f}x")
    print(
        "tracing overhead: "
        f"{result['instrumentation']['overhead_ratio']:.3f}x "
        "(full sampling vs tracing off, best of "
        f"{result['instrumentation']['rounds']})"
    )
    print(f"wrote {args.output}" + (f" (+ {sidecar})" if sidecar else ""))
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry
    sys.exit(main())
