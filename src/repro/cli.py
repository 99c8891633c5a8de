"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artefacts and run the library's analyses
without writing any Python:

* ``table {4,5,6,7,8}`` — print one of the paper's tables.
* ``figure <id>`` — render one figure as an ASCII chart (``fig2``,
  ``fig5a``..``fig5c``, ``fig6a``..``fig6c``, ``fig7``..``fig12``);
  ``--csv DIR`` additionally exports the data.
* ``validate`` — run the Table 4 measurement-driven validation pipeline.
* ``validate-mc`` — Monte-Carlo cross-validation of the analytic p95
  claims (exit 1 when any grid cell's analytic value falls outside the
  simulated confidence interval).
* ``report <workload> --mix A9=64,K10=8`` — proportionality + PPR +
  response-time report for one workload on one cluster mix.
* ``recommend <workload> --deadline S`` — search the configuration space
  for the minimum-energy cluster meeting a deadline.
* ``characterize <workload>`` — measured-vs-true Table 1 parameters from
  the simulated testbed.
* ``ablations`` — print every ablation study.
* ``sensitivity`` — print the calibration sensitivity analyses.
* ``schedule`` — replay one autoscaled day through the online scheduler
  (``--policy``, ``--trace``, ``--workload``) and print the timeline;
  ``--json`` emits the full per-interval telemetry stream instead.
* ``robustness`` — re-ask the Table 6 ranking and Fig. 9 contrast under
  the stochastic-process grid (bursty/flash-crowd/diurnal arrivals,
  heavy-tailed services; see :mod:`repro.experiments.robustness`); the
  report is ledgered as a ``repro-robustness/1`` envelope and exits 1
  when the baseline cell stops matching the paper.
* ``profile <command> ...`` — run any other command under instrumentation
  and print a flame summary plus the collected metrics.
* ``obs {record,report,diff,check,watch,compact}`` — the run-ledger
  family: ingest bench envelopes or manual records (``record``), render
  the sparkline trend dashboard (``report`` / ``watch``), statistically
  diff metric histories (``diff``, exit 1 on a regression beyond
  tolerance), evaluate the paper's claim monitors (``check``, exit 1 on
  any red), and archive old records (``compact``).

The top-level ``--seed`` feeds every seeded command (``schedule``,
``validate-mc``, ``robustness``, ``sensitivity``, ``table 4``,
``validate``, ``characterize``); a subcommand's own ``--seed`` takes
precedence when both are given.  The top-level ``--log-level`` configures the ``repro``
logger hierarchy (see :mod:`repro.obs.logs`).

Observability: every command accepts ``--trace-out PATH`` (Chrome-trace
JSON, loadable in ``chrome://tracing``) and ``--metrics-out PATH`` (the
metrics-registry snapshot as JSON).  Either flag runs the command under
:func:`repro.obs.instrumented`; ``profile`` does the same and adds the
human-readable summary.  Both paths get their missing parent directories
created and **overwrite** an existing file — each run's artifact replaces
the last; point different runs at different paths to keep both.

Run ledger: every non-``obs`` subcommand appends one ``repro-run/1``
record (git SHA, seed, config digest, result scalars, wall/CPU time) to
the append-only JSONL store under ``.repro/runs/`` (see
:mod:`repro.obs.ledger`).  ``--no-ledger`` disables recording for one
invocation, ``--ledger-dir DIR`` relocates the store, and the
``REPRO_LEDGER`` / ``REPRO_LEDGER_DIR`` environment variables do the
same globally.  The ``obs`` family itself never appends ``cli/*``
records — reading the ledger must not grow it (``obs check`` writes
``monitor/*`` records, which is its job).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.errors import ReproError
from repro.obs.logs import LOG_LEVELS, configure_logging

__all__ = ["main", "build_parser"]


def _parse_mix(text: str) -> Dict[str, int]:
    """Parse ``"A9=64,K10=8"`` into a mix mapping."""
    mix: Dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"bad mix entry {part!r}; expected NAME=COUNT"
            )
        name, _, count = part.partition("=")
        try:
            mix[name.strip()] = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad node count in {part!r}") from None
    if not mix:
        raise argparse.ArgumentTypeError(f"empty mix {text!r}")
    return mix


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    from repro import __version__
    from repro.scheduler.policies import POLICY_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Energy proportionality and time-energy performance of "
            "heterogeneous clusters (CLUSTER 2016 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed for every seeded command (subcommand --seed wins)",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help="configure the repro logger hierarchy on stderr",
    )
    parser.add_argument(
        "--ledger-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="run-ledger store (default: $REPRO_LEDGER_DIR or .repro/runs)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the run ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared observability flags: any command can dump a Chrome trace and a
    # metrics snapshot of its own run.  A parent parser puts the flags
    # *after* the subcommand, where argparse can still see them when
    # ``profile`` re-parses its REMAINDER.
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "run instrumented; write spans as Chrome-trace JSON to PATH "
            "(parent dirs created, existing file overwritten)"
        ),
    )
    obs_parent.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "run instrumented; write the metrics snapshot as JSON to PATH "
            "(parent dirs created, existing file overwritten)"
        ),
    )

    # Subcommand --seed flags default to SUPPRESS so an omitted flag leaves
    # the top-level value in the namespace instead of clobbering it.
    p_table = sub.add_parser(
        "table", help="print one of the paper's tables", parents=[obs_parent]
    )
    p_table.add_argument("number", type=int, choices=(4, 5, 6, 7, 8))
    p_table.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="root seed for Table 4's pipeline",
    )

    p_fig = sub.add_parser(
        "figure", help="render one of the paper's figures", parents=[obs_parent]
    )
    p_fig.add_argument("name", help="figure id, e.g. fig9 (see repro.experiments)")
    p_fig.add_argument("--csv", type=Path, default=None, help="export data to DIR")

    p_val = sub.add_parser(
        "validate", help="run the Table 4 validation pipeline", parents=[obs_parent]
    )
    p_val.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_val.add_argument("--wimpy", type=int, default=4, help="A9 nodes in the rack")
    p_val.add_argument("--brawny", type=int, default=1, help="K10 nodes in the rack")

    p_mc = sub.add_parser(
        "validate-mc",
        help="Monte-Carlo cross-validation of the analytic p95 claims",
        parents=[obs_parent],
    )
    p_mc.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root seed"
    )
    p_mc.add_argument(
        "--jobs", type=int, default=20_000, help="jobs per replication"
    )
    p_mc.add_argument(
        "--reps", type=int, default=40, help="replications per grid cell"
    )
    p_mc.add_argument(
        "--level", type=float, default=0.99, help="confidence level"
    )
    p_mc.add_argument(
        "--workloads",
        default=None,
        help="comma-separated paper workloads (default: EP,memcached,x264)",
    )
    p_mc.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the MC replications (0 = all CPUs); "
        "the report is bit-identical at any worker count",
    )

    p_rep = sub.add_parser(
        "report", help="analyse one workload on one mix", parents=[obs_parent]
    )
    p_rep.add_argument("workload")
    p_rep.add_argument("--mix", type=_parse_mix, default={"A9": 64, "K10": 8})
    p_rep.add_argument(
        "--utilisation", type=float, default=0.9, help="for the response-time row"
    )

    p_rec = sub.add_parser(
        "recommend", help="search for a deadline-meeting cluster", parents=[obs_parent]
    )
    p_rec.add_argument("workload")
    p_rec.add_argument("--deadline", type=float, required=True, help="seconds")
    p_rec.add_argument("--max-wimpy", type=int, default=16)
    p_rec.add_argument("--max-brawny", type=int, default=4)
    p_rec.add_argument("--budget", type=float, default=None, help="watts")
    p_rec.add_argument(
        "--strategy", choices=("greedy", "exhaustive"), default="greedy"
    )
    p_rec.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the exhaustive search (0 = all CPUs); "
        "the greedy descent is inherently serial and ignores this",
    )

    p_char = sub.add_parser(
        "characterize",
        help="measured-vs-true Table 1 parameters for a workload",
        parents=[obs_parent],
    )
    p_char.add_argument("workload")
    p_char.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    sub.add_parser(
        "ablations", help="print every ablation study", parents=[obs_parent]
    )
    p_sens = sub.add_parser(
        "sensitivity",
        help="print the calibration sensitivity analyses",
        parents=[obs_parent],
    )
    p_sens.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="root seed for the random-perturbation draws",
    )
    p_sens.add_argument(
        "--draws", type=int, default=32, help="random perturbation draws"
    )

    p_sched = sub.add_parser(
        "schedule",
        help="replay one autoscaled day through the online scheduler",
        parents=[obs_parent],
    )
    p_sched.add_argument(
        "--workload", default="EP", help="study workload (EP, memcached, x264)"
    )
    p_sched.add_argument(
        "--policy", choices=POLICY_NAMES, default="ppr-greedy", help="dispatch policy"
    )
    p_sched.add_argument(
        "--trace",
        choices=("diurnal", "constant"),
        default="diurnal",
        help="demand trace shape",
    )
    p_sched.add_argument(
        "--demand",
        type=float,
        default=0.5,
        help="demand fraction for --trace constant",
    )
    p_sched.add_argument(
        "--intervals", type=int, default=24, help="control intervals in the day"
    )
    p_sched.add_argument(
        "--interval-s", type=float, default=20.0, help="control interval length [s]"
    )
    p_sched.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root seed"
    )
    p_sched.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the fleet into this many independently-autoscaled "
        "shards (0 = unsharded global dispatch); changes the experiment, "
        "not just its execution",
    )
    p_sched.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes executing the shards (0 = all CPUs); the "
        "sharded result is bit-identical at any worker count",
    )
    p_sched.add_argument(
        "--full",
        action="store_true",
        help="run the full study (all policies, mix contrast) instead of one day",
    )
    p_sched.add_argument(
        "--json",
        action="store_true",
        help="emit the replay as JSON with the full per-interval telemetry stream",
    )

    p_rob = sub.add_parser(
        "robustness",
        help="re-ask the ranking/contrast claims under the process grid",
        parents=[obs_parent],
    )
    p_rob.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root seed"
    )
    p_rob.add_argument(
        "--workloads",
        default=None,
        help="comma-separated paper workloads (default: EP,memcached,x264,rsa2048)",
    )
    p_rob.add_argument(
        "--arrivals",
        default=None,
        help="comma-separated arrival kinds (default: poisson,mmpp,flash-crowd,diurnal)",
    )
    p_rob.add_argument(
        "--services",
        default=None,
        help="comma-separated service kinds "
        "(default: deterministic,exponential,lognormal,pareto)",
    )
    p_rob.add_argument(
        "--jobs", type=int, default=4000, help="jobs per MC replication"
    )
    p_rob.add_argument(
        "--reps", type=int, default=12, help="MC replications per grid cell"
    )
    p_rob.add_argument(
        "--slo-mult",
        type=float,
        default=None,
        help="p95 SLO as a multiple of the slowest node type's T_P (default 12)",
    )
    p_rob.add_argument(
        "--skip-contrast",
        action="store_true",
        help="skip the Fig. 9 mix-contrast part (ranking grid only)",
    )
    p_rob.add_argument(
        "--skip-replay",
        action="store_true",
        help="skip the scheduler oracle-gap part (ranking grid only)",
    )
    p_rob.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for each cell's MC replications (0 = all "
        "CPUs); the report is bit-identical at any worker count",
    )
    p_rob.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-robustness/1 envelope instead of tables",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on recommendation service (HTTP)",
        parents=[obs_parent],
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=32, help="frontier-cache LRU capacity"
    )
    p_serve.add_argument(
        "--slo-p95-ms",
        type=float,
        default=250.0,
        help="p95 response SLO the M/D/1 admission threshold is derived from [ms]",
    )
    p_serve.add_argument(
        "--precompute",
        default="EP",
        help="comma-separated workloads swept into the cache at startup "
        "('' = none)",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many seconds (default: run until interrupted)",
    )
    p_serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="stop after this many requests (the CI smoke bound)",
    )
    p_serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.05,
        help="routine-traffic request-trace sampling rate in [0, 1] "
        "(errors/sheds/p99 tail are always kept)",
    )
    p_serve.add_argument(
        "--no-request-tracing",
        action="store_true",
        help="disable per-request tracing entirely (burn-rate alerting "
        "and the request-id echo stay on)",
    )
    p_serve.add_argument(
        "--flight-dir",
        type=Path,
        default=None,
        help="flight-recorder dump directory "
        "(default: $REPRO_FLIGHT_DIR or .repro/flight)",
    )
    p_serve.add_argument(
        "--flight-capacity",
        type=int,
        default=64,
        help="fully-traced requests retained for post-mortem dumps",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive a seeded open/closed-loop load run against the service",
        parents=[obs_parent],
    )
    p_load.add_argument(
        "--host", default="127.0.0.1", help="target service address"
    )
    p_load.add_argument(
        "--port",
        type=int,
        default=None,
        help="target service port (default: boot a service in-process)",
    )
    p_load.add_argument(
        "--mode", choices=("closed", "open"), default="closed", help="loop mode"
    )
    p_load.add_argument(
        "--clients", type=int, default=8, help="concurrent client connections"
    )
    p_load.add_argument(
        "--requests", type=int, default=200, help="measured /recommend requests"
    )
    p_load.add_argument(
        "--arrival",
        default="poisson",
        help="open-loop arrival process (poisson, mmpp, flash-crowd, diurnal)",
    )
    p_load.add_argument(
        "--rate", type=float, default=200.0, help="open-loop arrival rate [req/s]"
    )
    p_load.add_argument(
        "--workloads",
        default="EP,memcached",
        help="comma-separated workloads the query plan draws from",
    )
    p_load.add_argument("--max-wimpy", type=int, default=6)
    p_load.add_argument("--max-brawny", type=int, default=3)
    p_load.add_argument("--budget", type=float, default=None, help="watts")
    p_load.add_argument(
        "--cold-fraction",
        type=float,
        default=0.0,
        help="fraction of requests given a never-seen digest (forced cold "
        "sweeps — the overload injector for admission/burn-rate drills)",
    )
    p_load.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="query-plan seed"
    )
    p_load.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-serve/1 envelope instead of the summary table",
    )

    p_prof = sub.add_parser(
        "profile",
        help="run any command under instrumentation and print a flame summary",
    )
    p_prof.add_argument("cmd", help="the command to wrap (e.g. schedule)")
    p_prof.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments for the wrapped command (including --trace-out/--metrics-out)",
    )

    p_obs = sub.add_parser(
        "obs",
        help="run ledger: record, report, diff, check, watch, compact",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_obs_rec = obs_sub.add_parser(
        "record",
        help="append records: ingest BENCH_*.json envelopes or one manual record",
    )
    p_obs_rec.add_argument(
        "--bench",
        type=Path,
        nargs="+",
        default=None,
        metavar="PATH",
        help="repro-bench/1 envelope(s) to ingest as bench/<name> records",
    )
    p_obs_rec.add_argument(
        "--name", default=None, help="run name for a manual record"
    )
    p_obs_rec.add_argument(
        "--kind",
        choices=("cli", "benchmark", "monitor", "experiment"),
        default="experiment",
        help="kind of the manual record",
    )
    p_obs_rec.add_argument(
        "--scalar",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="result scalar of the manual record (repeatable)",
    )
    p_obs_rec.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed of the recorded run"
    )

    p_obs_rep = obs_sub.add_parser(
        "report", help="render the sparkline trend dashboard over the ledger"
    )
    p_obs_rep.add_argument(
        "--names", default=None, help="comma-separated run names (default: all)"
    )
    p_obs_rep.add_argument(
        "--tolerance", type=float, default=0.25, help="drift annotation tolerance"
    )

    p_obs_diff = obs_sub.add_parser(
        "diff",
        help="statistical drift check over ledger history (exit 1 on regression)",
    )
    p_obs_diff.add_argument(
        "--names", default=None, help="comma-separated run names (default: all)"
    )
    p_obs_diff.add_argument(
        "--scalars", default=None, help="comma-separated scalar keys (default: all)"
    )
    p_obs_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative-change tolerance band (default 0.25)",
    )

    p_obs_check = obs_sub.add_parser(
        "check",
        help="evaluate the paper's claim monitors (exit 1 when any goes red)",
    )
    p_obs_check.add_argument(
        "--monitors",
        default=None,
        help="comma-separated monitor names (default: all; see repro.obs.monitors)",
    )
    p_obs_check.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root seed"
    )
    p_obs_check.add_argument(
        "--no-record",
        action="store_true",
        help="do not append monitor results to the ledger",
    )

    p_obs_watch = obs_sub.add_parser(
        "watch", help="re-render the dashboard every interval"
    )
    p_obs_watch.add_argument(
        "--interval", type=float, default=5.0, help="seconds between renders"
    )
    p_obs_watch.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N renders (default: run until interrupted)",
    )
    p_obs_watch.add_argument(
        "--names", default=None, help="comma-separated run names (default: all)"
    )
    p_obs_watch.add_argument(
        "--serve",
        default=None,
        metavar="URL",
        help="watch a live service instead of the ledger: poll URL/stats "
        "and stream SLO burn rate + stage-latency breakdown "
        "(e.g. http://127.0.0.1:8080)",
    )

    p_obs_flight = obs_sub.add_parser(
        "flight",
        help="inspect flight-recorder post-mortem dumps",
    )
    p_obs_flight.add_argument(
        "--dir",
        type=Path,
        default=None,
        help="dump directory (default: $REPRO_FLIGHT_DIR or .repro/flight)",
    )
    p_obs_flight.add_argument(
        "--last",
        action="store_true",
        help="show the newest dump in detail (exit 1 when there is none)",
    )
    p_obs_flight.add_argument(
        "--dump",
        type=Path,
        default=None,
        metavar="PATH",
        help="show one specific dump in detail",
    )
    p_obs_flight.add_argument(
        "--json",
        action="store_true",
        help="emit the selected dump's JSON document verbatim",
    )

    p_obs_compact = obs_sub.add_parser(
        "compact",
        help="move records beyond the retention window to the archive",
    )
    p_obs_compact.add_argument(
        "--keep",
        type=int,
        default=None,
        help="records kept per run name (default: 200)",
    )
    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import report

    if args.number == 4:
        kwargs = {} if args.seed is None else {"seed": args.seed}
        print(report.report_table4(**kwargs))
    else:
        print(getattr(report, f"report_table{args.number}")())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.report import _FIGURES, report_figure

    try:
        print(report_figure(args.name))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.csv is not None:
        figure = _FIGURES[args.name]()
        csv_path, gp_path = figure.save(args.csv, args.name)
        print(f"[data: {csv_path}  plot: {gp_path}]")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.model.validation import validate_workloads
    from repro.util.rng import DEFAULT_SEED
    from repro.util.tables import render_table
    from repro.workloads.suite import paper_workloads

    rows = validate_workloads(
        list(paper_workloads().values()),
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        n_wimpy=args.wimpy,
        n_brawny=args.brawny,
    )
    print(
        render_table(
            ("Domain", "Program", "time err[%]", "energy err[%]"),
            [
                (r.domain, r.workload_name, round(r.time_error_pct, 1), round(r.energy_error_pct, 1))
                for r in rows
            ],
            title=f"Validation on {args.wimpy} A9 + {args.brawny} K10",
        )
    )
    return 0


def _cmd_validate_mc(args: argparse.Namespace) -> int:
    from repro.experiments.validation_mc import (
        VALIDATION_WORKLOADS,
        render_validation_report,
        run_validation,
    )
    from repro.util.rng import DEFAULT_SEED

    workloads = (
        tuple(part.strip() for part in args.workloads.split(",") if part.strip())
        if args.workloads
        else VALIDATION_WORKLOADS
    )
    report = run_validation(
        workloads=workloads,
        n_jobs=args.jobs,
        n_reps=args.reps,
        level=args.level,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        workers=args.workers,
    )
    from repro.experiments.validation_mc import report_scalars

    args._scalars = report_scalars(report)
    print(render_validation_report(report))
    return 0 if report.all_agree else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import repro
    from repro.util.tables import render_kv

    w = repro.workload(args.workload)
    config = repro.ClusterConfiguration.mix(args.mix)
    report = repro.proportionality_report(w, config)
    ppr = repro.ppr_curve(w, config)
    print(
        render_kv(
            {
                "workload": str(w),
                "cluster": config.label(),
                "T_P [s]": repro.execution_time(w, config),
                "E_P [J]": repro.job_energy(w, config).e_total_j,
                "idle [W]": report.idle_w,
                "peak [W]": report.peak_w,
                "DPR [%]": report.dpr,
                "IPR": report.ipr,
                "EPM": report.epm,
                "LDR (paper)": report.ldr_paper,
                "peak PPR": ppr.peak_ppr,
                f"p95 response @ {args.utilisation:.0%} [s]": repro.p95_response_s(
                    w, config, args.utilisation
                ),
            },
            title="Workload report",
        )
    )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    import repro
    from repro.cluster.search import recommend_exhaustive, recommend_greedy
    from repro.parallel.pool import resolve_workers
    from repro.util.tables import render_kv

    w = repro.workload(args.workload)
    spaces = [
        repro.TypeSpace(repro.get_node_spec("A9"), n_max=args.max_wimpy),
        repro.TypeSpace(repro.get_node_spec("K10"), n_max=args.max_brawny),
    ]
    budget = repro.PowerBudget(args.budget) if args.budget else None
    if args.strategy == "greedy":
        rec = recommend_greedy(w, spaces, deadline_s=args.deadline, budget=budget)
    elif resolve_workers(args.workers) > 1:
        from repro.parallel.search import recommend_parallel

        rec = recommend_parallel(
            w, spaces, deadline_s=args.deadline, budget=budget, workers=args.workers
        )
    else:
        rec = recommend_exhaustive(w, spaces, deadline_s=args.deadline, budget=budget)
    if rec is None:
        print("No configuration meets the deadline (and budget).", file=sys.stderr)
        return 1
    args._scalars = {
        "tp_s": rec.evaluation.tp_s,
        "energy_j": rec.evaluation.energy_j,
        "peak_power_w": rec.evaluation.peak_power_w,
        "evaluated_configs": float(rec.evaluated_configs),
    }
    group = rec.config.groups[0]
    print(
        render_kv(
            {
                "mix": rec.config.label(),
                "operating point": str(rec.config),
                "T_P [s]": rec.evaluation.tp_s,
                "E_P [J]": rec.evaluation.energy_j,
                "peak power [W]": rec.evaluation.peak_power_w,
                "configurations evaluated": rec.evaluated_configs,
                "strategy": rec.strategy,
            },
            title=f"Recommendation for {w.name} (deadline {args.deadline} s)",
        )
    )
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments import ablations
    from repro.util.tables import render_table

    studies = [
        ("Power-curve shape", ablations.curvature_ablation),
        ("Switch power vs substitution ratio", ablations.switch_power_ablation),
        ("Service-time variability", ablations.service_variability_ablation),
        ("Open vs batch arrivals", ablations.open_vs_batch_ablation),
        ("Pooled vs partitioned dispatch", ablations.pooling_ablation),
        ("Static vs dynamic configuration", ablations.adaptation_ablation),
        ("Fork-join straggler penalty", ablations.fork_join_ablation),
        ("KnightShift vs inter-node", ablations.knightshift_ablation),
        ("Batched sweep engine vs scalar oracle", ablations.sweep_engine_ablation),
    ]
    for title, fn in studies:
        headers, rows = fn()
        print(render_table(headers, rows, title=f"Ablation: {title}"))
        print()
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments.report import report_characterization
    from repro.util.rng import DEFAULT_SEED

    print(
        report_characterization(
            args.workload,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments import sensitivity
    from repro.util.rng import DEFAULT_SEED
    from repro.util.tables import render_table

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    for title, fn in (
        ("Sub-linear crossover (EP, 25 A9 : 7 K10)", sensitivity.crossover_sensitivity),
        ("Per-workload PPR winners", sensitivity.conclusion_sensitivity),
        (
            f"Random perturbation draws (seed {seed})",
            lambda: sensitivity.seeded_sensitivity(seed, n_draws=args.draws),
        ),
    ):
        headers, rows = fn()
        print(render_table(headers, rows, title=f"Sensitivity: {title}"))
        print()
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.experiments.scheduling import (
        render_schedule_summary,
        render_scheduling_report,
        replay_day,
        replay_scalars,
        run_scheduling_study,
        schedule_result_json,
        study_scalars,
    )
    from repro.util.rng import DEFAULT_SEED

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if args.full:
        if args.json:
            raise ReproError("--json covers a single replay; drop --full")
        if args.shards > 1 or (args.workers is not None and args.workers != 1):
            raise ReproError(
                "--full replays every policy x trace cell unsharded; "
                "drop --shards/--workers or run a single replay"
            )
        study = run_scheduling_study(seed)
        args._scalars = study_scalars(study)
        print(render_scheduling_report(study))
        return 0
    result, oracle = replay_day(
        args.workload,
        args.policy,
        trace_kind=args.trace,
        seed=seed,
        n_intervals=args.intervals,
        interval_s=args.interval_s,
        demand=args.demand,
        shards=args.shards,
        workers=args.workers,
    )
    args._scalars = replay_scalars(result, oracle)
    if args.json:
        print(json.dumps(schedule_result_json(result, oracle, seed=seed), indent=2))
    else:
        print(render_schedule_summary(result, oracle))
    return 0


def _split_csv(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    parts = tuple(part.strip() for part in text.split(",") if part.strip())
    return parts or None


def _cmd_robustness(args: argparse.Namespace) -> int:
    from time import perf_counter, process_time

    from repro.experiments.robustness import (
        DEFAULT_SLO_MULTIPLE,
        ROBUSTNESS_WORKLOADS,
        render_robustness_report,
        robustness_json,
        robustness_scalars,
        run_robustness,
    )
    from repro.queueing.processes import ARRIVAL_KINDS, SERVICE_KINDS
    from repro.util.rng import DEFAULT_SEED

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    t0, c0 = perf_counter(), process_time()
    report = run_robustness(
        seed,
        workloads=_split_csv(args.workloads) or ROBUSTNESS_WORKLOADS,
        arrivals=_split_csv(args.arrivals) or ARRIVAL_KINDS,
        services=_split_csv(args.services) or SERVICE_KINDS,
        slo_multiple=(
            args.slo_mult if args.slo_mult is not None else DEFAULT_SLO_MULTIPLE
        ),
        n_jobs=args.jobs,
        n_reps=args.reps,
        workers=args.workers,
        contrast=not args.skip_contrast,
        replay=not args.skip_replay,
    )
    wall, cpu = perf_counter() - t0, process_time() - c0
    args._scalars = robustness_scalars(report)
    envelope = robustness_json(report)
    _record_robustness_run(args, report, envelope, wall, cpu)
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        print(render_robustness_report(report))
    return 0 if report.baseline_match_fraction == 1.0 else 1


def _record_robustness_run(
    args: argparse.Namespace, report, envelope, wall_s: float, cpu_s: float
) -> None:
    """Append the full ``repro-robustness/1`` envelope as an experiment
    record (the routine ``cli/robustness`` record only keeps the scalars)."""
    from repro.obs.ledger import default_ledger, ledger_enabled, new_record

    if getattr(args, "no_ledger", False) or not ledger_enabled():
        return
    record = new_record(
        "experiment",
        "experiment/robustness",
        params={
            "slo_multiple": report.slo_multiple,
            "n_jobs": report.n_jobs,
            "n_reps": report.n_reps,
            "n_cells": len(report.cells),
        },
        scalars=getattr(args, "_scalars", None),
        seed=report.seed,
        wall_s=wall_s,
        cpu_s=cpu_s,
        exit_code=0 if report.baseline_match_fraction == 1.0 else 1,
        extra=envelope,
    )
    try:
        default_ledger(getattr(args, "ledger_dir", None)).append(record)
    except OSError:
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on service until a stop condition, then record ONE
    ``cli/serve`` summary record — the service's internal queries never
    touch the CLI ledger path (satellite contract: no per-query records)."""
    import asyncio

    from repro.obs import get_registry
    from repro.serve import ReproService, ServeConfig

    # A serving process owns its /metrics endpoint: enable the process
    # registry so the burn-rate gauges and labelled latency histogram are
    # live in a default boot.  Library embeddings keep the off-by-default
    # contract — only the CLI flips the switch, and it restores the prior
    # state on exit so in-process callers (tests) see no global leak.
    registry = get_registry()
    registry_was_enabled = registry.enabled
    registry.enable()

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_capacity=args.cache_size,
        slo_p95_s=args.slo_p95_ms / 1000.0,
        precompute=tuple(_split_csv(args.precompute) or ()),
        max_requests=args.max_requests,
        request_tracing=not args.no_request_tracing,
        trace_sample=args.trace_sample,
        flight_capacity=args.flight_capacity,
        flight_dir=str(args.flight_dir) if args.flight_dir else None,
    )
    holder: Dict[str, object] = {}

    async def main() -> None:
        service = ReproService(config)
        await service.start()
        print(
            f"[serve] listening on http://{service.host}:{service.port} "
            f"(SLO p95 {config.slo_p95_s * 1e3:g} ms, "
            f"cache {config.cache_capacity})",
            flush=True,
        )
        try:
            await service.run_until_stopped(args.duration)
        finally:
            holder["scalars"] = service.summary_scalars()
            await service.close()

    rc = 0
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        rc = 130
    finally:
        if not registry_was_enabled:
            registry.disable()
    scalars = holder.get("scalars")
    if scalars is not None:
        args._scalars = scalars
        from repro.util.tables import render_kv

        print(render_kv(dict(scalars), title="Serve summary"))
    return rc


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    from time import perf_counter, process_time

    from repro.serve import ServeConfig
    from repro.serve.loadgen import (
        loadgen_envelope,
        loadgen_scalars,
        run_loadgen,
        selfhosted_loadgen,
    )
    from repro.util.rng import DEFAULT_SEED
    from repro.util.tables import render_kv

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    space = {
        "max_wimpy": args.max_wimpy,
        "max_brawny": args.max_brawny,
        "budget_w": args.budget,
    }
    kwargs = dict(
        mode=args.mode,
        clients=args.clients,
        total_requests=args.requests,
        arrival=args.arrival,
        rate_rps=args.rate,
        workloads=tuple(_split_csv(args.workloads) or ("EP",)),
        space=space,
        seed=seed,
        cold_fraction=args.cold_fraction,
    )
    t0, c0 = perf_counter(), process_time()
    if args.port is not None:
        result = asyncio.run(run_loadgen(args.host, args.port, **kwargs))
        serve_summary = None
    else:
        result, serve_summary = selfhosted_loadgen(ServeConfig(), **kwargs)
    wall, cpu = perf_counter() - t0, process_time() - c0
    args._scalars = loadgen_scalars(result)
    envelope = loadgen_envelope(result, params={**kwargs, "space": space})
    if serve_summary is not None:
        envelope["serve_summary"] = serve_summary
    rc = 0 if result.errors == 0 else 1
    _record_loadgen_run(args, result, envelope, wall, cpu, rc)
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        rows = {
            "mode": result.mode,
            "attempted": result.attempted,
            "completed": result.completed,
            "shed (503)": result.shed,
            "errors": result.errors,
            "infeasible": result.infeasible,
            "throughput [req/s]": result.throughput_rps,
            "p50 latency [ms]": result.p50_s * 1e3,
            "p95 latency [ms]": result.p95_s * 1e3,
            "p99 latency [ms]": result.p99_s * 1e3,
        }
        if result.lateness_s:
            rows["generator lateness p99 [ms]"] = result.lateness_p99_s * 1e3
        print(render_kv(rows, title=f"Loadgen against /recommend (seed {seed})"))
    return rc


def _record_loadgen_run(
    args: argparse.Namespace, result, envelope, wall_s: float, cpu_s: float, rc: int
) -> None:
    """Append the ``repro-serve/1`` envelope as an experiment record (the
    routine ``cli/loadgen`` record only keeps the scalars)."""
    from repro.obs.ledger import default_ledger, ledger_enabled, new_record

    if getattr(args, "no_ledger", False) or not ledger_enabled():
        return
    record = new_record(
        "experiment",
        "experiment/serve-loadgen",
        params={
            "mode": result.mode,
            "clients": args.clients,
            "requests": args.requests,
            "arrival": args.arrival,
            "rate": args.rate,
            "workloads": args.workloads,
        },
        scalars=getattr(args, "_scalars", None),
        seed=result.seed,
        wall_s=wall_s,
        cpu_s=cpu_s,
        exit_code=rc,
        extra=envelope,
    )
    try:
        default_ledger(getattr(args, "ledger_dir", None)).append(record)
    except OSError:
        pass


def _parse_scalar_pairs(pairs: Sequence[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"bad scalar {pair!r}; expected KEY=VALUE")
        try:
            out[key] = float(value)
        except ValueError:
            raise ReproError(f"bad scalar value in {pair!r}") from None
    return out


def _split_csv(text: Optional[str]) -> Optional[list]:
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return parts or None


def _obs_record(args: argparse.Namespace, ledger) -> int:
    from repro.obs.drift import bench_scalars
    from repro.obs.ledger import new_record

    if args.bench is None and args.name is None:
        raise ReproError("obs record needs --bench PATH... or --name NAME")
    if args.bench is not None:
        for path in args.bench:
            try:
                doc = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ReproError(f"cannot read bench envelope {path}: {exc}") from None
            benchmark = str(doc.get("benchmark", "")) or "unknown"
            params = {
                k: v
                for k, v in dict(doc.get("params", {})).items()
                if isinstance(v, (str, int, float, bool)) or v is None
            }
            seed = params.get("seed")
            rec = ledger.append(
                new_record(
                    "benchmark",
                    f"bench/{benchmark}",
                    params=params,
                    scalars=bench_scalars(benchmark, doc),
                    seed=seed if isinstance(seed, int) else None,
                )
            )
            print(f"recorded bench/{benchmark} ({rec.run_id}) from {path}")
        return 0
    scalars = _parse_scalar_pairs(args.scalar or [])
    rec = ledger.append(
        new_record(
            args.kind,
            args.name,
            scalars=scalars,
            seed=getattr(args, "seed", None),
        )
    )
    print(f"recorded {rec.name} ({rec.run_id}): {len(scalars)} scalar(s)")
    return 0


def _obs_report(args: argparse.Namespace, ledger) -> int:
    from repro.obs.dashboard import render_dashboard

    print(
        render_dashboard(
            ledger, names=_split_csv(args.names), tolerance=args.tolerance
        )
    )
    return 0


def _obs_diff(args: argparse.Namespace, ledger) -> int:
    from repro.obs.drift import diff_ledger, render_drifts

    drifts = diff_ledger(
        ledger,
        names=_split_csv(args.names),
        scalars=_split_csv(args.scalars),
        tolerance=args.tolerance,
    )
    print(render_drifts(drifts))
    return 1 if any(d.status == "regression" for d in drifts) else 0


def _obs_check(args: argparse.Namespace, ledger) -> int:
    from repro.obs.monitors import render_monitor_report, run_monitors
    from repro.util.rng import DEFAULT_SEED

    results = run_monitors(
        _split_csv(args.monitors),
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        ledger=ledger,
        record=not args.no_record,
    )
    print(render_monitor_report(results))
    return 0 if all(r.passed for r in results) else 1


def _fetch_serve_stats(url: str) -> dict:
    """GET ``url/stats`` and parse the JSON body (stdlib only).

    Module-level so tests can monkeypatch the fetch without a socket.
    """
    from urllib.request import urlopen

    target = url.rstrip("/") + "/stats"
    try:
        with urlopen(target, timeout=5.0) as resp:  # noqa: S310 - user URL
            return json.loads(resp.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot fetch {target}: {exc}") from None


def _obs_watch(args: argparse.Namespace, ledger) -> int:
    import time

    from repro.obs.dashboard import render_dashboard, render_serve_watch

    if args.interval < 0:
        raise ReproError(f"interval must be >= 0, got {args.interval}")
    if args.iterations is not None and args.iterations < 1:
        raise ReproError(f"iterations must be >= 1, got {args.iterations}")
    n = 0
    burn_history: list = []
    try:
        while True:
            if args.serve is not None:
                stats = _fetch_serve_stats(args.serve)
                slo = dict(stats.get("slo") or {})
                burn_history.append(float(slo.get("fast_burn") or 0.0))
                del burn_history[:-64]  # bounded polling history
                print(render_serve_watch(stats, burn_history))
            else:
                print(render_dashboard(ledger, names=_split_csv(args.names)))
            n += 1
            if args.iterations is not None and n >= args.iterations:
                return 0
            print(f"--- refresh in {args.interval:g}s (ctrl-c to stop) ---")
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _obs_flight(args: argparse.Namespace, ledger) -> int:
    from repro.obs.dashboard import render_flight_summary
    from repro.obs.request import list_flight_dumps, load_flight_dump

    directory = args.dir
    if args.dump is not None:
        target = args.dump
    elif args.last:
        dumps = list_flight_dumps(directory)
        if not dumps:
            print("no flight dumps found")
            return 1
        target = dumps[-1]
    else:
        dumps = list_flight_dumps(directory)
        if not dumps:
            print("no flight dumps found")
            return 0
        print(f"{len(dumps)} flight dump(s):")
        for path in dumps:
            try:
                doc = load_flight_dump(path)
            except (OSError, ValueError) as exc:
                print(f"  {path.name}  UNREADABLE: {exc}")
                continue
            slowest = dict(doc.get("slowest") or {})
            print(
                f"  {path.name}  [{doc.get('reason')}]  "
                f"{len(list(doc.get('requests') or []))} request(s)  "
                f"slowest {float(slowest.get('wall_s') or 0.0) * 1e3:.2f} ms"
            )
        return 0
    try:
        doc = load_flight_dump(target)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read flight dump {target}: {exc}") from None
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_flight_summary(doc, path=str(target)))
    return 0


def _obs_compact(args: argparse.Namespace, ledger) -> int:
    from repro.obs.ledger import DEFAULT_RETENTION

    keep = args.keep if args.keep is not None else DEFAULT_RETENTION
    moved = ledger.compact(keep=keep)
    print(
        f"archived {moved} record(s) beyond the newest {keep} per name"
        f" (archive: {ledger.archive_path})"
    )
    return 0


_OBS_COMMANDS = {
    "record": _obs_record,
    "report": _obs_report,
    "diff": _obs_diff,
    "check": _obs_check,
    "watch": _obs_watch,
    "flight": _obs_flight,
    "compact": _obs_compact,
}


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.ledger import default_ledger

    ledger = default_ledger(getattr(args, "ledger_dir", None))
    return _OBS_COMMANDS[args.obs_command](args, ledger)


_COMMANDS = {
    "table": _cmd_table,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
    "validate-mc": _cmd_validate_mc,
    "report": _cmd_report,
    "recommend": _cmd_recommend,
    "ablations": _cmd_ablations,
    "sensitivity": _cmd_sensitivity,
    "characterize": _cmd_characterize,
    "schedule": _cmd_schedule,
    "robustness": _cmd_robustness,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "obs": _cmd_obs,
}

#: Namespace keys that are plumbing, not run configuration — excluded from
#: the ledger record's params (and hence from its config digest).
_NON_CONFIG_KEYS = frozenset(
    {"command", "obs_command", "log_level", "trace_out", "metrics_out",
     "ledger_dir", "no_ledger", "csv",
     # Execution placement, not configuration: results are bit-identical
     # at any worker count, so the config digest must not change with it.
     # (--shards stays in params — sharding changes the experiment.)
     "workers"}
)


def _ledger_params(args: argparse.Namespace) -> Dict[str, object]:
    """The command's configuration as a JSON-able params dict.

    Output paths and plumbing flags are excluded so the config digest
    identifies *what was computed*, not where artifacts landed.
    """
    params: Dict[str, object] = {}
    for key, value in vars(args).items():
        if key.startswith("_") or key in _NON_CONFIG_KEYS:
            continue
        if isinstance(value, Path):
            continue
        if isinstance(value, dict):
            params[key] = {str(k): v for k, v in sorted(value.items())}
        elif isinstance(value, (str, int, float, bool)) or value is None:
            params[key] = value
    return params


def _record_cli_run(
    args: argparse.Namespace, rc: int, wall_s: float, cpu_s: float
) -> None:
    """Append one ``cli/<command>`` record; never fails the command."""
    from repro.obs.ledger import default_ledger, ledger_enabled, new_record

    if getattr(args, "no_ledger", False) or not ledger_enabled():
        return
    record = new_record(
        "cli",
        f"cli/{args.command}",
        params=_ledger_params(args),
        scalars=getattr(args, "_scalars", None),
        seed=getattr(args, "seed", None),
        wall_s=wall_s,
        cpu_s=cpu_s,
        exit_code=rc,
    )
    try:
        default_ledger(getattr(args, "ledger_dir", None)).append(record)
    except OSError:
        pass


def _run_command(args: argparse.Namespace, *, summary: bool = False) -> int:
    """Dispatch one parsed command, instrumenting when artifacts are asked
    for and appending the run to the ledger (``obs`` family excluded —
    reading the ledger must not grow it)."""
    from time import perf_counter, process_time

    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    record = args.command != "obs"
    t0, c0 = perf_counter(), process_time()
    if trace_out is None and metrics_out is None and not summary:
        rc = _COMMANDS[args.command](args)
        if record:
            _record_cli_run(args, rc, perf_counter() - t0, process_time() - c0)
        return rc

    from repro.obs import get_registry, get_tracer, instrumented

    with instrumented():
        rc = _COMMANDS[args.command](args)
    wall, cpu = perf_counter() - t0, process_time() - c0
    if trace_out is not None:
        get_tracer().write_chrome_trace(trace_out)
        print(f"[trace: {trace_out}]", file=sys.stderr)
    if metrics_out is not None:
        get_registry().write_json(metrics_out)
        print(f"[metrics: {metrics_out}]", file=sys.stderr)
    if summary:
        print()
        print(get_tracer().render_flame())
        prom = get_registry().to_prometheus()
        if prom:
            print()
            print(prom, end="")
    if record:
        _record_cli_run(args, rc, wall, cpu)
    return rc


def _cmd_profile(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    inner = parser.parse_args([args.cmd] + list(args.rest))
    if inner.command == "profile":
        raise ReproError("profile cannot wrap itself")
    # Propagate the outer --seed unless the wrapped command set its own.
    if args.seed is not None and getattr(inner, "seed", None) is None:
        inner.seed = args.seed
    # Ledger flags live before the subcommand, so the wrapped parse never
    # sees the outer values; carry them over.
    inner.no_ledger = args.no_ledger
    inner.ledger_dir = args.ledger_dir
    return _run_command(inner, summary=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    try:
        if args.command == "profile":
            return _cmd_profile(args, parser)
        return _run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
