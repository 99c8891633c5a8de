"""Run the repository benchmark: five workloads, each in fresh processes.

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out RESULTS.json]

For every workload it measures set-up time over several set-up-only
spawns, then runs the workload once for ``--seconds``, checks its outputs
and prints every metric of ``BENCHMARK.json`` by name with its unit.
Untraced runs report the end-to-end metrics; ``--trace`` runs report the
per-layer breakdown and the tracing overhead instead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Runs are hermetic: the ledger is off, flight dumps and temporary files go
to a directory under ``.bench_tmp/`` that is removed afterwards, and no
``BENCH_*.json`` is written.  ``--out`` appends the run to a results file
that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional, Sequence

from stats import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("serve-warm", "serve-mixed", "repro-offline", "mc-validate", "sched-day")
DEFAULT_SEED = 20160913

#: Set-up samples per workload (set-up-only spawns plus the measured one).
SETUP_SAMPLES = 5

#: Every workload process of one run must have ended this many seconds
#: after the run started.
RUN_DEADLINE_S = 170

#: Seconds measured per workload under --smoke.
SMOKE_SECONDS = 0.5

#: Layers may overrun the traced operations' wall by at most this share.
LAYER_SUM_TOLERANCE = 0.05


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_LEDGER"] = "0"
    env["REPRO_FLIGHT_DIR"] = str(tmp / "flight")
    env["TMPDIR"] = str(tmp)
    return env


def spawn(workload: str, args, tmp: Path, deadline: float, *, setup_only: bool) -> Dict[str, Any]:
    """One workload process; its JSON document, or a failure record."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--tmp", str(tmp)]
    if args.trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(1.0, deadline - monotonic())
    cmd += ["--spawned-at", repr(monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(tmp), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def run_workload(workload: str, args, tmp: Path, catalogue, deadline: float) -> Dict[str, Any]:
    """Set-up samples plus one measured run of one workload."""
    setups: List[float] = []
    samples = 1 if args.smoke else SETUP_SAMPLES
    for _ in range(samples - 1):
        doc = spawn(workload, args, tmp, deadline, setup_only=True)
        if "error" in doc:
            return {"workload": workload, "correct": False, "error": doc["error"]}
        setups.append(doc["setup_s"])
    doc = spawn(workload, args, tmp, deadline, setup_only=False)
    if "error" in doc:
        return {"workload": workload, "correct": False, "error": doc["error"]}
    setups.append(doc["setup_s"])
    checks = doc["checks"]
    if args.trace:
        layers = doc["layers"]
        residual = next(v for k, v in layers.items() if k.endswith("unattributed_ms"))
        wall = layers["op_wall_ms"]
        checks.append({
            "name": "layers_within_op_wall",
            "ok": residual >= -LAYER_SUM_TOLERANCE * wall,
            "detail": f"residual {residual:.4g} ms of {wall:.4g} ms per op",
        })
        values = {m["name"]: layers.get(m["name"], 0.0) for m in catalogue["per_layer"]}
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in catalogue["per_layer"]}
    else:
        values = dict(doc["e2e"], setup_s=median(setups))
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in catalogue["end_to_end"]}
    return {
        "workload": workload,
        "correct": doc["correct"] and all(c["ok"] for c in checks),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "setups": setups,
        "metrics": metrics,
        "checks": checks,
        "info": doc["info"],
    }


def report(run: Dict[str, Any], args) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {run['workload']}  seed {args.seed}  {args.seconds:g} s  {mode} ==")
    if "error" in run:
        print(f"  FAILED: {run['error']}")
        return
    print(f"  attempted {run['attempted']}  failed {run['failed']}")
    for name, (value, unit) in run["metrics"].items():
        if value:
            print(f"  {name:<44} {value:>14.6g} {unit}")
    for key, summary in run["info"].items():
        if isinstance(summary, dict) and "p50_ms" in summary:
            print(f"  {key:<44} p50 {summary['p50_ms']:.4g} ms, "
                  f"p{summary['tail_q']:g} {summary['tail_ms']:.4g} ms (n={summary['n']:.0f})")
        elif not isinstance(summary, dict):
            print(f"  {key:<44} {summary:.6g}")
    for check in run["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']}: {status} {check['detail']}")


def append_results(path: Path, runs: Sequence[Dict[str, Any]], args) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    for run in runs:
        doc["runs"].append({
            "workload": run["workload"],
            "seed": args.seed,
            "trace": bool(args.trace),
            "correct": run["correct"],
            "metrics": {k: v for k, (v, _) in run.get("metrics", {}).items()},
        })
    path.write_text(json.dumps(doc, indent=1) + "\n")


def summary_line(runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    single = len(runs) == 1
    metrics = {}
    for run in runs:
        for name, (value, unit) in run.get("metrics", {}).items():
            key = name if single else f"{run['workload']}/{name}"
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": max(1, sum(r.get("attempted", 0) for r in runs)),
        "failed": sum(r.get("failed", 0) for r in runs) + sum(1 for r in runs if "error" in r),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", action="append", default=[],
                        help="workload name(s), comma-separated or repeated (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, reduced sizes, one set-up sample")
    parser.add_argument("--out", type=Path, help="append the results to this JSON file")
    args = parser.parse_args(argv)
    names = [n for arg in args.workload for n in arg.split(",") if n] or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        return fail(f"unknown workloads {unknown}; expected among {list(WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    try:
        catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.smoke:
        args.seconds = SMOKE_SECONDS

    deadline = monotonic() + RUN_DEADLINE_S * len(names)
    scratch = ROOT / ".bench_tmp"
    tmp = scratch / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runs = [run_workload(name, args, tmp, catalogue, deadline) for name in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for run in runs:
        report(run, args)
    if args.out is not None:
        append_results(args.out, runs, args)
    line = summary_line(runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
