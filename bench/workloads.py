"""The five benchmark workloads; one run of one workload is one process.

    python bench/workloads.py NAME --seed N --seconds S --spawned-at T --tmp DIR
                              [--trace] [--setup-only] [--smoke]

Sets the workload up, measures it for ``S`` seconds, checks its outputs
and prints one JSON document as the last line of stdout.  ``--spawned-at``
is the spawning process's ``time.monotonic()`` just before it started this
one, so set-up time includes interpreter start and imports.  With
``--setup-only`` it stops after set-up.  With ``--trace`` the measured
window alternates untraced and traced blocks (whole operations, or
one-second request blocks for the serve workloads): the traced blocks
give the per-layer breakdown, the ratio of the two gives the tracing
overhead.

Every input is generated from ``--seed``.  The program is driven only
through its public entry points: the HTTP service (hosted by
``serve_host.py``), ``repro.experiments``, ``recommend_exhaustive``,
``run_validation``/``run_mm1_validation`` and ``run_scheduling_study``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter, process_time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from checks import (
    Checks,
    cell_rows,
    check_lindley,
    load_expected,
    recommendation_row,
    same,
    served_row,
    text_digest,
)
from client import Answer, closed_loop, open_connections, open_loop, open_loop_check, render_request
from layers import LayerTracer
from stats import median, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("serve-warm", "serve-mixed", "repro-offline", "mc-validate", "sched-day")

#: The paper's footnote-4 space: up to 10 A9 and 10 K10 nodes with every
#: core count and DVFS point, 36,380 configurations.
MAX_WIMPY = 10
MAX_BRAWNY = 10

#: Workloads asked of the service (a compute-bound and a serving one).
SERVE_WORKLOADS = ("EP", "memcached")

#: Keep-alive connections of the serve client: no more than the two cores
#: the benchmark is sized for.
CONNECTIONS = 2

#: serve-mixed: requests offered per second, and the share of them that
#: miss the cache.
MIXED_RATE_PER_S = 100.0
MIXED_MISS_SHARE = 0.2

#: Answered requests per serve run re-derived offline for bit-identity.
SAMPLE_ANSWERS = 64

#: Serve runs are measured in blocks of about this length, one sample each.
BLOCK_S = 1.0

#: repro-offline: seeded exhaustive-search queries per paper workload per
#: pass, drawn from the reference pool.
QUERIES_PER_WORKLOAD = 8

#: The figures ``repro figure`` renders (the paper's Figures 2 and 5-12).
FIGURES = ("fig2", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
           "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")

#: mc-validate grid: the full validate-mc grid, or one workload's single
#: nodes under ``--smoke``.
MC_SMOKE_GRID = {"workloads": ("EP",), "mixes": ((1, 0), (0, 1))}

#: sched-day: control intervals of one simulated day (fewer under ``--smoke``).
SCHED_INTERVALS = 24
SCHED_SMOKE_INTERVALS = 6

#: ppr-greedy may use at most this much more energy than the offline oracle.
MAX_ORACLE_GAP = 0.05


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def footprint_spaces():
    import repro

    return [
        repro.TypeSpace(repro.get_node_spec("A9"), n_max=MAX_WIMPY),
        repro.TypeSpace(repro.get_node_spec("K10"), n_max=MAX_BRAWNY),
    ]


def render_artifacts() -> Dict[str, str]:
    """Tables 4-8, every figure and the DVFS study, as printed text.

    Looked up through the modules at call time, so traced runs see the
    timing wrappers.
    """
    from repro.experiments import dvfs, report

    texts = {
        "table4": report.report_table4(),
        "table5": report.report_table5(),
        "table6": report.report_table6(),
        "table7": report.report_table7(),
        "table8": report.report_table8(),
    }
    for name in FIGURES:
        texts[name] = report.report_figure(name)
    texts["dvfs"] = repr(dvfs.dvfs_frontier_study())
    return texts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50 and the highest supported tail (the maximum for tiny samples), in ms."""
    ms = [x * 1e3 for x in latencies_s]
    tail = tail_percentile(ms, max_q=99.0)
    return {
        "n": float(len(ms)),
        "p50_ms": median(ms),
        "tail_q": tail[0] if tail else 100.0,
        "tail_ms": tail[1] if tail else max(ms),
    }


def layer_breakdown(
    totals: Dict[str, Dict[str, float]], n_ops: int, op_wall_ms: float, residual: str
) -> Dict[str, float]:
    """Per-op layer metrics plus the named residual that closes the sum.

    ``op_wall_ms`` is the total wall of the traced operations; every layer
    value is divided by ``n_ops``.  The residual is the op wall that no
    wrapped call's self time covers.
    """
    out: Dict[str, float] = {}
    self_sum = 0.0
    for name, row in totals.items():
        out[f"{name}.calls"] = row["calls"] / n_ops
        out[f"{name}.ms"] = row["ms"] / n_ops
        out[f"{name}.self_ms"] = row["self_ms"] / n_ops
        self_sum += row["self_ms"]
    out["op_wall_ms"] = op_wall_ms / n_ops
    out[residual] = (op_wall_ms - self_sum) / n_ops
    return out


# ----------------------------------------------------------------------
# Workloads measured as whole operations in this process
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One measured unit of a run: an operation, or a block of requests."""

    traced: bool
    wall_s: float
    cpu_s: float
    #: Throughput units completed (jobs, passes, answered requests).
    count: float
    #: Latency samples of the workload's headline operation, in seconds.
    latencies_s: List[float]


def headline_metrics(samples: List[Sample]) -> Dict[str, float]:
    """Throughput, p50 latency and CPU per op, each the median over samples.

    A disturbance that covers fewer than half of the samples -- a stall of
    a second, a burst of work on a shared core -- leaves the median where
    it was, where a total over the run would move with it.
    """
    done = [s for s in samples if s.count > 0]
    return {
        "throughput_per_s": median([s.count / s.wall_s for s in done]),
        "latency_p50_ms": median([median(s.latencies_s) * 1e3 for s in done if s.latencies_s]),
        "cpu_us_per_op": median([s.cpu_s / s.count * 1e6 for s in done]),
    }


class OpWorkload:
    """A workload measured as back-to-back operations in this process.

    ``op(i)`` runs operation ``i`` and returns ``(count, output)``: the
    throughput units it completed and what :meth:`check` verifies.  Each
    operation is one sample, and its wall time one latency.
    """

    #: Name of the residual layer metric of this workload.
    residual = "unattributed_ms"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Tuple[float, Any]:
        raise NotImplementedError

    def check(self, checks: Checks, result: Dict[str, Any]) -> None:
        raise NotImplementedError

    def extra_layers(self, traced: List[Any], totals) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def measure(self, seconds: float, trace: bool) -> Dict[str, Any]:
        """Run operations for ``seconds``.  A traced run starts with one
        untraced warm-up operation (first calls pay one-time costs), then
        alternates traced and untraced ones."""
        tracer = LayerTracer() if trace else None
        samples: List[Sample] = []
        outputs: List[Any] = []
        failed = 0
        start = perf_counter()
        while len(samples) < (3 if trace else 1) or perf_counter() - start < seconds:
            traced = tracer is not None and len(samples) % 2 == 1
            if traced:
                tracer.install()
            t0, c0 = perf_counter(), process_time()
            try:
                count, output = self.op(len(samples))
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                traceback.print_exc()
                failed += 1
                count, output = 0.0, None
            wall, cpu = perf_counter() - t0, process_time() - c0
            if traced:
                tracer.uninstall()
            samples.append(Sample(traced, wall, cpu, count, [wall] if count else []))
            outputs.append(output)

        plain = samples[2::2] if trace else samples
        lat = latency_summary([s.wall_s for s in plain])
        result: Dict[str, Any] = {
            "attempted": len(samples),
            "failed": failed,
            "elapsed_s": perf_counter() - start,
            "outputs": [o for o in outputs if o is not None],
            "e2e": dict(headline_metrics(plain), peak_rss_mb=peak_rss_mb()),
            "info": {"ops": len(samples), "latency": lat},
        }
        if tracer is not None:
            traced_outputs = [o for s, o in zip(samples, outputs) if s.traced]
            traced_samples = [s for s in samples if s.traced]
            totals = tracer.totals()
            wall_ms = sum(s.wall_s for s in traced_samples) * 1e3
            layers = layer_breakdown(totals, len(traced_samples), wall_ms, self.residual)
            plain_rate = sum(s.count for s in plain) / sum(s.wall_s for s in plain)
            traced_rate = sum(s.count for s in traced_samples) / (wall_ms / 1e3)
            layers["trace_overhead_ratio"] = plain_rate / traced_rate
            layers["latency_tail_ms"] = lat["tail_ms"]
            layers.update(self.extra_layers(traced_outputs, totals))
            result["layers"] = layers
        return result


class ReproOffline(OpWorkload):
    """One pass = what a user runs to reproduce the paper's artefacts.

    Tables 4-8, every figure, the DVFS study and seeded exhaustive-search
    queries for each paper workload over the footnote-4 space, starting
    from a cleared operating-point constants cache as a fresh CLI process
    would.
    """

    residual = "experiments.unattributed_ms"

    def setup(self) -> None:
        import repro
        from repro.cluster import search
        from repro.model import batched

        self.repro, self.search, self.batched = repro, search, batched
        self.expected = load_expected("offline")
        self.spaces = footprint_spaces()
        self.workloads = {name: repro.workload(name) for name in self.expected["queries"]}
        self.rng = random.Random(self.seed)

    def op(self, i: int) -> Tuple[float, Any]:
        picks = {
            name: self.rng.sample(range(len(pool)), QUERIES_PER_WORKLOAD)
            for name, pool in self.expected["queries"].items()
        }
        self.batched.clear_constants_cache()
        texts = render_artifacts()
        answers = {}
        for name, idxs in picks.items():
            for k in idxs:
                deadline, budget_w = self.expected["queries"][name][k]
                budget = self.repro.PowerBudget(budget_w) if budget_w is not None else None
                rec = self.search.recommend_exhaustive(
                    self.workloads[name], self.spaces, deadline_s=deadline, budget=budget)
                answers[(name, k)] = recommendation_row(rec)
        constants = self.batched.constants_cache_size()
        digests = {name: text_digest(text) for name, text in texts.items()}
        return 1.0, {"digests": digests, "answers": answers, "constants": constants}

    def check(self, checks: Checks, result: Dict[str, Any]) -> None:
        outputs = result["outputs"]
        want = self.expected["artifacts"]
        bad = sorted({n for o in outputs for n, d in o["digests"].items() if want.get(n) != d})
        checks.add("artifact_digests", not bad and bool(outputs),
                   f"mismatched: {bad}" if bad else f"{len(want)} artefacts x {len(outputs)} passes")
        wrong = [
            key for o in outputs for key, row in o["answers"].items()
            if not same(row, self.expected["answers"][key[0]][key[1]])
        ]
        checks.add("recommend_answers", not wrong,
                   f"mismatched: {wrong[:4]}" if wrong else
                   f"{sum(len(o['answers']) for o in outputs)} queries")

    def extra_layers(self, traced: List[Any], totals) -> Dict[str, float]:
        calls = totals["model.operating_point_constants"]["calls"]
        inserted = sum(o["constants"] for o in traced if o)
        return {"model.constants.miss_ratio": inserted / calls if calls else 0.0}


class McValidate(OpWorkload):
    """One op = ``repro validate-mc`` for one seed: the M/D/1 agreement grid
    and the M/M/1 plug-in tier (20,000 jobs x 40 replications per cell)."""

    residual = "queueing.unattributed_ms"

    def setup(self) -> None:
        from repro.experiments import validation_mc

        self.validation_mc = validation_mc
        self.expected = load_expected("mc")
        self.grid = MC_SMOKE_GRID if self.smoke else {}
        seeds = list(self.expected["seeds"])
        random.Random(self.seed).shuffle(seeds)
        self.seeds = seeds

    def op(self, i: int) -> Tuple[float, Any]:
        seed = self.seeds[i % len(self.seeds)]
        md1 = self.validation_mc.run_validation(seed=seed, **self.grid)
        mm1 = self.validation_mc.run_mm1_validation(seed=seed, **self.grid)
        jobs = sum(c.n_jobs * c.n_reps for c in md1.cells + mm1.cells)
        return float(jobs), {
            "seed": seed,
            "md1": (md1.agreement_fraction, cell_rows(md1)),
            "mm1": (mm1.agreement_fraction, cell_rows(mm1)),
        }

    def check(self, checks: Checks, result: Dict[str, Any]) -> None:
        outputs = result["outputs"]
        wrong, low = [], []
        for o in outputs:
            for tier in ("md1", "mm1"):
                fraction, rows = o[tier]
                ref = {tuple(r[:3]): r for r in self.expected["cells"][str(o["seed"])][tier]}
                wrong += [(o["seed"], tier, r[:3]) for r in rows if not same(r, ref.get(tuple(r[:3])))]
                if fraction < 0.95:
                    low.append((o["seed"], tier, fraction))
        checks.add("mc_cells_match_reference", not wrong and bool(outputs),
                   f"mismatched: {wrong[:4]}" if wrong else f"{len(outputs)} seeds")
        checks.add("mc_agreement_at_least_0.95", not low, f"low: {low}" if low else "")
        check_lindley(checks, self.seed)


class SchedDay(OpWorkload):
    """One op = ``repro schedule``: ``run_scheduling_study(seed)`` -- four
    policies x three workloads over an autoscaled day, the Fig. 9 mix
    contrast and fixed-mix dispatch energy.  Throughput counts the jobs
    dispatched and the control ticks of the twelve autoscaled replays."""

    residual = "scheduler.unattributed_ms"

    def setup(self) -> None:
        from repro.experiments import scheduling

        self.scheduling = scheduling
        self.expected = load_expected("sched")
        self.size = "smoke" if self.smoke else "full"
        self.n_intervals = SCHED_SMOKE_INTERVALS if self.smoke else SCHED_INTERVALS
        seeds = list(self.expected["seeds"])
        random.Random(self.seed).shuffle(seeds)
        self.seeds = seeds

    def op(self, i: int) -> Tuple[float, Any]:
        seed = self.seeds[i % len(self.seeds)]
        study = self.scheduling.run_scheduling_study(seed, n_intervals=self.n_intervals)
        outcomes = [o for c in study.comparisons for o in c.outcomes]
        count = sum(o.jobs_arrived for o in outcomes) + self.n_intervals * len(outcomes)
        gaps = {c.workload: c.outcome(self.scheduling.ENERGY_POLICY).oracle_gap
                for c in study.comparisons}
        return float(count), {"seed": seed, "scalars": self.scheduling.study_scalars(study),
                              "gaps": gaps}

    def check(self, checks: Checks, result: Dict[str, Any]) -> None:
        outputs = result["outputs"]
        ref = self.expected[self.size]
        wrong = [o["seed"] for o in outputs if not same(o["scalars"], ref[str(o["seed"])])]
        checks.add("study_scalars_match_reference", not wrong and bool(outputs),
                   f"seeds {wrong}" if wrong else f"{len(outputs)} studies")
        if self.smoke:
            return  # the oracle-gap claim is about a whole day
        over = [(o["seed"], w, g) for o in outputs for w, g in o["gaps"].items()
                if g > MAX_ORACLE_GAP]
        checks.add("ppr_greedy_oracle_gap_at_most_5pct", not over, f"over: {over}" if over else "")


# ----------------------------------------------------------------------
# Serve workloads: the service in its own process, load from this one
# ----------------------------------------------------------------------
class ServeWorkload:
    """Drives ``serve_host.py`` over HTTP with :mod:`client`."""

    residual = "serve.unattributed_ms"

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.loop = asyncio.new_event_loop()
        self.host: Optional[subprocess.Popen] = None
        self.conns: list = []

    # -- host process ------------------------------------------------------
    def command(self, line: str) -> Dict[str, Any]:
        assert self.host is not None and self.host.stdin and self.host.stdout
        self.host.stdin.write(line + "\n")
        self.host.stdin.flush()
        reply = self.host.stdout.readline()
        if not reply:
            raise RuntimeError(f"serve host exited (command {line!r})")
        return json.loads(reply)

    def request(self, method: str, path: str, doc: Optional[dict] = None) -> Dict[str, Any]:
        body = json.dumps(doc).encode() if doc is not None else b""
        status, payload = self.loop.run_until_complete(
            self.conns[0].exchange(render_request(method, path, body)))
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: {payload[:200]!r}")
        return json.loads(payload)

    def setup(self) -> None:
        flight_dir = self.tmp / "flight"
        flight_dir.mkdir(parents=True, exist_ok=True)
        self.host = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_host.py"), "--flight-dir", str(flight_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        assert self.host.stdout is not None
        line = self.host.stdout.readline()
        if not line:
            raise RuntimeError("serve host exited before listening")
        port = json.loads(line)["port"]
        self.conns = self.loop.run_until_complete(
            open_connections("127.0.0.1", port, CONNECTIONS))
        # Priming: one /frontier per workload computes and caches its space
        # and gives the deadline range of the generated queries.
        self.ranges = {}
        for name in SERVE_WORKLOADS:
            doc = self.request("POST", "/frontier", {
                "workload": name, "max_wimpy": MAX_WIMPY, "max_brawny": MAX_BRAWNY})
            tps = [p["tp_s"] for p in doc["points"]]
            self.ranges[name] = (0.5 * min(tps), 2.0 * max(tps))
        self.rng = random.Random(self.seed)

    def send_all(self, raw: Sequence[bytes]) -> None:
        """Send every request once, as fast as the connections allow."""
        answers = self.loop.run_until_complete(
            open_loop([self.conns], [(0.0, r, 0) for r in raw]))
        bad = sorted({a.status for a in answers if a.status != 200})
        if bad:
            raise RuntimeError(f"warm-up requests answered {bad}")

    def query(self, budget_w: Optional[float] = None) -> Dict[str, Any]:
        name = self.rng.choice(SERVE_WORKLOADS)
        doc: Dict[str, Any] = {
            "workload": name,
            "deadline_s": log_uniform(self.rng, *self.ranges[name]),
            "max_wimpy": MAX_WIMPY,
            "max_brawny": MAX_BRAWNY,
        }
        if budget_w is not None:
            doc["budget_w"] = budget_w
        return doc

    def close(self) -> None:
        for conn in self.conns:
            self.loop.run_until_complete(conn.close())
        self.loop.close()
        if self.host is not None:
            if self.host.stdin:
                self.host.stdin.close()
            try:
                self.host.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.host.kill()
                self.host.wait()

    # -- measurement -------------------------------------------------------
    def blocks(self, seconds: float, trace: bool) -> List[Tuple[float, float, bool]]:
        """``(start_s, length_s, traced)`` of the measured window's blocks of
        about :data:`BLOCK_S`; traced runs alternate untraced and traced."""
        n = max(2 if trace else 1, round(seconds / BLOCK_S))
        length = seconds / n
        return [(k * length, length, trace and k % 2 == 1) for k in range(n)]

    def drive(self, start_s: float, length_s: float, first: int) -> List[Answer]:
        raise NotImplementedError

    def headline(self, answers: List[Answer]) -> List[Answer]:
        """The answers whose latency is the workload's ``latency_p50_ms``."""
        return answers

    def measure(self, seconds: float, trace: bool) -> Dict[str, Any]:
        stats0 = self.request("GET", "/stats")
        cpu = self.command("stats")["cpu_s"]
        answers: List[Answer] = []
        samples: List[Sample] = []
        traced_ids = set()
        start = perf_counter()
        for block_start, length, traced in self.blocks(seconds, trace):
            if traced:
                self.command("trace on")
            t0 = perf_counter()
            got = self.drive(block_start, length, len(answers))
            wall = perf_counter() - t0
            if traced:
                self.command("trace off")
                traced_ids.update(a.index for a in got)
            cpu_now = self.command("stats")["cpu_s"]
            ok = [a for a in got if a.status == 200]
            samples.append(Sample(traced, wall, cpu_now - cpu, len(ok),
                                  [a.latency_s for a in self.headline(ok)]))
            cpu = cpu_now
            answers += got
        elapsed = perf_counter() - start
        host = self.command("stats")
        stats1 = self.request("GET", "/stats")

        ok = [a for a in answers if a.status == 200]
        plain = [a for a in ok if a.index not in traced_ids]
        docs = {a.index: json.loads(a.body) for a in ok}
        lat = latency_summary([a.latency_s for a in self.headline(plain)])
        result: Dict[str, Any] = {
            "attempted": len(answers),
            "failed": len(answers) - len(ok),
            "elapsed_s": elapsed,
            "e2e": dict(headline_metrics([s for s in samples if not s.traced]),
                        peak_rss_mb=host["rss_mb"]),
            "info": {"latency": lat},
            "answers": answers,
            "docs": docs,
        }
        for kind, hit in (("hit", True), ("miss", False)):
            sample = [a.latency_s for a in plain if docs[a.index].get("cache_hit") is hit]
            if sample:
                result["info"][f"{kind}_latency"] = latency_summary(sample)
        if trace:
            result["layers"] = self.serve_layers(
                answers, traced_ids, samples, host, stats0, stats1, result["info"])
        return result

    def serve_layers(self, answers, traced_ids, samples, host, stats0, stats1, info):
        traced = [a for a in answers if a.index in traced_ids]
        totals = host["layers"]
        # Compute-executor calls happen while a request awaits the batcher;
        # count that time once, under the compute layers.
        submit = totals["serve.batcher.submit"]
        submit["self_ms"] -= host["offthread_ms"]
        wall_ms = sum(a.rtt_s for a in traced) * 1e3
        out = layer_breakdown(totals, len(traced), wall_ms, self.residual)
        n_all = len(answers)

        def rate(traced: bool) -> float:
            chosen = [s for s in samples if s.traced is traced]
            return sum(s.count for s in chosen) / sum(s.wall_s for s in chosen)

        out["trace_overhead_ratio"] = rate(False) / rate(True)
        out["serve.batcher.wait_ms"] = submit["self_ms"] / len(traced)

        def delta(section: str, key: str) -> float:
            return float(stats1[section][key]) - float(stats0[section][key])

        batches = delta("batching", "batches")
        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        out["serve.batcher.mean_batch_size"] = (
            delta("batching", "batched_queries") / batches if batches else 0.0)
        out["serve.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["serve.cache.computes"] = delta("cache", "computes") / n_all
        out["serve.cache.evictions"] = delta("cache", "evictions") / n_all
        out["serve.admission.shed"] = delta("admission", "shed") / n_all
        out["serve.admission.rederivations"] = delta("admission", "rederivations") / n_all
        out["latency_tail_ms"] = info["latency"]["tail_ms"]
        for kind in ("hit", "miss"):
            summary = info.get(f"{kind}_latency")
            if summary:
                out[f"serve.{kind}_latency_p50_ms"] = summary["p50_ms"]
                out[f"serve.{kind}_latency_tail_ms"] = summary["tail_ms"]
        if "lateness_p99_ms" in info:
            out["serve.lateness_p99_ms"] = info["lateness_p99_ms"]
        return out

    def check(self, checks: Checks, result: Dict[str, Any]) -> None:
        """Re-derive a seeded sample of answers with the offline search."""
        import repro
        from repro.cluster.search import recommend_exhaustive

        docs = result["docs"]
        sample = random.Random(self.seed + 1).sample(sorted(docs), min(SAMPLE_ANSWERS, len(docs)))
        spaces = footprint_spaces()
        wrong = []
        for index in sample:
            query = self.sent(index)
            budget = query.get("budget_w")
            rec = recommend_exhaustive(
                repro.workload(query["workload"]), spaces, deadline_s=query["deadline_s"],
                budget=repro.PowerBudget(budget) if budget is not None else None)
            if served_row(docs[index]) != recommendation_row(rec):
                wrong.append(index)
        checks.add("served_equals_offline_recommend", bool(sample) and not wrong,
                   f"requests {wrong[:4]} differ" if wrong else f"{len(sample)} sampled answers")


class ServeWarm(ServeWorkload):
    """Closed loop, 2 connections, ``/recommend`` on two cached spaces.

    After priming every request is a cache hit, so this exercises only the
    per-request path (HTTP read, validate, digest, staircase lookup,
    render, write); deadlines span each frontier, so some are infeasible.
    """

    #: Distinct pre-rendered queries, cycled.
    N_QUERIES = 1024

    def setup(self) -> None:
        super().setup()
        self.queries = [self.query() for _ in range(self.N_QUERIES)]
        self.raw = [render_request("POST", "/recommend", json.dumps(q).encode())
                    for q in self.queries]
        # The service renders each winning configuration once, lazily;
        # one pass over the queries reaches that steady state.
        self.send_all(self.raw)

    def sent(self, index: int) -> Dict[str, Any]:
        return self.queries[index % len(self.queries)]

    def drive(self, start_s: float, length_s: float, first: int) -> List[Answer]:
        return self.loop.run_until_complete(
            closed_loop(self.conns, self.raw, seconds=length_s, start_index=first))


class ServeMixed(ServeWorkload):
    """Open loop at a fixed rate: cache hits and cold misses on their own
    connections, sharing the server's event loop and interpreter lock.

    A fifth of the requests miss the cache: each carries a unique,
    non-binding budget, so it is a fresh digest and forces a full sweep, a
    cache insert and an eviction.  Misses are due at a fixed period, like a
    planner re-asking on a timer, and queue on their own connection; hits
    arrive as a Poisson stream on the other.  Latency runs from each
    request's due time.  The headline latency is the misses' (the hit path
    alone is serve-warm's); hit latency is reported per layer.
    """

    #: Connection lanes of the two request classes.
    HIT_LANE, MISS_LANE = 0, 1

    #: Cold requests sent during set-up: enough to fill the cache to its
    #: capacity (so evictions run from the first measured miss) and to
    #: let the admission controller's service-time estimate converge from
    #: its 1 ms prior (each re-derivation blocks the loop for ~0.15 s).
    WARM_UP_MISSES = 32

    def setup(self) -> None:
        super().setup()
        rng = random.Random(self.seed + 3)
        self.send_all([
            render_request("POST", "/recommend",
                           json.dumps(self.query(1000.0 + 1000.0 * rng.random())).encode())
            for _ in range(self.WARM_UP_MISSES)
        ])

    def schedule(self, blocks: Sequence[Tuple[float, float, bool]]) -> None:
        """Exactly ``rate x length`` requests per block, so every block
        offers the same load: hits at sorted uniform times (a Poisson
        stream conditioned on its count), misses at a fixed period."""
        rng = random.Random(self.seed + 2)
        entries: List[Tuple[float, int]] = []
        for start, length, _ in blocks:
            n = round(MIXED_RATE_PER_S * length)
            n_miss = round(n * MIXED_MISS_SHARE)
            period = length / n_miss
            phase = rng.uniform(0.0, period)
            entries += [(start + rng.uniform(0.0, length), self.HIT_LANE)
                        for _ in range(n - n_miss)]
            entries += [(start + phase + k * period, self.MISS_LANE) for k in range(n_miss)]
        entries.sort()
        self.offsets = [t for t, _ in entries]
        self.lanes = [lane for _, lane in entries]
        # A budget above the space's largest nameplate draw (690 W with
        # switches) never binds; a unique one never hits.
        self.queries = [
            self.query(1000.0 + 1000.0 * rng.random() if lane == self.MISS_LANE else None)
            for lane in self.lanes
        ]
        self.raw = [render_request("POST", "/recommend", json.dumps(q).encode())
                    for q in self.queries]

    def sent(self, index: int) -> Dict[str, Any]:
        return self.queries[index]

    def headline(self, plain: List[Answer]) -> List[Answer]:
        return [a for a in plain if self.lanes[a.index] == self.MISS_LANE]

    def drive(self, start_s: float, length_s: float, first: int) -> List[Answer]:
        end = first
        while end < len(self.offsets) and self.offsets[end] < start_s + length_s:
            end += 1
        block = [(self.offsets[i] - start_s, self.raw[i], self.lanes[i])
                 for i in range(first, end)]
        lanes = [[self.conns[0]], [self.conns[1]]]
        answers = self.loop.run_until_complete(open_loop(lanes, block))
        for a in answers:
            a.index += first
            a.due_s += start_s
        return answers

    def measure(self, seconds: float, trace: bool) -> Dict[str, Any]:
        self.schedule(self.blocks(seconds, trace))
        result = super().measure(seconds, trace)
        verdict = open_loop_check(result["answers"])
        result["info"]["lateness_p99_ms"] = verdict.lateness_p99_s * 1e3
        result["info"]["offered_per_s"] = verdict.offered_per_s
        result["info"]["completed_per_s"] = verdict.completed_per_s
        result["valid"] = verdict
        if trace:
            result["layers"]["serve.lateness_p99_ms"] = verdict.lateness_p99_s * 1e3
        return result

    def check(self, checks: Checks, result: Dict[str, Any]) -> None:
        super().check(checks, result)
        v = result["valid"]
        checks.add("open_loop_valid", v.valid,
                   f"lateness p99 {v.lateness_p99_s * 1e3:.2f} ms, completed "
                   f"{v.completed_per_s:.1f}/s of {v.offered_per_s:.1f}/s offered")


def make(name: str, seed: int, smoke: bool, tmp: Path):
    if name == "serve-warm":
        return ServeWarm(seed, tmp)
    if name == "serve-mixed":
        return ServeMixed(seed, tmp)
    return {"repro-offline": ReproOffline, "mc-validate": McValidate,
            "sched-day": SchedDay}[name](seed, smoke)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = make(args.workload, args.seed, args.smoke, args.tmp)
    out: Dict[str, Any] = {"workload": args.workload}
    try:
        workload.setup()
        out["setup_s"] = monotonic() - args.spawned_at
        if not args.setup_only:
            result = workload.measure(args.seconds, args.trace)
            checks = Checks()
            checks.add("no_failed_operations", result["failed"] == 0,
                       f"{result['failed']} of {result['attempted']}")
            workload.check(checks, result)
            out.update(
                attempted=result["attempted"],
                failed=result["failed"],
                elapsed_s=result["elapsed_s"],
                e2e=result["e2e"],
                layers=result.get("layers", {}),
                info=result["info"],
                checks=checks.results,
                correct=checks.ok,
            )
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
