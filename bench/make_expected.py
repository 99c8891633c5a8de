"""Regenerate the output references in ``bench/expected/``.

    PYTHONPATH=src python bench/make_expected.py [--only offline,mc,sched]

Run it only at a commit whose outputs are known to be right: every later
benchmark run checks its outputs against these files.

* ``offline.json`` -- text digests of Tables 4-8, the figures and the DVFS
  study, and a pool of seeded exhaustive-search queries per paper
  workload with their answers.
* ``mc.json`` -- seed pool of the mc-validate workload with every
  agreement cell.  Only seeds whose M/D/1 and M/M/1 grids (and the
  ``--smoke`` sub-grid) reach 95% agreement enter the pool: a run checks
  its cells against the references *and* the 95% claim, so the claim must
  hold on every input the benchmark can draw.
* ``sched.json`` -- seed pool of the sched-day workload with the study's
  headline scalars, at full and ``--smoke`` size; only seeds whose
  ppr-greedy oracle gap over the full day is within 5% enter the pool.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Any, Dict, List

import workloads as wl
from checks import EXPECTED_DIR, cell_rows, recommendation_row, text_digest

#: Root of the candidate seeds of every pool.
BASE_SEED = 20160913

#: Queries per paper workload in the repro-offline pool.
QUERY_POOL = 64

#: Seeds per mc-validate / sched-day pool.
SEED_POOL = 8


def offline() -> Dict[str, Any]:
    import repro
    from repro.cluster.pareto import pareto_indices
    from repro.cluster.search import recommend_exhaustive
    from repro.model.batched import clear_constants_cache, evaluate_space_arrays
    from repro.workloads.suite import PAPER_WORKLOAD_NAMES

    clear_constants_cache()
    artifacts = {name: text_digest(text) for name, text in wl.render_artifacts().items()}
    spaces = wl.footprint_spaces()
    rng = random.Random(BASE_SEED)
    queries: Dict[str, List[Any]] = {}
    answers: Dict[str, List[Any]] = {}
    for name in PAPER_WORKLOAD_NAMES:
        workload = repro.workload(name)
        arrays = evaluate_space_arrays(workload, spaces)
        frontier = arrays.tp_s[pareto_indices(arrays.tp_s, arrays.energy_j)]
        lo, hi = 0.5 * float(frontier.min()), 2.0 * float(frontier.max())
        pool = []
        for k in range(QUERY_POOL):
            budget = rng.uniform(150.0, 700.0) if k % 2 else None
            pool.append([wl.log_uniform(rng, lo, hi), budget])
        queries[name] = pool
        answers[name] = [
            recommendation_row(recommend_exhaustive(
                workload, spaces, deadline_s=d,
                budget=repro.PowerBudget(b) if b is not None else None))
            for d, b in pool
        ]
    return {"artifacts": artifacts, "queries": queries, "answers": answers}


def mc() -> Dict[str, Any]:
    from repro.experiments.validation_mc import run_mm1_validation, run_validation

    seeds: List[int] = []
    cells: Dict[str, Any] = {}
    candidate = BASE_SEED
    while len(seeds) < SEED_POOL:
        candidate += 1
        reports = {"md1": run_validation(seed=candidate),
                   "mm1": run_mm1_validation(seed=candidate)}
        smoke = [run_validation(seed=candidate, **wl.MC_SMOKE_GRID),
                 run_mm1_validation(seed=candidate, **wl.MC_SMOKE_GRID)]
        fractions = [r.agreement_fraction for r in (*reports.values(), *smoke)]
        print(f"mc seed {candidate}: agreement {fractions}", file=sys.stderr)
        if min(fractions) < 0.95:
            continue
        seeds.append(candidate)
        cells[str(candidate)] = {tier: cell_rows(r) for tier, r in reports.items()}
    return {"seeds": seeds, "cells": cells}


def sched() -> Dict[str, Any]:
    from repro.experiments.scheduling import ENERGY_POLICY, run_scheduling_study, study_scalars

    seeds: List[int] = []
    sizes: Dict[str, Dict[str, Any]] = {"full": {}, "smoke": {}}
    candidate = BASE_SEED
    while len(seeds) < SEED_POOL:
        candidate += 1
        studies = {
            "full": run_scheduling_study(candidate, n_intervals=wl.SCHED_INTERVALS),
            "smoke": run_scheduling_study(candidate, n_intervals=wl.SCHED_SMOKE_INTERVALS),
        }
        gap = max(c.outcome(ENERGY_POLICY).oracle_gap for c in studies["full"].comparisons)
        print(f"sched seed {candidate}: max oracle gap {gap:.4f}", file=sys.stderr)
        if gap > wl.MAX_ORACLE_GAP:
            continue
        seeds.append(candidate)
        for size, study in studies.items():
            sizes[size][str(candidate)] = study_scalars(study)
    return {"seeds": seeds, **sizes}


REFERENCES = {"offline": offline, "mc": mc, "sched": sched}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(REFERENCES),
                        help="comma-separated references to rebuild")
    args = parser.parse_args(argv)
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in args.only.split(","):
        doc = REFERENCES[name]()
        path = Path(EXPECTED_DIR) / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
