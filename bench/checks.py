"""Output checks: canonical forms of results and their references.

References live in ``bench/expected/`` and were generated with
``python bench/make_expected.py`` at the commit that introduced them.  Floats
are compared at a relative tolerance of 1e-9; the served answers, which
promise bit-identity with the offline search, are compared exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Relative tolerance for model outputs checked against a reference.
REL_TOL = 1e-9


class Checks:
    """Named pass/fail results of one run; the run is correct iff all pass."""

    def __init__(self) -> None:
        self.results: List[Dict[str, Any]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)


def load_expected(name: str) -> Dict[str, Any]:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def same(got: Any, want: Any, rel: float = REL_TOL) -> bool:
    """Structural equality with floats compared at relative tolerance ``rel``."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w, rel) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], want[k], rel) for k in want)
        )
    return got == want


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recommendation_row(rec) -> Optional[List[Any]]:
    """A :class:`repro.cluster.search.Recommendation` as a JSON-able row."""
    if rec is None:
        return None
    ev = rec.evaluation
    return [rec.config.label(), str(rec.config), ev.tp_s, ev.energy_j, ev.peak_power_w]


def served_row(doc: Dict[str, Any]) -> Optional[List[Any]]:
    """A ``/recommend`` answer in the form of :func:`recommendation_row`."""
    if not doc.get("feasible", False):
        return None
    return [doc["mix"], doc["operating_point"], doc["tp_s"], doc["energy_j"], doc["peak_power_w"]]


def cell_rows(report) -> List[List[Any]]:
    """An agreement report's cells as ``[workload, mix, U, analytic, lo, hi, agrees]``."""
    return [
        [c.workload_name, c.config_label, c.utilisation, c.analytic_p95_s,
         c.ci.lo, c.ci.hi, c.agrees]
        for c in report.cells
    ]


def scalar_lindley_waits(arrivals: Sequence[float], service_s: float) -> List[float]:
    """The FIFO waiting-time recursion, one job at a time."""
    waits = []
    completion = 0.0
    for arrival in arrivals:
        start = arrival if arrival > completion else completion
        waits.append(start - arrival)
        completion = start + service_s
    return waits


def check_lindley(checks: Checks, seed: int, n_jobs: int = 10_000) -> bool:
    """The public vectorized kernel against :func:`scalar_lindley_waits` on
    one seeded M/D/1 replication at utilisation 0.9; they must agree to
    1e-12 of the arrival-time scale."""
    import numpy as np

    from repro.queueing.mc import lindley_waits

    rng = np.random.default_rng(seed)
    service_s = 0.9
    arrivals = np.cumsum(rng.standard_exponential(n_jobs))
    fast = lindley_waits(arrivals, service_s)
    slow = np.asarray(scalar_lindley_waits(arrivals.tolist(), service_s))
    gap = float(np.max(np.abs(fast - slow)) / arrivals[-1])
    return checks.add("lindley_scalar_agreement", gap <= 1e-12, f"max gap {gap:.3g} of scale")
