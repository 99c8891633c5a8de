"""Compare two sets of benchmark runs metric by metric.

    python bench/compare.py PARENT.json CHANGE.json

Both files are written by ``bench/run.py --out``, one untraced run per
record, ideally ten or more per workload, taken alternately for the two
commits.  Every (end-to-end metric, workload) row is labelled with the
bound that ``BENCHMARK.json`` fixes for the metric:

``improved``
    The claim rule holds: at least ten pairs, the change wins at least
    nine tenths of them (ties count for neither side), and the medians
    differ by more than the parent's interquartile range.
``unresolved``
    The run-to-run spread (interquartile range over median) of either
    side is wider than the bound, and not every change run reads better
    than every parent run.
``regressed``
    The change's median is worse than the parent's by more than the bound.
``unchanged``
    None of the above.

Pairs are formed in the order the runs were recorded.  Exits 1 when any
row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import median, quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent

#: Fewest pairs on which a gain may be claimed, and the share it must win.
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def samples(doc: dict) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per untraced run]}``."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in doc["runs"]:
        if run.get("trace"):
            continue
        for name, value in run["metrics"].items():
            out[(run["workload"], name)].append(float(value))
    return out


def label(parent: Sequence[float], change: Sequence[float], bound: float,
          lower_is_better: bool) -> str:
    """The verdict of one row (see the module docstring)."""
    sign = 1.0 if lower_is_better else -1.0

    def better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    p_med, c_med = median(parent), median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    q1, _, q3 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs)
            and better(c_med, p_med) and abs(c_med - p_med) > q3 - q1):
        return "improved"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        if all(better(c, p) for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return "regressed" if worse > bound else "unchanged"


def compare(parent_doc: dict, change_doc: dict, catalogue: dict) -> List[dict]:
    parent, change = samples(parent_doc), samples(change_doc)
    rows = []
    for metric in catalogue["end_to_end"]:
        workloads = sorted({w for w, m in parent if m == metric["name"]})
        for workload in workloads:
            key = (workload, metric["name"])
            if key not in change:
                continue
            p, c = parent[key], change[key]
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "parent": median(p),
                "change": median(c),
                "spread": max(relative_spread(p), relative_spread(c)),
                "bound": metric["bound"],
                "n": (len(p), len(c)),
                "label": label(p, c, metric["bound"], metric["better"] == "lower"),
            })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.parent.read_text()), json.loads(args.change.read_text()),
                   catalogue)
    print(f"{'workload':<14} {'metric':<18} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'bound':>6} {'n':>7}  label")
    for r in rows:
        delta = (r["change"] - r["parent"]) / r["parent"] if r["parent"] else 0.0
        print(f"{r['workload']:<14} {r['metric']:<18} {r['parent']:>12.5g} {r['change']:>12.5g} "
              f"{delta:>+8.1%} {r['spread']:>7.1%} {r['bound']:>6.0%} "
              f"{r['n'][0]:>3}/{r['n'][1]:<3}  {r['label']}")
    bad = [r for r in rows if r["label"] in ("regressed", "unresolved")]
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
