"""Order statistics and the compare verdicts on synthetic samples."""

import random
import statistics

import pytest

from compare import compare, label
from stats import percentile, quartiles, relative_spread, tail_percentile


def test_percentile_interpolates_between_order_statistics():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 62.5) == pytest.approx(3.5)


def test_quartiles_follow_statistics_quantiles():
    values = [float(v) for v in range(1, 12)]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert relative_spread([7.0]) == 0.0


@pytest.mark.parametrize("n, q", [(1000, 99.0), (2000, 99.0), (200, 95.0), (100, 90.0),
                                  (40, 75.0), (20, 50.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    values = list(range(n))
    got_q, got = tail_percentile(values, max_q=99.0)
    assert got_q == q
    assert sum(1 for v in values if v > got) >= 10


def test_tail_needs_twenty_samples():
    assert tail_percentile(list(range(19))) is None


def _noisy(center, spread, n, seed):
    rng = random.Random(seed)
    return [center * (1 + rng.uniform(-spread, spread)) for _ in range(n)]


def test_same_distribution_is_unchanged():
    assert label(_noisy(100, 0.02, 10, 1), _noisy(100, 0.02, 10, 2), 0.1, True) == "unchanged"


def test_worse_beyond_the_bound_is_regressed():
    assert label(_noisy(100, 0.02, 10, 1), _noisy(120, 0.02, 10, 2), 0.1, True) == "regressed"
    # Higher-is-better metrics regress downwards.
    assert label(_noisy(100, 0.02, 10, 1), _noisy(80, 0.02, 10, 2), 0.1, False) == "regressed"


def test_spread_wider_than_the_bound_is_unresolved():
    assert label(_noisy(100, 0.3, 10, 1), _noisy(100, 0.3, 10, 2), 0.1, True) == "unresolved"


def test_noisy_but_uniformly_better_is_not_unresolved():
    parent = [100.0, 140.0, 120.0, 160.0]
    change = [50.0, 70.0, 60.0, 90.0]
    assert label(parent, change, 0.1, True) == "unchanged"


def test_claim_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    parent = _noisy(100, 0.01, 10, 1)
    assert label(parent, [p * 0.95 for p in parent], 0.1, True) == "improved"
    # Nine pairs are not enough to claim.
    assert label(parent[:9], [p * 0.95 for p in parent[:9]], 0.1, True) == "unchanged"
    # Two lost pairs of ten break the nine-tenths rule.
    change = [p * 0.95 for p in parent]
    change[0], change[1] = parent[0] * 1.01, parent[1] * 1.01
    assert label(parent, change, 0.1, True) == "unchanged"
    # A gap inside the parent's own interquartile range is no gain.
    wide = _noisy(100, 0.08, 10, 3)
    assert label(wide, [p * 0.995 for p in wide], 0.2, True) == "unchanged"


def test_compare_reads_bounds_and_skips_traced_runs():
    catalogue = {"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}

    def doc(values, traced=()):
        runs = [{"workload": "w", "trace": False, "metrics": {"latency_p50_ms": v}}
                for v in values]
        runs += [{"workload": "w", "trace": True, "metrics": {"latency_p50_ms": v}}
                 for v in traced]
        return {"runs": runs}

    rows = compare(doc(_noisy(10, 0.01, 10, 1), traced=[1e6]),
                   doc(_noisy(10, 0.01, 10, 2)), catalogue)
    assert [(r["workload"], r["metric"], r["label"]) for r in rows] == [
        ("w", "latency_p50_ms", "unchanged")]
    assert rows[0]["n"] == (10, 10)
