"""The deadline staircase vs the exhaustive-search oracle.

The serving layer answers every cached ``recommend`` query through
:func:`repro.model.batched.deadline_staircase`; these tests pin its
bit-identity contract — for any deadline (and any power-budget
feasibility mask), the staircase's winner is EXACTLY the configuration
:func:`repro.cluster.search.recommend_exhaustive` materialises, floats
and all — plus the lookup's edge cases.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.cluster.pareto import TIME_TIE_REL, pareto_indices
from repro.cluster.search import recommend_exhaustive
from repro.errors import ModelError
from repro.model.batched import (
    deadline_staircase,
    evaluate_space_arrays,
)


def _spaces(max_wimpy: int = 6, max_brawny: int = 3):
    return [
        repro.TypeSpace(repro.get_node_spec("A9"), n_max=max_wimpy),
        repro.TypeSpace(repro.get_node_spec("K10"), n_max=max_brawny),
    ]


@pytest.fixture(scope="module")
def ep_arrays(workloads):
    return evaluate_space_arrays(workloads["EP"], _spaces())


@pytest.fixture(scope="module")
def ep_staircase(ep_arrays):
    return deadline_staircase(ep_arrays)


def _deadline_grid(arrays):
    """Deadlines spanning infeasible through trivially-feasible, plus the
    exact execution times themselves (boundary cases)."""
    tp = np.sort(arrays.tp_s)
    quantiles = np.quantile(tp, [0.0, 0.1, 0.5, 0.9, 1.0])
    exact = tp[:: max(1, tp.shape[0] // 17)]
    return np.unique(np.concatenate((quantiles, exact, [tp[0] * 0.5, tp[-1] * 2.0])))


class TestOracleBitIdentity:
    def test_every_deadline_matches_exhaustive(self, workloads, ep_arrays, ep_staircase):
        w = workloads["EP"]
        for deadline in _deadline_grid(ep_arrays):
            idx = ep_staircase.best_index(float(deadline))
            rec = recommend_exhaustive(w, _spaces(), deadline_s=float(deadline))
            if idx < 0:
                assert rec is None
                continue
            assert rec is not None
            ev = rec.evaluation
            assert float(ep_arrays.tp_s[idx]) == ev.tp_s
            assert float(ep_arrays.energy_j[idx]) == ev.energy_j
            assert float(ep_arrays.peak_power_w[idx]) == ev.peak_power_w
            assert ep_arrays.config_at(idx).label() == ev.config.label()
            assert str(ep_arrays.config_at(idx)) == str(ev.config)

    def test_budget_mask_matches_exhaustive(self, workloads):
        w = workloads["memcached"]
        spaces = _spaces(5, 2)
        arrays = evaluate_space_arrays(w, spaces)
        budget = repro.PowerBudget(120.0)
        mask = budget.fits_mask(
            arrays.nameplate_w, arrays.counts["A9"]
        )
        stairs = deadline_staircase(arrays, mask)
        for deadline in _deadline_grid(arrays):
            idx = stairs.best_index(float(deadline))
            rec = recommend_exhaustive(
                w, spaces, deadline_s=float(deadline), budget=budget
            )
            if idx < 0:
                assert rec is None
            else:
                assert rec is not None
                assert float(arrays.energy_j[idx]) == rec.evaluation.energy_j
                assert arrays.config_at(idx).label() == rec.config.label()


class TestBatchPath:
    def test_infeasible_deadline_is_minus_one(self, ep_arrays, ep_staircase):
        too_tight = float(ep_arrays.tp_s.min()) * 0.25
        assert ep_staircase.best_index(too_tight) == -1

    def test_winner_energy_is_monotone_in_deadline(self, ep_arrays, ep_staircase):
        deadlines = np.sort(_deadline_grid(ep_arrays))
        idx = np.array([ep_staircase.best_index(float(d)) for d in deadlines])
        feasible = idx[idx >= 0]
        energies = ep_arrays.energy_j[feasible]
        assert np.all(np.diff(energies) <= 0.0 + 1e-30) or np.all(
            energies[:-1] >= energies[1:]
        )

    def test_rejects_nonpositive_deadlines(self, ep_staircase):
        with pytest.raises(ModelError):
            ep_staircase.best_index(-1.0)
        with pytest.raises(ModelError):
            ep_staircase.best_index(0.0)
        with pytest.raises(ModelError):
            ep_staircase.best_index(float("nan"))

    def test_rejects_bad_mask_shape(self, ep_arrays):
        with pytest.raises(ModelError):
            deadline_staircase(ep_arrays, np.ones(3, dtype=bool))

    def test_empty_feasible_set(self, ep_arrays):
        stairs = deadline_staircase(
            ep_arrays, np.zeros(ep_arrays.n_configs, dtype=bool)
        )
        assert stairs.n_feasible == 0
        assert stairs.best_index(1e9) == -1
        assert stairs.best_index(1.0) == -1


# ----------------------------------------------------------------------
# The per-entry loop the staircase replaced, kept as its oracle
# ----------------------------------------------------------------------
def _loop_staircase(tp_s, energy_j, mask):
    """The winner among the first ``p + 1`` feasible configurations in
    stable time order, for every ``p``: one Python step per entry."""
    candidates = np.flatnonzero(mask)
    order = np.argsort(tp_s[candidates], kind="stable")
    best_idx = np.empty(order.shape[0], dtype=np.int64)
    best_e = math.inf
    best = -1
    for p, idx in enumerate(candidates[order]):
        if energy_j[idx] < best_e:
            best_e = energy_j[idx]
            best = idx
        best_idx[p] = best
    return tp_s[candidates][order], best_idx


def _loop_best_index(loop, deadline_s):
    tp_sorted, best_idx = loop
    pos = int(np.searchsorted(tp_sorted, deadline_s, side="right")) - 1
    return int(best_idx[pos]) if pos >= 0 else -1


def _probe_deadlines(tp_s):
    """Every time, one ulp below each, midpoints, and beyond both ends."""
    times = np.unique(tp_s)
    if times.size == 0:
        return np.array([1.0])
    return np.unique(
        np.concatenate(
            (
                times,
                np.nextafter(times, 0.0),
                (times[:-1] + times[1:]) / 2.0,
                [times[0] / 2.0, times[-1] * 2.0],
            )
        )
    )


#: Time and energy pools that force exact ties and near-ties inside
#: TIME_TIE_REL (which the frontier collapses but the staircase must not).
_TIMES = (1.0, 1.0 * (1 + TIME_TIE_REL / 4), 2.0, 2.0 * (1 + TIME_TIE_REL / 2), 3.0, 5.0)
_ENERGIES = (1.0, 2.0, 3.0, 4.0)
_rows = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_TIMES), st.floats(0.5, 8.0)),
        st.one_of(st.sampled_from(_ENERGIES), st.floats(0.5, 8.0)),
        st.booleans(),
    ),
    max_size=14,
)


def _columns(rows):
    tp = np.array([r[0] for r in rows], dtype=float)
    energy = np.array([r[1] for r in rows], dtype=float)
    mask = np.array([r[2] for r in rows], dtype=bool)
    return tp, energy, mask


def _staircase(tp, energy, mask):
    """The staircase of bare (time, energy) columns; it reads nothing else."""
    return deadline_staircase(SimpleNamespace(tp_s=tp, energy_j=energy, n_configs=tp.size), mask)


class TestStaircaseOracle:
    @given(_rows)
    @example([(2.0, 3.0, True), (2.0, 3.0, True), (2.0, 1.0, True), (1.0, 4.0, True)])
    @example([(1.0, 1.0, False), (2.0, 2.0, False)])
    @example([(1.0, 2.0, True), (1.0 * (1 + TIME_TIE_REL / 4), 1.0, True)])
    def test_best_index_equals_the_loop_at_every_probe(self, rows):
        tp, energy, mask = _columns(rows)
        stairs = _staircase(tp, energy, mask)
        loop = _loop_staircase(tp, energy, mask)
        assert stairs.n_feasible == int(mask.sum())
        feasible = np.flatnonzero(mask)
        for deadline in _probe_deadlines(tp):
            idx = stairs.best_index(float(deadline))
            assert idx == _loop_best_index(loop, float(deadline))
            # ...which is recommend_exhaustive's comparator, brute force.
            meets = [i for i in feasible if tp[i] <= deadline]
            assert idx == (min(meets, key=lambda i: (energy[i], tp[i], i)) if meets else -1)

    @given(_rows)
    @example([(1.0, 2.0, True), (1.0 * (1 + TIME_TIE_REL / 4), 1.0, True), (3.0, 0.5, True)])
    def test_frontier_of_the_steps_is_the_frontier(self, rows):
        tp, energy, mask = _columns(rows)
        stairs = _staircase(tp, energy, mask)
        steps = stairs.step_idx
        candidates = np.flatnonzero(mask)
        np.testing.assert_array_equal(
            steps[pareto_indices(tp[steps], energy[steps])],
            candidates[pareto_indices(tp[candidates], energy[candidates])],
        )

    @pytest.mark.parametrize(
        "energy",
        [
            [math.inf, 3.0, math.nan, 2.0, 2.0],
            [math.nan, math.inf, math.inf],
            [4.0, math.nan, 1.0, math.inf],
        ],
    )
    def test_non_finite_energies_match_the_loop(self, energy):
        energy = np.array(energy)
        tp = np.arange(1.0, energy.size + 1.0)
        mask = np.ones(energy.size, dtype=bool)
        stairs = _staircase(tp, energy, mask)
        loop = _loop_staircase(tp, energy, mask)
        for deadline in _probe_deadlines(tp):
            assert stairs.best_index(float(deadline)) == _loop_best_index(loop, float(deadline))

    def test_staircase_keeps_only_its_steps(self, ep_arrays, ep_staircase):
        steps = ep_staircase.step_idx
        assert ep_staircase.n_feasible == ep_arrays.n_configs
        assert 0 < steps.size < ep_arrays.n_configs
        assert np.all(np.diff(ep_staircase.step_tp_s) >= 0.0)
        assert np.all(np.diff(ep_arrays.energy_j[steps]) < 0.0)
