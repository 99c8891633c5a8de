"""The deadline staircase vs the exhaustive-search oracle.

The serving layer answers every cached ``recommend`` query through
:func:`repro.model.batched.deadline_staircase`; these tests pin its
bit-identity contract — for any deadline (and any power-budget
feasibility mask), the staircase's winner is EXACTLY the configuration
:func:`repro.cluster.search.recommend_exhaustive` materialises, floats
and all — plus the lookup's edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
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
