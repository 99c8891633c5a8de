"""Tests for the vectorized Monte-Carlo queue engine.

The engine's central contract — the vectorized Lindley kernel computes the
same waits as the loop-carried recursion — is property-tested with
hypothesis over random arrival/service sequences; the statistical layer
(replications, percentiles, confidence intervals) is pinned with
hand-computable schedules and fixed seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueingError
from repro.queueing.mc import (
    TRACKED_PERCENTILES,
    ConfidenceInterval,
    MonteCarloQueue,
    ReplicatedResult,
    exponential_service,
    lindley_waits,
    scalar_lindley_waits,
    uniform_service,
    waits_agreement,
)

#: The kernels' span-normalised agreement contract.
AGREEMENT = 1e-12


def _random_queue_inputs(draw):
    """Hypothesis helper: a random arrival sequence + service times."""
    n = draw(st.integers(min_value=1, max_value=200))
    gaps = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    services = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.cumsum(np.asarray(gaps)), np.asarray(services)


class TestLindleyKernel:
    """The vectorized kernel against hand cases and the scalar oracle."""

    def test_no_contention(self):
        # Arrivals far apart: nobody waits.
        arrivals = np.array([0.0, 10.0, 20.0])
        assert np.all(lindley_waits(arrivals, 1.0) == 0.0)

    def test_saturated_deterministic(self):
        # Arrivals every 0.5 s, service 1 s: job n waits n * 0.5 s.
        arrivals = np.array([0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(
            lindley_waits(arrivals, 1.0), [0.0, 0.5, 1.0, 1.5]
        )

    def test_simultaneous_arrivals(self):
        # A batch at t=0 serialises: waits 0, s, 2s, ...
        arrivals = np.zeros(4)
        np.testing.assert_allclose(
            lindley_waits(arrivals, 0.25), [0.0, 0.25, 0.5, 0.75]
        )

    def test_variable_services_hand_case(self):
        # arrivals 0, 1, 2; services 3, 1, 1.
        # Job 0: starts 0, done 3.  Job 1: waits 2, done 4.  Job 2: waits 2.
        arrivals = np.array([0.0, 1.0, 2.0])
        services = np.array([3.0, 1.0, 1.0])
        np.testing.assert_allclose(
            lindley_waits(arrivals, services), [0.0, 2.0, 2.0]
        )

    def test_batched_2d_matches_rowwise(self):
        rng = np.random.default_rng(5)
        arrivals = np.cumsum(rng.exponential(1.0, (4, 300)), axis=1)
        services = rng.exponential(0.6, (4, 300))
        batched = lindley_waits(arrivals, services)
        for r in range(4):
            np.testing.assert_array_equal(
                batched[r], lindley_waits(arrivals[r], services[r])
            )

    def test_empty_input(self):
        assert lindley_waits(np.empty(0), 1.0).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(QueueingError):
            lindley_waits(np.zeros(3), np.zeros(4))

    def test_scalar_oracle_rejects_2d(self):
        with pytest.raises(QueueingError):
            scalar_lindley_waits(np.zeros((2, 3)), 1.0)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_scalar_oracle(self, data):
        """Property: on any arrival/service sequence the two kernels agree
        to 1e-12 of the simulated span."""
        arrivals, services = _random_queue_inputs(data.draw)
        vec = lindley_waits(arrivals, services)
        ora = scalar_lindley_waits(arrivals, services)
        assert waits_agreement(vec, ora, arrivals, services) <= AGREEMENT

    @given(
        n=st.integers(10, 500),
        rate=st.floats(0.1, 10.0),
        d=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic_service_matches_scalar_oracle(
        self, n, rate, d, seed
    ):
        """Property: the deterministic-service fast path (no service array)
        agrees with the oracle too."""
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / rate, n))
        vec = lindley_waits(arrivals, d)
        ora = scalar_lindley_waits(arrivals, d)
        assert waits_agreement(vec, ora, arrivals, d) <= AGREEMENT

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_waits_nonnegative_and_fifo_consistent(self, data):
        """Property: waits are non-negative and completions are ordered."""
        arrivals, services = _random_queue_inputs(data.draw)
        waits = lindley_waits(arrivals, services)
        assert np.all(waits >= 0.0)
        completions = arrivals + waits + services
        assert np.all(np.diff(completions) >= -1e-9 * completions[-1])


class TestMonteCarloQueue:
    def test_seed_reproducibility(self):
        q1 = MonteCarloQueue.md1(0.7, 1.0, seed=123)
        q2 = MonteCarloQueue.md1(0.7, 1.0, seed=123)
        r1, r2 = q1.run(500, 8), q2.run(500, 8)
        np.testing.assert_array_equal(
            r1.response_percentiles_s, r2.response_percentiles_s
        )
        np.testing.assert_array_equal(r1.utilisation, r2.utilisation)

    def test_different_seeds_differ(self):
        r1 = MonteCarloQueue.md1(0.7, 1.0, seed=1).run(500, 4)
        r2 = MonteCarloQueue.md1(0.7, 1.0, seed=2).run(500, 4)
        assert not np.array_equal(r1.p95_s, r2.p95_s)

    def test_replications_are_independent_streams(self):
        """Replication r's stream is a pure function of (seed, r): the
        first replications are identical regardless of how many more run."""
        q = MonteCarloQueue.md1(0.7, 1.0, seed=7)
        few = q.simulate_waits(200, 3)
        many = q.simulate_waits(200, 6)
        np.testing.assert_array_equal(few, many[:3])

    def test_run_matches_simulate_waits(self):
        """run()'s on-the-fly reduction equals percentiles of the full
        wait matrix."""
        q = MonteCarloQueue.md1(0.6, 2.0, seed=3)
        n_jobs, n_reps = 1_000, 5
        result = q.run(n_jobs, n_reps)
        waits = q.simulate_waits(n_jobs, n_reps)
        measured = waits[:, result.warmup_jobs:]
        for i, pc in enumerate(TRACKED_PERCENTILES):
            np.testing.assert_allclose(
                result.response_percentiles_s[i],
                np.percentile(measured, pc, axis=1) + 2.0,
            )

    def test_utilisation_tracks_target(self):
        result = MonteCarloQueue.from_utilisation(0.5, 1.0, seed=9).run(
            20_000, 10
        )
        assert result.mean_utilisation == pytest.approx(0.5, rel=0.05)
        assert result.busy_fraction == pytest.approx(0.5, rel=0.05)

    def test_busy_idle_split_covers_span(self):
        result = MonteCarloQueue.md1(0.4, 1.0, seed=13).run(2_000, 6)
        np.testing.assert_allclose(
            result.busy_time_s + result.idle_time_s, result.span_s
        )

    def test_warmup_fraction(self):
        q = MonteCarloQueue.md1(0.5, 1.0, warmup_fraction=0.25)
        assert q.run(400, 2).warmup_jobs == 100
        q0 = MonteCarloQueue.md1(0.5, 1.0, warmup_fraction=0.0)
        assert q0.run(400, 2).warmup_jobs == 0

    def test_service_sampler_used(self):
        result = MonteCarloQueue(
            1.0, uniform_service(0.2, 0.4), seed=17
        ).run(5_000, 4)
        # Mean service 0.3 at rate 1.0: utilisation ~0.3.
        assert result.mean_utilisation == pytest.approx(0.3, rel=0.1)

    def test_from_utilisation_requires_open_interval(self):
        with pytest.raises(QueueingError):
            MonteCarloQueue.from_utilisation(1.0, 1.0)
        with pytest.raises(QueueingError):
            MonteCarloQueue.from_utilisation(0.0, 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(QueueingError):
            MonteCarloQueue(0.0, 1.0)
        with pytest.raises(QueueingError):
            MonteCarloQueue(1.0, -1.0)
        with pytest.raises(QueueingError):
            MonteCarloQueue(1.0, 1.0, warmup_fraction=1.0)
        with pytest.raises(QueueingError):
            MonteCarloQueue(1.0, 1.0).run(0, 1)
        with pytest.raises(QueueingError):
            MonteCarloQueue(1.0, 1.0).run(10, 0)

    def test_bad_sampler_shape_rejected(self):
        q = MonteCarloQueue(1.0, lambda rng, size: np.ones(size + 1))
        with pytest.raises(QueueingError):
            q.run(10, 2)

    def test_nonpositive_sampler_rejected(self):
        q = MonteCarloQueue(1.0, lambda rng, size: np.zeros(size))
        with pytest.raises(QueueingError):
            q.run(10, 2)


class TestConfidenceIntervals:
    def _result(self, n_reps=30):
        return MonteCarloQueue.md1(0.7, 1.0, seed=21).run(2_000, n_reps)

    def test_normal_ci_brackets_mean(self):
        result = self._result()
        ci = result.percentile_ci(95.0)
        assert ci.lo < ci.mean < ci.hi
        assert ci.method == "normal"
        assert ci.contains(ci.mean)
        assert not ci.contains(ci.hi + 1.0)
        assert ci.half_width == pytest.approx((ci.hi - ci.lo) / 2.0)

    def test_bootstrap_ci_close_to_normal(self):
        result = self._result(40)
        normal = result.percentile_ci(95.0, level=0.95)
        boot = result.percentile_ci(95.0, level=0.95, method="bootstrap")
        assert boot.method == "bootstrap"
        assert boot.mean == pytest.approx(normal.mean)
        # The two constructions agree on the interval scale.
        assert boot.half_width == pytest.approx(normal.half_width, rel=0.5)

    def test_bootstrap_is_deterministic(self):
        result = self._result()
        a = result.percentile_ci(95.0, method="bootstrap")
        b = result.percentile_ci(95.0, method="bootstrap")
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_wider_level_wider_interval(self):
        result = self._result()
        assert (
            result.percentile_ci(95.0, level=0.99).half_width
            > result.percentile_ci(95.0, level=0.90).half_width
        )

    def test_mean_response_ci(self):
        result = self._result()
        ci = result.mean_response_ci()
        assert ci.contains(float(result.mean_response_s.mean()))
        boot = result.mean_response_ci(method="bootstrap")
        assert boot.mean == pytest.approx(ci.mean)

    def test_all_tracked_percentiles_accessible(self):
        result = self._result(5)
        assert np.all(result.p50_s <= result.p95_s)
        assert np.all(result.p95_s <= result.p99_s)

    def test_untracked_percentile_rejected(self):
        with pytest.raises(QueueingError):
            self._result(3).percentile_samples(42.0)

    def test_unknown_method_rejected(self):
        result = self._result(3)
        with pytest.raises(QueueingError):
            result.percentile_ci(95.0, method="magic")
        with pytest.raises(QueueingError):
            result.mean_response_ci(method="magic")

    def test_bad_level_rejected(self):
        with pytest.raises(QueueingError):
            self._result(3).percentile_ci(95.0, level=1.5)

    def test_ci_needs_replications(self):
        result = MonteCarloQueue.md1(0.5, 1.0).run(100, 1)
        with pytest.raises(QueueingError):
            result.percentile_ci(95.0)

    def test_replicated_result_shape_validated(self):
        with pytest.raises(QueueingError):
            ReplicatedResult(
                n_jobs=10,
                n_reps=2,
                warmup_jobs=1,
                arrival_rate=1.0,
                response_percentiles_s=np.zeros((2, 2)),
                mean_response_s=np.zeros(2),
                mean_wait_s=np.zeros(2),
                utilisation=np.zeros(2),
                busy_time_s=np.zeros(2),
                idle_time_s=np.zeros(2),
                span_s=np.zeros(2),
            )

    def test_confidence_interval_dataclass(self):
        ci = ConfidenceInterval(1.0, 0.5, 1.5, 0.95, "normal")
        assert ci.contains(0.5) and ci.contains(1.5)
        assert not ci.contains(1.6)


class TestServiceSamplers:
    def test_exponential_service_mean(self):
        sampler = exponential_service(2.0)
        draws = sampler(np.random.default_rng(1), 50_000)
        assert draws.mean() == pytest.approx(2.0, rel=0.05)

    def test_uniform_service_bounds(self):
        sampler = uniform_service(0.5, 1.5)
        draws = sampler(np.random.default_rng(2), 10_000)
        assert draws.min() >= 0.5 and draws.max() < 1.5

    def test_invalid_sampler_parameters(self):
        with pytest.raises(QueueingError):
            exponential_service(0.0)
        with pytest.raises(QueueingError):
            uniform_service(0.0, 1.0)
        with pytest.raises(QueueingError):
            uniform_service(2.0, 1.0)
