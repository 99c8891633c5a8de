"""Tests for the discrete-event FIFO simulator, including the property
tests cross-validating the analytic M/D/1 results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueingError
from repro.queueing.des import QueueSimulator, SimulationResult
from repro.queueing.mc import MonteCarloQueue, scalar_lindley_waits, waits_agreement
from repro.queueing.md1 import MD1Queue
from repro.queueing.mg1 import MM1Queue
from repro.queueing.processes import PoissonProcess, make_arrivals, make_service


def _evenly_spaced(rate, horizon_s):
    """Arrivals every ``1/rate`` seconds from t = 0, inside the horizon."""
    period = 1.0 / rate
    times = period * np.arange(int(np.floor(horizon_s / period)) + 1)
    return times[times < horizon_s]


class TestDeterministicScenarios:
    """Hand-computable schedules pin the FIFO recursion exactly."""

    def test_no_contention_no_wait(self):
        sim = QueueSimulator(_evenly_spaced(1.0, 10.0), 0.5)
        result = sim.run(10.0)
        assert np.all(result.waits == 0.0)

    def test_saturated_arrivals_queue_up(self):
        # Arrivals every 0.5 s, service 1 s: job n waits n * 0.5 s.
        sim = QueueSimulator(_evenly_spaced(2.0, 2.0), 1.0)
        result = sim.run(2.0)  # arrivals at 0, 0.5, 1.0, 1.5
        np.testing.assert_allclose(result.waits, [0.0, 0.5, 1.0, 1.5])

    def test_responses_are_wait_plus_service(self):
        sim = QueueSimulator(_evenly_spaced(2.0, 2.0), 1.0)
        result = sim.run(2.0)
        np.testing.assert_allclose(result.responses, result.waits + 1.0)

    def test_completions_sorted_fifo(self):
        sim = QueueSimulator(_evenly_spaced(3.0, 5.0), 0.7)
        result = sim.run(5.0)
        assert np.all(np.diff(result.completions) > 0)

    def test_busy_time(self):
        sim = QueueSimulator(_evenly_spaced(1.0, 4.0), 0.25)
        result = sim.run(4.0)  # 4 jobs
        assert result.busy_time_s == pytest.approx(1.0)

    def test_utilisation_never_above_one(self):
        sim = QueueSimulator(_evenly_spaced(10.0, 5.0), 1.0)  # overloaded
        result = sim.run(5.0)
        assert result.utilisation <= 1.0


class TestInterface:
    def test_empty_horizon(self, rng):
        sim = QueueSimulator(PoissonProcess(0.001), 1.0, rng)
        result = sim.run(0.001)
        assert result.n_jobs in (0, 1)

    def test_empty_result_statistics_raise(self):
        result = SimulationResult(
            arrivals=np.empty(0), waits=np.empty(0), services=np.empty(0),
            horizon_s=1.0,
        )
        assert result.utilisation == 0.0
        with pytest.raises(QueueingError):
            result.empirical_wait_cdf(1.0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(QueueingError):
            SimulationResult(
                arrivals=np.zeros(2), waits=np.zeros(3), services=np.zeros(2),
                horizon_s=1.0,
            )

    def test_run_jobs_exact_count(self, rng):
        sim = QueueSimulator.md1(50.0, 0.01, rng)
        result = sim.run_jobs(500)
        assert result.n_jobs == 500

    def test_run_jobs_invalid_count(self, rng):
        with pytest.raises(QueueingError):
            QueueSimulator.md1(1.0, 0.1, rng).run_jobs(0)

    def test_random_service_needs_rng(self):
        with pytest.raises(QueueingError):
            QueueSimulator(
                _evenly_spaced(1.0, 3.0), lambda r, n: np.ones(n), rng=None
            )

    def test_nonpositive_service_rejected(self):
        with pytest.raises(QueueingError):
            QueueSimulator(_evenly_spaced(1.0, 3.0), 0.0)

    @pytest.mark.parametrize("service", [float("nan"), float("inf")])
    def test_non_finite_service_rejected_by_both_engines(self, service):
        with pytest.raises(QueueingError):
            QueueSimulator(_evenly_spaced(1.0, 3.0), service)
        with pytest.raises(QueueingError):
            MonteCarloQueue(1.0, service)

    def test_service_model_must_be_positive(self, rng):
        sim = QueueSimulator(
            _evenly_spaced(1.0, 3.0), lambda r, n: np.full(n, -1.0), rng=rng
        )
        with pytest.raises(QueueingError):
            sim.run(3.0)


class TestAgainstAnalytics:
    """The DES is the ground truth the analytic formulas must match."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.85])
    def test_md1_mean_wait(self, rho):
        d = 0.02
        q = MD1Queue.from_utilisation(rho, d)
        sim = QueueSimulator.md1(q.arrival_rate, d, np.random.default_rng(17))
        result = sim.run_jobs(40_000)
        assert result.waits.mean() == pytest.approx(q.mean_wait_s, rel=0.08)

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.85])
    def test_md1_wait_cdf(self, rho):
        d = 0.02
        q = MD1Queue.from_utilisation(rho, d)
        sim = QueueSimulator.md1(q.arrival_rate, d, np.random.default_rng(23))
        result = sim.run_jobs(40_000)
        for t in (0.0, 0.5 * d, d, 2 * d, 5 * d):
            assert result.empirical_wait_cdf(t) == pytest.approx(
                q.wait_cdf(t), abs=0.02
            )

    @pytest.mark.parametrize("rho", [0.4, 0.7])
    def test_md1_p95_response(self, rho):
        d = 0.05
        q = MD1Queue.from_utilisation(rho, d)
        sim = QueueSimulator.md1(q.arrival_rate, d, np.random.default_rng(29))
        result = sim.run_jobs(60_000)
        assert float(np.percentile(result.responses, 95)) == pytest.approx(
            q.p95_response_s(), rel=0.05
        )

    def test_mm1_mean_wait(self):
        rho, s = 0.6, 0.02
        q = MM1Queue.from_utilisation(rho, s)
        sim = QueueSimulator(
            PoissonProcess(q.arrival_rate).sample_arrivals(
                np.random.default_rng(31), 60_000
            ),
            lambda r, n: r.exponential(s, n),
            rng=np.random.default_rng(37),
        )
        result = sim.run_jobs(60_000)
        assert result.waits.mean() == pytest.approx(q.mean_wait_s, rel=0.08)

    @given(rho=st.floats(0.1, 0.8))
    @settings(max_examples=10, deadline=None)
    def test_md1_cdf_property(self, rho):
        """Property: across utilisations, the empirical wait CDF tracks the
        Franx formula at several quantile anchors."""
        d = 1.0
        q = MD1Queue.from_utilisation(rho, d)
        sim = QueueSimulator.md1(q.arrival_rate, d, np.random.default_rng(41))
        result = sim.run_jobs(8_000)
        for t in (0.0, d, 3 * d):
            assert result.empirical_wait_cdf(t) == pytest.approx(
                q.wait_cdf(t), abs=0.05
            )


class TestMultiServerUtilisation:
    """S1 regression: utilisation must use per-server busy spans."""

    def test_unbalanced_servers_fully_busy(self, rng):
        # Two servers, both jobs arrive at t=0; services 1 s and 9 s.
        # Each server is 100% busy over its own span, so utilisation is
        # exactly 1.0.  The old formula divided total busy time (10 s) by
        # n_servers * last completion (2 * 9 s) and reported ~0.556.
        sim = QueueSimulator(
            np.arange(2) / 1e9,  # arrivals at ~0, ~0: effectively a batch
            lambda r, n: np.array([1.0, 9.0]),
            rng,
            n_servers=2,
        )
        result = sim.run_jobs(2)
        assert result.utilisation == pytest.approx(1.0)

    def test_result_exposes_server_completions(self, rng):
        sim = QueueSimulator(
            PoissonProcess(2.0),
            lambda r, n: r.exponential(0.4, n),
            rng,
            n_servers=3,
        )
        result = sim.run_jobs(200)
        assert result.server_completions_s is not None
        assert result.server_completions_s.shape == (3,)

    def test_server_completions_length_validated(self):
        with pytest.raises(QueueingError):
            SimulationResult(
                arrivals=np.zeros(2), waits=np.zeros(2), services=np.ones(2),
                horizon_s=5.0, n_servers=2,
                server_completions_s=np.array([1.0]),
            )

    def test_legacy_results_fall_back(self):
        # Results built without per-server spans keep the old estimate.
        result = SimulationResult(
            arrivals=np.array([0.0, 0.0]), waits=np.array([0.0, 0.0]),
            services=np.array([1.0, 9.0]), horizon_s=1.0, n_servers=2,
        )
        assert result.utilisation == pytest.approx(10.0 / 18.0)

    def test_single_server_unchanged(self):
        sim = QueueSimulator(_evenly_spaced(1.0, 4.0), 0.25)
        result = sim.run(4.0)  # 4 jobs, busy 1 s over the 4 s horizon
        assert result.utilisation == pytest.approx(0.25)


class TestSeedDeterminism:
    """S2 regression: run_jobs randomness depends only on seeds and n."""

    def test_same_seed_same_result(self, rng):
        a = QueueSimulator.md1(
            20.0, 0.03, np.random.default_rng(77)
        ).run_jobs(1_000)
        b = QueueSimulator.md1(
            20.0, 0.03, np.random.default_rng(77)
        ).run_jobs(1_000)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.waits, b.waits)


class TestOneSimulator:
    """The DES is one replication of the Monte-Carlo engine.

    Run on MC's spawned generator ``r``, the DES reproduces
    ``simulate_waits`` row ``r`` bit for bit, and both match the scalar
    Lindley oracle within the span-normalised 1e-12 contract.
    """

    @pytest.mark.parametrize("service", ["deterministic", "exponential"])
    @pytest.mark.parametrize("arrival", ["poisson", "mmpp"])
    def test_des_equals_mc_replication(self, arrival, service):
        n_jobs, n_reps = 3_000, 4
        mc = MonteCarloQueue(
            make_arrivals(arrival, 0.7), make_service(service, 1.0), seed=2016
        )
        rows = mc.simulate_waits(n_jobs, n_reps)
        for r, rng in enumerate(mc.spawn_generators(n_reps)):
            result = QueueSimulator(
                make_arrivals(arrival, 0.7), make_service(service, 1.0), rng
            ).run_jobs(n_jobs)
            np.testing.assert_array_equal(result.waits, rows[r])
            oracle = scalar_lindley_waits(result.arrivals, result.services)
            assert (
                waits_agreement(rows[r], oracle, result.arrivals, result.services)
                <= 1e-12
            )
