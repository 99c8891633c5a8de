"""Tests for the analytic M/D/c queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueingError
from repro.queueing.des import QueueSimulator
from repro.queueing.md1 import MD1Queue
from repro.queueing.mdc import MDCQueue
from repro.queueing.processes import PoissonProcess


class TestConstruction:
    def test_stability_uses_per_server_load(self):
        MDCQueue(arrival_rate=1.5, service_time_s=1.0, n_servers=2)  # rho=0.75 ok
        with pytest.raises(QueueingError):
            MDCQueue(arrival_rate=2.0, service_time_s=1.0, n_servers=2)

    def test_invalid_parameters(self):
        with pytest.raises(QueueingError):
            MDCQueue(1.0, 0.0, 2)
        with pytest.raises(QueueingError):
            MDCQueue(-1.0, 1.0, 2)
        with pytest.raises(QueueingError):
            MDCQueue(1.0, 1.0, 0)

    def test_from_utilisation(self):
        q = MDCQueue.from_utilisation(0.6, 2.0, 3)
        assert q.utilisation == pytest.approx(0.6)
        assert q.offered_load == pytest.approx(1.8)


class TestReducesToMD1:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.95])
    def test_wait_cdf_matches_md1(self, rho):
        mdc = MDCQueue.from_utilisation(rho, 1.0, 1)
        md1 = MD1Queue.from_utilisation(rho, 1.0)
        for t in (0.0, 0.3, 1.0, 2.5, 7.0):
            assert mdc.wait_cdf(t) == pytest.approx(md1.wait_cdf(t), abs=1e-8)

    def test_system_size_matches_md1(self):
        mdc = MDCQueue.from_utilisation(0.7, 1.0, 1)
        md1 = MD1Queue.from_utilisation(0.7, 1.0)
        for n in range(20):
            assert mdc.system_size_pmf(n) == pytest.approx(
                md1.system_size_pmf(n), abs=1e-9
            )

    def test_mean_wait_matches_md1_closed_form(self):
        mdc = MDCQueue.from_utilisation(0.6, 1.0, 1)
        md1 = MD1Queue.from_utilisation(0.6, 1.0)
        assert mdc.mean_wait_s() == pytest.approx(md1.mean_wait_s, rel=1e-4)


class TestStationaryDistribution:
    def test_pmf_sums_to_one(self):
        q = MDCQueue.from_utilisation(0.8, 1.0, 3)
        total = sum(q.system_size_pmf(n) for n in range(500))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_busy_servers_is_offered_load(self):
        """E[min(N, c)] = lambda * D — servers complete work as fast as it
        arrives in steady state."""
        q = MDCQueue.from_utilisation(0.7, 1.0, 4)
        mean_busy = sum(min(n, 4) * q.system_size_pmf(n) for n in range(600))
        assert mean_busy == pytest.approx(q.offered_load, abs=1e-6)

    def test_probability_of_wait(self):
        q = MDCQueue.from_utilisation(0.6, 1.0, 2)
        assert q.probability_of_wait == pytest.approx(
            1.0 - q.system_size_cdf(1), abs=1e-12
        )

    def test_more_servers_less_waiting(self):
        """Pooled capacity at equal per-server load: P(wait) grows with c
        smaller systems... i.e. at the same rho, more servers wait less."""
        p_waits = [
            MDCQueue.from_utilisation(0.8, 1.0, c).probability_of_wait
            for c in (1, 2, 4, 8)
        ]
        assert p_waits == sorted(p_waits, reverse=True)


class TestWaitDistribution:
    def test_atom_at_zero_is_no_full_house(self):
        """P(W = 0) = P(N < c) by PASTA."""
        for rho, c in ((0.4, 2), (0.7, 3), (0.9, 5)):
            q = MDCQueue.from_utilisation(rho, 1.0, c)
            assert q.wait_cdf(0.0) == pytest.approx(
                q.system_size_cdf(c - 1), abs=1e-9
            )

    def test_cdf_monotone(self):
        q = MDCQueue.from_utilisation(0.85, 1.0, 3)
        grid = np.linspace(0, 15, 300)
        values = [q.wait_cdf(float(t)) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_cdf_continuous_at_slot_boundaries(self):
        q = MDCQueue.from_utilisation(0.8, 1.0, 2)
        for k in (1, 2, 5):
            assert q.wait_cdf(float(k)) == pytest.approx(
                q.wait_cdf(k - 1e-9), abs=1e-6
            )

    def test_percentile_roundtrip(self):
        q = MDCQueue.from_utilisation(0.8, 0.5, 3)
        for p in (50.0, 90.0, 95.0, 99.0):
            t = q.wait_percentile(p)
            assert q.wait_cdf(t) == pytest.approx(p / 100.0, abs=1e-6)

    def test_percentile_below_atom_is_zero(self):
        q = MDCQueue.from_utilisation(0.3, 1.0, 4)  # ample capacity
        assert q.wait_percentile(50.0) == 0.0

    def test_response_offsets_service(self):
        q = MDCQueue.from_utilisation(0.7, 0.25, 2)
        assert q.response_percentile(95) == pytest.approx(
            q.wait_percentile(95) + 0.25
        )
        assert q.p95_response_s() == q.response_percentile(95.0)

    def test_zero_load(self):
        q = MDCQueue(0.0, 1.0, 2)
        assert q.wait_cdf(0.0) == 1.0
        assert q.wait_percentile(95) == 0.0


class TestAgainstDES:
    @pytest.mark.parametrize("rho,c", [(0.5, 2), (0.8, 3)])
    def test_wait_cdf_matches_simulation(self, rho, c):
        q = MDCQueue.from_utilisation(rho, 1.0, c)
        sim = QueueSimulator(
            PoissonProcess(q.arrival_rate),
            1.0,
            np.random.default_rng(11),
            n_servers=c,
        ).run_jobs(40_000)
        for t in (0.0, 0.5, 1.0, 3.0):
            assert sim.empirical_wait_cdf(t) == pytest.approx(
                q.wait_cdf(t), abs=0.03
            )

    def test_mean_wait_matches_simulation(self):
        q = MDCQueue.from_utilisation(0.7, 1.0, 2)
        sim = QueueSimulator(
            PoissonProcess(q.arrival_rate),
            1.0,
            np.random.default_rng(13),
            n_servers=2,
        ).run_jobs(100_000)
        assert sim.waits.mean() == pytest.approx(q.mean_wait_s(), rel=0.1)

    @given(rho=st.floats(0.2, 0.85), c=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_cdf_property_vs_des(self, rho, c):
        """Property: the Franx M/D/c CDF tracks the multi-server DES."""
        q = MDCQueue.from_utilisation(rho, 1.0, c)
        sim = QueueSimulator(
            PoissonProcess(q.arrival_rate),
            1.0,
            np.random.default_rng(17),
            n_servers=c,
        ).run_jobs(8_000)
        for t in (0.0, 1.0, 4.0):
            assert sim.empirical_wait_cdf(t) == pytest.approx(
                q.wait_cdf(t), abs=0.06
            )


class TestPooling:
    def test_pooling_beats_partitioning(self):
        """The classic result the extension exists to show: a pooled
        cluster serving jobs c times faster (M/D/1 with D/c) has lower p95
        than the same capacity split into c independent slots (M/D/c
        with D)."""
        lam = 1.6  # jobs/s
        d = 1.0
        c = 4
        pooled = MD1Queue(lam, d / c)
        partitioned = MDCQueue(lam, d, c)
        assert pooled.p95_response_s() < partitioned.p95_response_s()
