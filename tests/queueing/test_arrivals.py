"""Tests for the arrival inputs both queue engines accept: a process
spec, drawn by its horizon sampler or in batches of n, and an array of
arrival times drawn by the caller."""

import numpy as np
import pytest

from repro.errors import QueueingError
from repro.queueing.des import QueueSimulator
from repro.queueing.mc import MonteCarloQueue
from repro.queueing.processes import ArrivalSpec, PoissonProcess


class TestPoisson:
    def test_rate_respected(self, rng):
        times = PoissonProcess(100.0).arrivals_until(rng, 100.0)
        assert len(times) == pytest.approx(10_000, rel=0.1)

    def test_sorted_and_bounded(self, rng):
        times = PoissonProcess(50.0).arrivals_until(rng, 5.0)
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0.0
        assert times[-1] < 5.0

    def test_exponential_gaps(self, rng):
        rate = 200.0
        times = PoissonProcess(rate).arrivals_until(rng, 200.0)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
        # Exponential: std == mean.
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.1)

    def test_invalid_parameters(self, rng):
        with pytest.raises(QueueingError):
            PoissonProcess(0.0)
        with pytest.raises(QueueingError):
            PoissonProcess(1.0).arrivals_until(rng, 0.0)

    def test_deterministic_given_stream(self):
        a = PoissonProcess(10.0).arrivals_until(np.random.default_rng(3), 10.0)
        b = PoissonProcess(10.0).arrivals_until(np.random.default_rng(3), 10.0)
        np.testing.assert_array_equal(a, b)


class TestDeterministic:
    """Evenly spaced arrivals, as an array the simulator replays."""

    def test_even_spacing(self):
        result = QueueSimulator(0.25 * np.arange(8), 0.1).run(1.0)
        np.testing.assert_allclose(result.arrivals, [0.0, 0.25, 0.5, 0.75])

    def test_offset(self):
        result = QueueSimulator(0.1 + 0.5 * np.arange(4), 0.1).run(1.0)
        np.testing.assert_allclose(result.arrivals, [0.1, 0.6])

    def test_offset_beyond_horizon(self):
        assert QueueSimulator(5.0 + np.arange(3.0), 0.1).run(1.0).n_jobs == 0

    def test_invalid_parameters(self):
        with pytest.raises(QueueingError):
            QueueSimulator(np.array([-1.0, 0.0]), 0.1)
        with pytest.raises(QueueingError):
            QueueSimulator(np.arange(3.0), 0.1).run_jobs(4)


class TestBatch:
    def test_jobs_repeat_per_batch(self, rng):
        epochs = PoissonProcess(10.0).arrivals_until(rng, 50.0)
        times = QueueSimulator(np.repeat(epochs, 4), 0.01).run(50.0).arrivals
        assert len(times) % 4 == 0
        # Each epoch appears exactly batch_size times.
        unique, counts = np.unique(times, return_counts=True)
        assert np.all(counts == 4)

    def test_effective_rate(self, rng):
        epochs = PoissonProcess(10.0).arrivals_until(rng, 100.0)
        result = QueueSimulator(np.repeat(epochs, 5), 0.001).run(100.0)
        assert result.n_jobs / 100.0 == pytest.approx(50.0, rel=0.1)


class _Scripted(ArrivalSpec):
    """A spec that returns fixed times regardless of ``n``."""

    def __init__(self, times):
        self.rate = 1.0
        self._times = np.asarray(times, dtype=float)

    def sample_arrivals(self, rng, n):
        return self._times


class TestOneCheck:
    """Both engines check arrival times with the same rules: 1-D,
    finite, non-negative and non-decreasing."""

    BAD = [
        [-1.0, 0.5, 1.0],
        [0.0, 2.0, 1.0],
        [0.0, np.nan, 1.0],
        [0.0, 1.0, np.inf],
    ]

    @pytest.mark.parametrize("times", BAD)
    def test_arrays_rejected(self, times):
        with pytest.raises(QueueingError):
            QueueSimulator(np.asarray(times), 0.1)

    @pytest.mark.parametrize("times", BAD + [[0.0, 1.0]])
    def test_spec_draws_rejected_by_both_engines(self, times):
        with pytest.raises(QueueingError):
            QueueSimulator(_Scripted(times), 0.1, np.random.default_rng(0)).run_jobs(3)
        with pytest.raises(QueueingError):
            MonteCarloQueue(_Scripted(times), 0.1).run(3, 2)

    def test_two_dimensional_array_rejected(self):
        with pytest.raises(QueueingError):
            QueueSimulator(np.zeros((2, 3)), 0.1)
