"""Process plug-ins: bit-identity to the legacy engine, seams, validation.

The processes module's load-bearing promise is that plugging the baseline
specs (Poisson arrivals, deterministic/exponential service) into the
Monte-Carlo engine, the DES and the scheduler reproduces the legacy
float-argument results *bit-for-bit* — the plug-in layer costs nothing
and changes nothing until a non-baseline process is asked for.  These
tests pin that promise, the shared horizon sampler, the
scheduler-trace unification, and the constructors' validation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import QueueingError
from repro.queueing.des import QueueSimulator
from repro.queueing.mc import MonteCarloQueue, exponential_service
from repro.queueing.processes import (
    ARRIVAL_KINDS,
    INTERVAL_ARRIVAL_KINDS,
    SERVICE_KINDS,
    DeterministicService,
    ExponentialService,
    FlashCrowd,
    LognormalService,
    MarkovModulatedPoisson,
    ParetoService,
    PoissonProcess,
    TraceDrivenArrivals,
    make_arrivals,
    make_interval_arrivals,
    make_service,
)

_MC_FIELDS = (
    "response_percentiles_s",
    "mean_response_s",
    "mean_wait_s",
    "utilisation",
    "busy_time_s",
    "idle_time_s",
    "span_s",
)


def _assert_runs_equal(a, b):
    for field in _MC_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestLegacyBitIdentity:
    def test_md1_plugin_matches_float_engine(self):
        legacy = MonteCarloQueue(0.7, 1.3, seed=101).run(800, 5)
        plugged = MonteCarloQueue(
            PoissonProcess(0.7), DeterministicService(1.3), seed=101
        ).run(800, 5)
        _assert_runs_equal(legacy, plugged)

    def test_mm1_plugin_matches_exponential_factory(self):
        legacy = MonteCarloQueue(0.5, exponential_service(1.1), seed=77).run(
            600, 4
        )
        plugged = MonteCarloQueue(
            PoissonProcess(0.5), ExponentialService(1.1), seed=77
        ).run(600, 4)
        _assert_runs_equal(legacy, plugged)

    def test_from_utilisation_matches_plugin(self):
        a = MonteCarloQueue.from_utilisation(0.6, 2.0, seed=5).run(500, 3)
        b = MonteCarloQueue(
            PoissonProcess(0.3), DeterministicService(2.0), seed=5
        ).run(500, 3)
        _assert_runs_equal(a, b)

    def test_plugin_run_is_worker_invariant(self):
        mc = MonteCarloQueue(
            MarkovModulatedPoisson(0.6), ParetoService(1.0), seed=9
        )
        _assert_runs_equal(mc.run(400, 4), mc.run(400, 4, workers=2))


class TestArrivalsSeam:
    """Both queue engines draw arrivals through the process specs."""

    def test_poisson_first_n_matches_legacy_formula(self):
        # The pre-delegation implementation: exponential gaps, cumsum.
        legacy = np.cumsum(np.random.default_rng(42).exponential(1.0 / 2.5, 64))
        delegated = PoissonProcess(2.5).sample_arrivals(np.random.default_rng(42), 64)
        assert np.array_equal(legacy, delegated)

    def test_poisson_horizon_matches_legacy_formula(self):
        rng = np.random.default_rng(7)
        times = PoissonProcess(4.0).arrivals_until(rng, 50.0)
        expected = 4.0 * 50.0
        chunk = int(expected + 6.0 * np.sqrt(expected) + 16)
        legacy = np.cumsum(
            np.random.default_rng(7).exponential(0.25, chunk)
        )
        legacy = legacy[legacy < 50.0]
        assert np.array_equal(times, legacy)

    def test_process_arrivals_first_n_is_exact(self):
        spec = FlashCrowd(3.0)
        direct = spec.sample_arrivals(np.random.default_rng(3), 100)
        simulated = QueueSimulator(spec, 0.1, np.random.default_rng(3)).run_jobs(100)
        assert np.array_equal(direct, simulated.arrivals)

    def test_process_arrivals_horizon_sorted_and_bounded(self):
        times = MarkovModulatedPoisson(5.0).arrivals_until(
            np.random.default_rng(11), 30.0
        )
        assert times.size > 0
        assert float(times[-1]) < 30.0
        assert np.all(np.diff(times) >= 0.0)

    def test_process_arrivals_rejects_non_spec(self):
        with pytest.raises(QueueingError):
            QueueSimulator(3.0, 0.5, np.random.default_rng(0))


class TestSchedulerTraceSeam:
    """The diurnal trace drives arrivals through the same process protocol."""

    def test_same_seed_same_trace(self):
        from repro.extensions.dynamic import diurnal_trace
        from repro.util.rng import RngRegistry

        direct = diurnal_trace(
            n_intervals=24, rng=RngRegistry(77).stream("scheduler/trace"), noise=0.03
        )
        spec = TraceDrivenArrivals.diurnal(
            2.0,
            n_intervals=24,
            rng=RngRegistry(77).stream("scheduler/trace"),
            noise=0.03,
        )
        assert np.array_equal(np.asarray(spec.trace), np.asarray(direct))

    def test_diurnal_spec_long_run_rate_matches(self):
        spec = TraceDrivenArrivals.diurnal(2.0, n_intervals=24)
        times = spec.sample_arrivals(np.random.default_rng(1), 60_000)
        rate = times.size / float(times[-1])
        assert rate == pytest.approx(2.0, rel=0.05)


class TestDesIntegration:
    def test_spec_pair_runs_through_des(self):
        sim = QueueSimulator(
            MarkovModulatedPoisson(2.0),
            LognormalService(0.2),
            np.random.default_rng(4),
        )
        result = sim.run_jobs(500)
        assert result.n_jobs == 500
        assert np.all(result.responses > 0.0)

    def test_deterministic_spec_matches_float_service(self):
        a = QueueSimulator(
            PoissonProcess(1.5), DeterministicService(0.4), np.random.default_rng(8)
        ).run_jobs(300)
        b = QueueSimulator(
            PoissonProcess(1.5).sample_arrivals(np.random.default_rng(8), 300), 0.4
        ).run_jobs(300)
        assert np.array_equal(a.responses, b.responses)

    def test_arrival_spec_requires_rng(self):
        with pytest.raises(QueueingError):
            QueueSimulator(PoissonProcess(1.0), 0.5)


class TestSpecValidation:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_make_arrivals_round_trip(self, kind):
        spec = make_arrivals(kind, 2.0)
        assert spec.label == kind
        assert spec.rate == pytest.approx(2.0)
        times = spec.sample_arrivals(np.random.default_rng(0), 50)
        assert times.shape == (50,)
        assert np.all(np.diff(times) >= 0.0)

    @pytest.mark.parametrize("kind", SERVICE_KINDS)
    def test_make_service_round_trip(self, kind):
        spec = make_service(kind, 0.8)
        assert spec.label == kind
        draws = spec(np.random.default_rng(0), 4000)
        assert draws.shape == (4000,)
        assert np.all(draws > 0.0)
        assert float(np.mean(draws)) == pytest.approx(0.8, rel=0.2)

    @pytest.mark.parametrize("kind", INTERVAL_ARRIVAL_KINDS)
    def test_make_interval_arrivals_round_trip(self, kind):
        model = make_interval_arrivals(kind)
        assert model.label == kind
        model.reset()
        times = model.sample_interval(
            np.random.default_rng(0), 5.0, 10.0, 20.0, 30.0
        )
        assert np.all((times >= 20.0) & (times <= 30.0))
        assert np.all(np.diff(times) >= 0.0)

    def test_unknown_kinds_raise(self):
        with pytest.raises(QueueingError):
            make_arrivals("weibull", 1.0)
        with pytest.raises(QueueingError):
            make_service("weibull", 1.0)
        with pytest.raises(QueueingError):
            make_interval_arrivals("weibull")

    def test_interval_default_is_poisson(self):
        assert make_interval_arrivals(None).label == "poisson"

    def test_bad_parameters_raise(self):
        with pytest.raises(QueueingError):
            PoissonProcess(0.0)
        with pytest.raises(QueueingError):
            MarkovModulatedPoisson(1.0, burstiness=0.5)
        with pytest.raises(QueueingError):
            MarkovModulatedPoisson(1.0, persistence=1.5)
        with pytest.raises(QueueingError):
            FlashCrowd(1.0, spike_fraction=1.0)
        with pytest.raises(QueueingError):
            FlashCrowd(1.0, spike_factor=0.5)
        with pytest.raises(QueueingError):
            TraceDrivenArrivals(1.0, [1.0, -2.0])
        with pytest.raises(QueueingError):
            ParetoService(1.0, tail_index=1.0)
        with pytest.raises(QueueingError):
            LognormalService(1.0, sigma=0.0)
        with pytest.raises(QueueingError):
            DeterministicService(-1.0)

    def test_scv_values(self):
        assert DeterministicService(1.0).scv == 0.0
        assert ExponentialService(1.0).scv == 1.0
        assert LognormalService(1.0, sigma=0.8).scv == pytest.approx(
            np.expm1(0.64)
        )
        assert ParetoService(1.0, tail_index=2.5).scv == pytest.approx(
            1.0 / (2.5 * 0.5)
        )
        assert ParetoService(1.0, tail_index=1.8).scv == np.inf

    def test_specs_pickle(self):
        for spec in (
            PoissonProcess(1.0),
            MarkovModulatedPoisson(1.0),
            FlashCrowd(1.0),
            TraceDrivenArrivals.diurnal(1.0),
            DeterministicService(1.0),
            ExponentialService(1.0),
            ParetoService(1.0),
            LognormalService(1.0),
        ):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.label == spec.label

    def test_mmpp_regime_rates_average_to_rate(self):
        spec = MarkovModulatedPoisson(2.0, burstiness=4.0)
        lo, hi = spec.regime_rates
        # Equal regime occupancy -> the stationary mean *gap* is the mean
        # of the per-regime gaps, so the harmonic mean of the rates is
        # the configured long-run rate.
        assert 2.0 / (1.0 / lo + 1.0 / hi) == pytest.approx(2.0)
        assert hi / lo == pytest.approx(16.0)
