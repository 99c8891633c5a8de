"""Integration tests for remaining cross-module paths."""

import numpy as np
import pytest

import repro


class TestLazyClusterExports:
    def test_pareto_names_resolve(self):
        import repro.cluster as cluster

        assert cluster.pareto_frontier is not None
        assert cluster.recommend_greedy is not None

    def test_unknown_attribute_raises(self):
        import repro.cluster as cluster

        with pytest.raises(AttributeError):
            _ = cluster.not_a_thing


class TestBatchArrivalsThroughDES:
    def test_batch_jobs_queue_behind_each_other(self, rng):
        """The paper's jobs-per-batch sweeps, driven through the simulator:
        every job of a batch after the first must wait."""
        from repro.queueing import PoissonProcess, QueueSimulator

        epochs = PoissonProcess(0.5).sample_arrivals(rng, 100)
        sim = QueueSimulator(np.repeat(epochs, 4), 0.1)  # 4 jobs per batch
        result = sim.run_jobs(400)
        # Jobs arriving inside a batch see at least one service of queueing.
        waits = np.sort(result.waits)
        assert waits[-1] >= 0.3 - 1e-9  # 4th of a batch waits 3 services
        assert np.mean(result.waits > 0) > 0.5

    def test_batch_utilisation_matches_rate(self, rng):
        from repro.queueing import PoissonProcess, QueueSimulator

        epochs = PoissonProcess(1.0).arrivals_until(rng, 500.0)
        sim = QueueSimulator(np.repeat(epochs, 3), 0.2)  # 3 jobs per batch
        result = sim.run(500.0)
        assert result.utilisation == pytest.approx(3 * 1.0 * 0.2, rel=0.1)


class TestFigureDriversOtherInputs:
    def test_figure7_for_every_workload(self):
        from repro.experiments.figures import figure7_cluster_proportionality

        for name in repro.PAPER_WORKLOAD_NAMES:
            fig = figure7_cluster_proportionality(name)
            assert len(fig.series) == 6

    def test_figure8_divisible_budget(self):
        from repro.experiments.figures import figure8_cluster_ppr

        fig = figure8_cluster_ppr("EP", budget_w=1920.0)  # 32 K10, 4 equal steps
        assert len(fig.series) == 5

    def test_figure8_indivisible_budget_raises(self):
        from repro.errors import ConfigurationError
        from repro.experiments.figures import figure8_cluster_ppr

        # 2 kW fits 33 K10, not divisible into 4 equal steps: the driver
        # surfaces the configuration error untouched.
        with pytest.raises(ConfigurationError):
            figure8_cluster_ppr("EP", budget_w=2000.0)

    def test_figure9_custom_mixes(self):
        from repro.experiments.figures import figure9_pareto_proportionality

        fig = figure9_pareto_proportionality(
            "blackscholes", mixes=((16, 6), (12, 3))
        )
        assert fig.require_series("12 A9: 3 K10") is not None

    def test_figure9_empty_mixes_rejected(self):
        from repro.errors import ReproError
        from repro.experiments.figures import figure9_pareto_proportionality

        with pytest.raises(ReproError):
            figure9_pareto_proportionality("EP", mixes=())


class TestPublicApiSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_errors_inherit_base(self):
        for exc in (
            repro.ConfigurationError,
            repro.CalibrationError,
            repro.ModelError,
            repro.QueueingError,
            repro.MeasurementError,
            repro.WorkloadError,
        ):
            assert issubclass(exc, repro.ReproError)
