"""Cross-stack instrumentation contracts.

Two properties the whole obs layer stands on:

1. **Zero result drift** — enabling metrics and tracing must not change a
   single bit of any seeded engine output.  Instrumentation reads clocks
   and increments counters; it never touches an RNG stream or a
   simulation float.
2. **Metrics tell the truth** — the counters collected during a run must
   equal the corresponding fields of the result they were collected
   alongside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scheduling import replay_day
from repro.model.batched import clear_constants_cache, evaluate_space_arrays
from repro.obs import get_registry, get_tracer, instrumented
from repro.queueing.mc import MonteCarloQueue


@pytest.fixture(scope="module")
def plain_replay():
    """An uninstrumented ``(ScheduleResult, AdaptationResult)`` pair."""
    return replay_day("x264", "ppr-greedy", n_intervals=10)


@pytest.fixture()
def instrumented_replay():
    """The same seeded day replayed under ``instrumented()``, plus the
    metrics snapshot collected alongside it."""
    with instrumented():
        pair = replay_day("x264", "ppr-greedy", n_intervals=10)
        snapshot = get_registry().snapshot()
    return pair, snapshot


class TestZeroResultDrift:
    def test_schedule_results_bit_identical(
        self, plain_replay, instrumented_replay
    ):
        """The regression test the obs layer is gated on: an instrumented
        seeded replay equals the uninstrumented one, dataclass-deep."""
        assert instrumented_replay[0] == plain_replay

    def test_mc_waits_bit_identical(self):
        queue = MonteCarloQueue.from_utilisation(0.7, 1.0, seed=99)
        plain = queue.simulate_waits(2_000, 5)
        with instrumented():
            traced = MonteCarloQueue.from_utilisation(
                0.7, 1.0, seed=99
            ).simulate_waits(2_000, 5)
        np.testing.assert_array_equal(plain, traced)

    def test_batched_model_bit_identical(self, workloads):
        from repro.benchmarks.sweep import paper_spaces

        spaces = paper_spaces(3, 3)
        clear_constants_cache()
        plain = evaluate_space_arrays(workloads["EP"], spaces)
        with instrumented():
            clear_constants_cache()
            traced = evaluate_space_arrays(workloads["EP"], spaces)
        np.testing.assert_array_equal(plain.tp_s, traced.tp_s)
        np.testing.assert_array_equal(plain.energy_j, traced.energy_j)


class TestMetricsMatchResults:
    def test_scheduler_counters_equal_result_fields(self, instrumented_replay):
        (result, _oracle), snap = instrumented_replay

        def total(name):
            return sum(s["value"] for s in snap[name]["series"])

        assert total("repro_sched_jobs_dispatched_total") == result.jobs_arrived
        assert total("repro_sched_intervals_total") == len(result.timeline)
        transitions = {
            s["labels"]["transition"]: s["value"]
            for s in snap["repro_sched_power_transitions_total"]["series"]
        }
        assert transitions["boot"] == result.boots
        assert transitions["shutdown"] == result.shutdowns

    def test_dispatch_latency_histogram_counts_every_job(
        self, instrumented_replay
    ):
        (result, _oracle), snap = instrumented_replay
        (series,) = snap["repro_sched_dispatch_latency_s"]["series"]
        assert series["labels"] == {"policy": "ppr-greedy"}
        assert series["value"]["count"] == result.jobs_arrived

    def test_mc_counters_count_replications_and_jobs(self):
        with instrumented():
            MonteCarloQueue.from_utilisation(0.7, 1.0, seed=7).run(1_000, 6)
            snap = get_registry().snapshot()
        assert snap["repro_mc_replications_total"]["series"][0]["value"] == 6
        assert (
            snap["repro_mc_jobs_simulated_total"]["series"][0]["value"] == 6_000
        )
        # First replication allocates, the other five reuse the buffer.
        assert snap["repro_mc_buffer_reuses_total"]["series"][0]["value"] == 5

    def test_model_counters_count_configs(self, workloads):
        from repro.benchmarks.sweep import paper_spaces

        spaces = paper_spaces(2, 2)
        with instrumented():
            clear_constants_cache()
            arrays = evaluate_space_arrays(workloads["EP"], spaces)
            snap = get_registry().snapshot()
        assert (
            snap["repro_model_configs_evaluated_total"]["series"][0]["value"]
            == arrays.n_configs
        )
        assert "repro_model_constants_cache_misses_total" in snap


class TestSpans:
    def test_scheduler_run_span_recorded(self):
        with instrumented():
            replay_day("x264", "round-robin", n_intervals=4)
            names = {r.name for r in get_tracer().spans()}
        assert "scheduler.run" in names

    def test_mc_spans_carry_shape_attrs(self):
        with instrumented():
            queue = MonteCarloQueue.from_utilisation(0.7, 1.0, seed=7)
            queue.run(500, 3)
            queue.simulate_waits(500, 3)
            records = {r.name: r for r in get_tracer().spans()}
        assert records["mc.run"].attrs == {"n_jobs": 500, "n_reps": 3}
        assert records["mc.simulate_waits"].attrs == {"n_jobs": 500, "n_reps": 3}


class TestInstrumentedScope:
    def test_restores_prior_state(self):
        registry = get_registry()
        tracer = get_tracer()
        assert not registry.enabled and not tracer.enabled
        with instrumented():
            assert registry.enabled and tracer.enabled
        assert not registry.enabled and not tracer.enabled

    def test_reset_false_accumulates(self):
        with instrumented():
            get_registry().counter("keep").inc()
        with instrumented(reset=False):
            get_registry().counter("keep").inc()
            assert get_registry().counter("keep").value == 2

    def test_metrics_only(self):
        with instrumented(tracing=False):
            assert get_registry().enabled
            assert not get_tracer().enabled
