"""Model-informed admission control: M/D/1 derivation and the controller."""

import math

import pytest

from repro.errors import ReproError
from repro.queueing.md1 import MD1Queue
from repro.serve import admission
from repro.serve.admission import AdmissionController, derive_occupancy_limit

#: ``(D, SLO, rho*, depth)`` from the direct bisection on the M/D/1 p95 at
#: each D (one fresh MD1Queue per probe, bracket top probed first), which
#: the scale-invariant derivation must reproduce exactly.  Rows with
#: D > SLO are the serial-admission case.
PINNED = (
    (0.0002, 0.01, 0.9699153733520507, 49),
    (0.0002, 0.1, 0.9969878560180665, 497),
    (0.0002, 0.25, 0.9987561037597656, 1204),
    (0.0002, 1.0, 0.999, 1498),
    (0.001, 0.01, 0.8480282272949219, 9),
    (0.001, 0.1, 0.9849759661865234, 99),
    (0.001, 0.25, 0.9940001270751953, 249),
    (0.001, 1.0, 0.9984512334594726, 967),
    (0.005, 0.01, 0.28700590069580084, 1),
    (0.005, 0.1, 0.9244896986083985, 19),
    (0.005, 0.25, 0.9699153733520507, 49),
    (0.005, 1.0, 0.9924757755737303, 199),
    (0.02, 0.01, 1e-06, 1),
    (0.02, 0.1, 0.6937638553466798, 4),
    (0.02, 0.25, 0.8786981795043944, 12),
    (0.02, 1.0, 0.9699153733520507, 49),
    (0.03, 0.01, 1e-06, 1),
    (0.03, 0.1, 0.5404140942993165, 3),
    (0.03, 0.25, 0.8172973010253907, 8),
    (0.03, 1.0, 0.9547938064575194, 33),
    (0.1, 0.01, 1e-06, 1),
    (0.1, 0.1, 0.049999729248046874, 1),
    (0.1, 0.25, 0.39102764715576177, 2),
    (0.1, 1.0, 0.8480282272949219, 9),
    (0.5, 0.01, 1e-06, 1),
    (0.5, 0.1, 1e-06, 1),
    (0.5, 0.25, 1e-06, 1),
    (0.5, 1.0, 0.28700590069580084, 1),
)


class TestDeriveOccupancyLimit:
    @pytest.mark.parametrize("d, slo, rho_star, depth", PINNED)
    def test_matches_the_pinned_grid(self, d, slo, rho_star, depth):
        limit = derive_occupancy_limit(d, slo)
        assert (limit.rho_star, limit.depth) == (rho_star, depth)

    def test_no_probe_near_saturation_for_a_serving_point(self, monkeypatch):
        # D = 30 ms against a 250 ms SLO puts rho* near 0.82: the costly
        # probes close to rho = 1 must never run.
        probed = []
        p95 = MD1Queue.p95_response_s

        def spy(queue):
            probed.append(queue.utilisation)
            return p95(queue)

        monkeypatch.setattr(MD1Queue, "p95_response_s", spy)
        admission._unit_model.cache_clear()
        try:
            limit = derive_occupancy_limit(0.03, 0.25)
        finally:
            admission._unit_model.cache_clear()
        assert limit.depth == 8
        assert probed and max(probed) <= 0.99

    def test_limit_meets_the_slo_by_construction(self):
        limit = derive_occupancy_limit(0.001, 0.25)
        assert 0.0 < limit.rho_star < 1.0
        assert limit.depth >= 1
        assert limit.p95_at_limit_s <= 0.25

    def test_tighter_slo_means_lower_occupancy(self):
        loose = derive_occupancy_limit(0.001, 0.5)
        tight = derive_occupancy_limit(0.001, 0.01)
        assert tight.rho_star <= loose.rho_star
        assert tight.depth <= loose.depth

    def test_slower_service_means_lower_occupancy(self):
        fast = derive_occupancy_limit(0.001, 0.25)
        slow = derive_occupancy_limit(0.05, 0.25)
        assert slow.rho_star < fast.rho_star
        assert slow.depth <= fast.depth

    def test_matches_the_md1_model_at_the_limit(self):
        limit = derive_occupancy_limit(0.002, 0.1)
        queue = MD1Queue.from_utilisation(limit.rho_star, 0.002)
        assert limit.p95_at_limit_s == pytest.approx(queue.p95_response_s())
        # Just past the limit the model misses the SLO — rho* is maximal.
        beyond = MD1Queue.from_utilisation(
            min(limit.rho_star + 0.01, 0.999), 0.002
        )
        assert beyond.p95_response_s() > 0.1

    def test_service_time_exceeding_slo_admits_one_at_a_time(self):
        # D alone blows the SLO: the queue cannot comply at any occupancy,
        # so the service degrades to serial admission instead of shedding
        # everything.
        limit = derive_occupancy_limit(0.5, 0.1)
        assert limit.depth == 1
        assert limit.p95_at_limit_s > 0.1

    def test_invalid_inputs_raise(self):
        with pytest.raises(ReproError):
            derive_occupancy_limit(0.0, 0.25)
        with pytest.raises(ReproError):
            derive_occupancy_limit(0.001, -1.0)


class TestAdmissionController:
    def test_admits_below_and_sheds_at_the_depth_limit(self):
        ctrl = AdmissionController(slo_p95_s=0.25)
        depth_limit = ctrl.limit.depth
        assert ctrl.admit(0) is True
        assert ctrl.admit(depth_limit - 1) is True
        assert ctrl.admit(depth_limit) is False
        assert ctrl.admitted_total == 2
        assert ctrl.shed_total == 1

    def test_observe_rederives_on_sustained_drift(self):
        ctrl = AdmissionController(slo_p95_s=0.25)  # 1 ms prior
        fast_depth = ctrl.limit.depth
        for _ in range(30):  # EWMA converges onto the 50 ms reality
            ctrl.observe(0.05)
        assert ctrl.rederivations >= 1
        assert ctrl.service_time_estimate_s == pytest.approx(0.05, rel=0.05)
        assert ctrl.limit.depth <= fast_depth

    def test_observe_ignores_garbage_samples(self):
        ctrl = AdmissionController(slo_p95_s=0.25)
        before = ctrl.service_time_estimate_s
        ctrl.observe(-1.0)
        ctrl.observe(0.0)
        ctrl.observe(math.nan)
        assert ctrl.service_time_estimate_s == before
        assert ctrl.rederivations == 0

    def test_stats_document_shape(self):
        ctrl = AdmissionController(slo_p95_s=0.25)
        stats = ctrl.stats()
        assert set(stats) == {
            "depth_limit",
            "rho_star",
            "service_time_estimate_s",
            "slo_p95_s",
            "admitted",
            "shed",
            "rederivations",
        }
