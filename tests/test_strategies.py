"""Unit tests for the four comparison strategies."""

import numpy as np
import pytest

from repro.cloudsim.bands import BandTiers
from repro.cloudsim.placement import Placement
from repro.core.maintenance import MaintenanceDecision
from repro.core.matrices import TPMatrix
from repro.errors import ValidationError
from repro.strategies.base import Strategy
from repro.strategies.baseline import BaselineStrategy
from repro.strategies.heuristics import HeuristicStrategy
from repro.strategies.rpca import RPCAStrategy
from repro.strategies.topology_aware import TopologyAwareStrategy

MB = 1024 * 1024


def make_tp(trace, nbytes=8 * MB, count=10):
    return trace.tp_matrix(nbytes, start=0, count=count)


class TestBaseline:
    def test_no_estimate(self, small_trace):
        s = BaselineStrategy()
        s.fit(make_tp(small_trace))
        assert s.weight_matrix() is None

    def test_not_network_aware(self):
        s = BaselineStrategy()
        assert not s.is_network_aware
        assert s.tree_algorithm == "binomial"
        assert s.mapping_algorithm == "ring"


class TestHeuristics:
    def test_mean_is_column_mean(self, small_trace):
        s = HeuristicStrategy("mean")
        tp = make_tp(small_trace)
        s.fit(tp)
        w = s.weight_matrix()
        expected = tp.data.mean(axis=0).reshape(8, 8)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(w, expected)

    def test_min_below_mean(self, small_trace):
        tp = make_tp(small_trace)
        m = HeuristicStrategy("mean")
        m.fit(tp)
        lo = HeuristicStrategy("min")
        lo.fit(tp)
        off = ~np.eye(8, dtype=bool)
        assert np.all(lo.weight_matrix()[off] <= m.weight_matrix()[off] + 1e-12)

    def test_ewma_weights_recent(self, small_trace):
        tp = make_tp(small_trace)
        s = HeuristicStrategy("ewma", ewma_alpha=0.9)
        s.fit(tp)
        w = s.weight_matrix().ravel()
        last = tp.data[-1]
        first = tp.data[0]
        off = last > 0
        # With alpha 0.9 the estimate hugs the last snapshot.
        assert np.abs(w[off] - last[off]).mean() < np.abs(w[off] - first[off]).mean()

    def test_percentile_kind(self, small_trace):
        tp = make_tp(small_trace)
        p50 = HeuristicStrategy("percentile", percentile=50.0)
        p50.fit(tp)
        expected = np.percentile(tp.data, 50.0, axis=0).reshape(8, 8)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(p50.weight_matrix(), expected)

    def test_percentile_ordering(self, small_trace):
        tp = make_tp(small_trace)
        lo = HeuristicStrategy("percentile", percentile=25.0)
        hi = HeuristicStrategy("percentile", percentile=90.0)
        lo.fit(tp)
        hi.fit(tp)
        off = ~np.eye(8, dtype=bool)
        assert np.all(lo.weight_matrix()[off] <= hi.weight_matrix()[off] + 1e-12)

    def test_percentile_validated(self):
        with pytest.raises(ValidationError):
            HeuristicStrategy("percentile", percentile=150.0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            HeuristicStrategy("max")

    def test_fit_required(self):
        with pytest.raises(ValidationError, match="fit"):
            HeuristicStrategy("mean").weight_matrix()

    def test_names(self):
        assert HeuristicStrategy("mean").name == "Heuristics"
        assert HeuristicStrategy("min").name == "Heuristics-min"

    def test_is_network_aware(self):
        assert HeuristicStrategy("mean").is_network_aware


class TestRPCA:
    def test_fit_and_estimate(self, small_trace):
        s = RPCAStrategy("ialm", time_step=10)
        s.fit(make_tp(small_trace, count=15))
        w = s.weight_matrix()
        assert w.shape == (8, 8)
        off = ~np.eye(8, dtype=bool)
        assert np.all(w[off] > 0)

    def test_time_step_uses_newest_rows(self, small_trace):
        tp = make_tp(small_trace, count=20)
        s_all = RPCAStrategy("row_constant", time_step=20)
        s_all.fit(tp)
        s_tail = RPCAStrategy("row_constant", time_step=5)
        s_tail.fit(tp)
        tail_tp = TPMatrix(
            data=tp.data[15:].copy(), n_machines=8, timestamps=tp.timestamps[15:].copy()
        )
        expected = np.median(tail_tp.data, axis=0).reshape(8, 8)
        off = ~np.eye(8, dtype=bool)
        got = s_tail.weight_matrix()
        np.testing.assert_allclose(got[off], expected[off])
        assert not np.allclose(s_all.weight_matrix()[off], got[off])

    def test_norm_ne_exposed(self, small_trace):
        s = RPCAStrategy("ialm")
        s.fit(make_tp(small_trace))
        assert 0.0 < s.norm_ne < 1.0

    def test_observe_delegates_to_controller(self, small_trace):
        s = RPCAStrategy("ialm", threshold=0.5)
        assert s.observe(1.0, 1.2) is MaintenanceDecision.KEEP
        assert s.observe(1.0, 2.0) is MaintenanceDecision.RECALIBRATE

    def test_fit_required(self):
        s = RPCAStrategy()
        with pytest.raises(ValidationError):
            s.weight_matrix()
        with pytest.raises(ValidationError):
            _ = s.norm_ne

    def test_name_defaults_and_override(self):
        assert RPCAStrategy().name == "RPCA"
        assert RPCAStrategy("row_constant").name == "RPCA"  # same arm, different solver
        assert RPCAStrategy("ialm", name="RPCA-ialm").name == "RPCA-ialm"

    def test_bad_time_step(self):
        with pytest.raises(ValidationError):
            RPCAStrategy(time_step=0)


class TestTopologyAware:
    def _placement(self):
        return Placement(
            racks=np.array([0, 0, 1, 1]), n_racks_total=4, servers_per_rack=4
        )

    def test_same_rack_preferred(self):
        s = TopologyAwareStrategy(self._placement(), nbytes=8 * MB)
        w = s.weight_matrix()
        assert w[0, 1] < w[0, 2]  # same rack beats cross rack

    def test_static_across_fits(self, small_trace):
        p = Placement(
            racks=np.arange(8) // 2, n_racks_total=8, servers_per_rack=4
        )
        s = TopologyAwareStrategy(p, nbytes=8 * MB)
        w1 = s.weight_matrix()
        s.fit(make_tp(small_trace))
        np.testing.assert_array_equal(w1, s.weight_matrix())

    def test_custom_tiers(self):
        tiers = BandTiers(
            same_rack_bandwidth=2e8,
            cross_rack_bandwidth=1e8,
            same_rack_latency=1e-4,
            cross_rack_latency=2e-4,
            jitter_sigma=0.0,
        )
        s = TopologyAwareStrategy(self._placement(), nbytes=1e8, tiers=tiers)
        w = s.weight_matrix()
        assert w[0, 1] == pytest.approx(1e-4 + 0.5)
        assert w[0, 2] == pytest.approx(2e-4 + 1.0)

    def test_is_network_aware(self):
        s = TopologyAwareStrategy(self._placement(), nbytes=1.0)
        assert s.is_network_aware


class TestStrategyProtocol:
    def test_all_are_strategies(self, small_trace):
        p = Placement(racks=np.array([0, 1]), n_racks_total=2, servers_per_rack=2)
        arms = [
            BaselineStrategy(),
            HeuristicStrategy("mean"),
            RPCAStrategy("row_constant"),
            TopologyAwareStrategy(p, nbytes=1.0),
        ]
        for arm in arms:
            assert isinstance(arm, Strategy)
            assert arm.tree_algorithm in ("binomial", "fnf")
            assert arm.mapping_algorithm in ("ring", "greedy")
