"""Integration tests: the paper's walk-throughs and the end-to-end pipeline."""

import numpy as np
import pytest

from repro import (
    BaselineStrategy,
    HeuristicStrategy,
    RPCAStrategy,
    TraceConfig,
    decompose,
    fnf_tree,
    generate_trace,
)
from repro.calibration.calibrator import Calibrator, TraceSubstrate
from repro.cloudsim.dynamics import DynamicsConfig
from repro.collectives.exec_model import broadcast_time, weights_to_alphabeta
from repro.core.maintenance import MaintenanceController, MaintenanceDecision
from repro.core.matrices import TPMatrix
from repro.experiments.harness import ReplayContext, collective_comparison

MB = 1024 * 1024


class TestPaperFig2WalkThrough:
    """Paper Fig 2: a 4-machine cluster, five calibrations, RPCA split."""

    def make_tp(self):
        # A fixed 4-machine topology-like weight pattern plus one-off errors
        # (the paper's example: mostly constant rows with a few deviations).
        base = np.array(
            [
                [0.0, 2.0, 5.0, 5.0],
                [2.0, 0.0, 5.0, 5.0],
                [5.0, 5.0, 0.0, 3.0],
                [5.0, 5.0, 3.0, 0.0],
            ]
        ).ravel()
        rows = np.tile(base, (5, 1))
        rows[1, 2] += 4.0  # transient interference on link (0, 2)
        rows[3, 7] += 2.0  # and on link (1, 3)
        return TPMatrix(data=rows, n_machines=4)

    def test_constant_component_recovers_base(self):
        tp = self.make_tp()
        dec = decompose(tp, solver="ialm")
        base = tp.data[0].copy()
        base[2] -= 0.0  # row 0 is clean
        # The constant row should be (close to) the uncorrupted pattern.
        np.testing.assert_allclose(dec.constant.row, base, atol=0.35)

    def test_error_component_is_sparse_and_localized(self):
        tp = self.make_tp()
        dec = decompose(tp, solver="row_constant")
        err = dec.error.data
        # The two injected cells dominate the error mass.
        injected = abs(err[1, 2]) + abs(err[3, 7])
        assert injected / (np.abs(err).sum() + 1e-12) > 0.9

    def test_sum_identity(self):
        tp = self.make_tp()
        dec = decompose(tp, solver="row_constant")
        np.testing.assert_allclose(
            dec.constant.as_matrix() + dec.error.data, tp.data, atol=1e-12
        )

    def test_fnf_on_recovered_constant(self):
        tp = self.make_tp()
        pm = decompose(tp, solver="row_constant").performance_matrix()
        tree = fnf_tree(pm.weights, 0)
        # Machine 1 is machine 0's best link in the constant component.
        assert tree.children[0][0] == 1


class TestEndToEndPipeline:
    """Calibrate → decompose → optimize → replay → maintain, in one flow."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(TraceConfig(n_machines=10, n_snapshots=30), seed=3)

    def test_calibrator_to_decomposition(self, trace):
        cal = Calibrator(TraceSubstrate(trace))
        tp = cal.calibrate(range(10), nbytes=8 * MB)
        dec = decompose(tp, solver="ialm")
        assert dec.report.verdict in ("stable", "moderately-stable")
        assert dec.solver_converged

    def test_full_comparison_pipeline(self, trace):
        ctx = ReplayContext(trace=trace, time_step=10)
        arms = [
            BaselineStrategy(),
            HeuristicStrategy("mean"),
            RPCAStrategy("ialm", time_step=10),
        ]
        res = collective_comparison(ctx, arms, repetitions=30, seed=0)
        # The paper's headline ordering on a stable network.
        assert res.mean("RPCA") < res.mean("Baseline")
        assert res.improvement("RPCA", "Baseline") > 0.1

    def test_maintenance_loop_detects_regime_change(self):
        # Two regimes glued together: the constant component moves at t=15.
        from repro.cloudsim.bands import BandTiers

        cfg_a = TraceConfig(
            n_machines=8,
            n_snapshots=15,
            dynamics=DynamicsConfig(volatility_sigma=0.05, spike_probability=0.0),
        )
        a = generate_trace(cfg_a, seed=1)
        # New regime: the cluster's links degrade sharply (e.g. VMs migrated
        # behind a congested aggregation layer).
        cfg_b = TraceConfig(
            n_machines=8,
            n_snapshots=15,
            dynamics=cfg_a.dynamics,
            tiers=BandTiers(
                same_rack_bandwidth=125e6 / 4, cross_rack_bandwidth=50e6 / 4
            ),
        )
        b = generate_trace(cfg_b, seed=2)
        controller = MaintenanceController(threshold=1.0)
        tp = a.tp_matrix(8 * MB, start=0, count=10)
        weights = decompose(tp, solver="row_constant").performance_matrix().weights
        tree = fnf_tree(weights, 0)
        ea, eb = weights_to_alphabeta(weights, 8 * MB)
        expected = broadcast_time(tree, ea, eb, 8 * MB)

        decisions = []
        for k in range(10, 15):
            obs = broadcast_time(tree, a.alpha[k], a.beta[k], 8 * MB)
            decisions.append(controller.observe(expected, obs))
        # Same regime: no recalibration.
        assert all(d is MaintenanceDecision.KEEP for d in decisions)

        fired = False
        for k in range(15):
            obs = broadcast_time(tree, b.alpha[k], b.beta[k], 8 * MB)
            if controller.observe(expected, obs) is MaintenanceDecision.RECALIBRATE:
                fired = True
                break
        assert fired, "regime change went undetected"

    def test_subcluster_reuse(self, trace):
        # Algorithm 1 line 3: optimize an operation on C' ⊆ C using the
        # full cluster's constant component.
        tp = trace.tp_matrix(8 * MB, start=0, count=10)
        pm = decompose(tp, solver="ialm").performance_matrix()
        sub = pm.restrict([0, 2, 4, 6])
        tree = fnf_tree(sub.weights, 0)
        assert tree.n_nodes == 4

    def test_public_api_quickstart(self):
        # The README quickstart, verbatim.
        import repro

        trace = repro.generate_trace(
            repro.TraceConfig(n_machines=8, n_snapshots=12), seed=0
        )
        tp = trace.tp_matrix(nbytes=8 << 20)
        dec = repro.decompose(tp)
        assert dec.report.verdict in {
            "stable",
            "moderately-stable",
            "dynamic",
            "too-dynamic",
        }
        tree = repro.fnf_tree(dec.performance_matrix().weights, 0)
        assert tree.n_nodes == 8
