"""Unit tests for re-calibration solve determinism and online time-step selection."""

import numpy as np
import pytest

from repro.calibration.adaptive import select_time_step_online
from repro.core.ialm import rpca_ialm
from repro.core.decompose import decompose
from repro.errors import CalibrationError, ValidationError

MB = 1024 * 1024


class TestSolveDeterminism:
    def test_overlapping_windows_stay_consistent(self, small_trace):
        # Algorithm-1 re-calibrations solve cold on overlapping windows;
        # consecutive constant rows must agree closely (same network).
        tp1 = small_trace.tp_matrix(8 * MB, start=0, count=10)
        tp2 = small_trace.tp_matrix(8 * MB, start=1, count=10)
        from repro.core.decompose import constant_row

        r1 = constant_row(rpca_ialm(tp1.data).low_rank)
        r2 = constant_row(rpca_ialm(tp2.data).low_rank)
        rel = np.abs(r1 - r2)[r1 > 0] / r1[r1 > 0]
        assert np.median(rel) < 0.05

    def test_repeat_solve_identical(self, small_trace):
        tp = small_trace.tp_matrix(8 * MB, start=0, count=10)
        a = rpca_ialm(tp.data)
        b = rpca_ialm(tp.data)
        np.testing.assert_array_equal(a.low_rank, b.low_rank)
        assert a.iterations == b.iterations


class TestOnlineTimeStep:
    def test_selects_reasonable_step(self, small_trace):
        tp = small_trace.tp_matrix(8 * MB)
        res = select_time_step_online(tp, tolerance=0.02)
        assert res.converged
        assert 4 <= res.selected <= tp.n_snapshots
        assert len(res.deltas) == res.selected - 3  # min_step default 3

    def test_calm_trace_converges_immediately(self, calm_trace):
        tp = calm_trace.tp_matrix(8 * MB)
        res = select_time_step_online(tp, tolerance=0.02)
        assert res.converged and res.selected <= 6

    def test_tight_tolerance_needs_more_snapshots(self, small_trace):
        tp = small_trace.tp_matrix(8 * MB)
        loose = select_time_step_online(tp, tolerance=0.05)
        tight = select_time_step_online(tp, tolerance=0.005)
        assert tight.selected >= loose.selected

    def test_budget_exhaustion_reported(self, small_trace):
        tp = small_trace.tp_matrix(8 * MB)
        res = select_time_step_online(tp, tolerance=1e-9, max_step=8)
        assert not res.converged and res.selected == 8

    def test_selected_step_close_to_oracle_estimate(self, small_trace):
        # The step the online rule picks gives a constant row close to the
        # whole-trace oracle — the Fig 5 guarantee, without the oracle.
        from repro.core.metrics import relative_difference

        tp = small_trace.tp_matrix(8 * MB)
        res = select_time_step_online(tp, tolerance=0.02)
        oracle = decompose(tp, solver="row_constant").constant.row
        picked = decompose(
            tp.head(res.selected), solver="row_constant"
        ).constant.row
        assert relative_difference(picked, oracle) < 0.10

    def test_too_few_snapshots_rejected(self, tiny_trace):
        tp = tiny_trace.tp_matrix(8 * MB)  # 10 snapshots
        with pytest.raises(CalibrationError):
            select_time_step_online(tp, min_step=10)

    def test_validation(self, small_trace):
        tp = small_trace.tp_matrix(8 * MB)
        with pytest.raises(ValidationError):
            select_time_step_online(tp, consecutive=0)
        with pytest.raises(ValidationError):
            select_time_step_online(tp, min_step=1)