"""Masked (partial-observation) RPCA and its plumbing through the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.engine import DecompositionEngine
from repro.core.ialm import rpca_ialm, validate_mask
from repro.core.matrices import TPMatrix
from repro.errors import CalibrationError, ConvergenceError, ValidationError
from repro.faults import ProbeLoss, VMOutage, inject_faults

MB = 1024 * 1024


def _masked_tp(trace, nbytes=8 * MB, loss=0.1, seed=0, **inject_kw):
    inj = inject_faults(trace, [ProbeLoss(loss)], seed=seed, **inject_kw)
    return trace.tp_matrix(nbytes), inj.trace.tp_matrix(nbytes)


class TestValidateMask:
    def test_none_and_all_true_normalize_to_none(self):
        assert validate_mask(None, (3, 4)) is None
        assert validate_mask(np.ones((3, 4), dtype=bool), (3, 4)) is None

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValidationError):
            validate_mask(np.ones((3, 4)), (3, 4))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            validate_mask(np.ones((2, 4), dtype=bool), (3, 4))

    def test_all_false_rejected(self):
        with pytest.raises(ValidationError):
            validate_mask(np.zeros((3, 4), dtype=bool), (3, 4))


class TestTPMatrixMask:
    def test_all_true_mask_normalized_away(self, tiny_trace):
        tp = tiny_trace.tp_matrix(8 * MB)
        masked = TPMatrix(
            data=tp.data,
            n_machines=tp.n_machines,
            timestamps=tp.timestamps,
            mask=np.ones_like(tp.data, dtype=bool),
        )
        assert masked.mask is None
        assert masked.observed_fraction == 1.0

    def test_observed_fraction_counts_off_diagonal_only(self, tiny_trace):
        full, masked = _masked_tp(tiny_trace, loss=0.2, seed=1)
        assert masked.mask is not None
        n = masked.n_machines
        off = ~np.eye(n, dtype=bool).ravel()
        expect = masked.mask[:, off].mean()
        assert masked.observed_fraction == pytest.approx(expect)
        fracs = masked.row_observed_fractions()
        assert fracs.shape == (masked.n_snapshots,)
        assert np.mean(fracs) == pytest.approx(masked.observed_fraction)

    def test_head_slices_mask(self, tiny_trace):
        _, masked = _masked_tp(tiny_trace, loss=0.2, seed=1)
        head = masked.head(3)
        assert head.mask is not None
        assert np.array_equal(head.mask, masked.mask[:3])


class TestMaskedSolvers:
    @pytest.mark.parametrize("solver_fn", [rpca_ialm])
    def test_all_true_mask_is_bitwise_identical_to_unmasked(
        self, tiny_trace, solver_fn
    ):
        tp = tiny_trace.tp_matrix(8 * MB)
        plain = solver_fn(tp.data)
        masked = solver_fn(tp.data, mask=np.ones_like(tp.data, dtype=bool))
        assert np.array_equal(plain.low_rank, masked.low_rank)
        assert np.array_equal(plain.sparse, masked.sparse)
        assert plain.iterations == masked.iterations

    @pytest.mark.parametrize("solver", ["ialm"])
    @pytest.mark.parametrize("loss", [0.1, 0.2])
    def test_masked_constant_row_within_5pct_of_full(self, solver, loss):
        # Acceptance criterion: with <= 20% of entries missing, the masked
        # decomposition recovers P_D within 5% of the full decomposition.
        trace = generate_trace(TraceConfig(n_machines=12, n_snapshots=12), seed=21)
        full, masked = _masked_tp(trace, loss=loss, seed=2)
        assert masked.observed_fraction >= 1.0 - loss - 0.05
        ref = decompose(full, solver=solver).constant.row
        got = decompose(masked, solver=solver).constant.row
        rel = np.abs(got - ref).sum() / np.abs(ref).sum()
        assert rel < 0.05

    @pytest.mark.parametrize("solver_fn", [rpca_ialm])
    def test_sparse_term_supported_on_observed_set(self, tiny_trace, solver_fn):
        _, masked = _masked_tp(tiny_trace, loss=0.2, seed=3)
        res = solver_fn(masked.data, mask=masked.mask)
        assert np.all(res.sparse[~masked.mask] == 0.0)

    @pytest.mark.parametrize("solver_fn", [rpca_ialm])
    def test_convergence_error_on_exhausted_budget(self, tiny_trace, solver_fn):
        _, masked = _masked_tp(tiny_trace, loss=0.15, seed=4)
        with pytest.raises(ConvergenceError) as exc:
            solver_fn(
                masked.data, mask=masked.mask,
                max_iter=1, tol=1e-12, raise_on_fail=True,
            )
        assert exc.value.iterations == 1
        assert exc.value.residual > 0


class TestMaskedDecompose:
    def test_mask_unaware_solver_rejected(self, tiny_trace):
        _, masked = _masked_tp(tiny_trace, loss=0.1, seed=5)
        with pytest.raises(ValidationError, match="mask-aware"):
            decompose(masked, solver="row_constant")

    def test_report_treats_holes_as_on_constant(self, tiny_trace):
        _, masked = _masked_tp(tiny_trace, loss=0.2, seed=5)
        dec = decompose(masked)
        err = dec.error.data
        assert np.all(err[~masked.mask] == 0.0)

    def test_unmasked_decompose_unchanged(self, tiny_trace):
        # The masked machinery must not touch the fully-observed path.
        tp = tiny_trace.tp_matrix(8 * MB)
        a = decompose(tp)
        b = decompose(tp)
        assert np.array_equal(a.constant.row, b.constant.row)


class TestEngineMaskedWindows:
    def test_windows_carry_trace_mask(self, small_trace):
        inj = inject_faults(small_trace, [ProbeLoss(0.1)], seed=6)
        eng = DecompositionEngine(inj.trace, nbytes=8 * MB, time_step=10)
        tp = eng.window(0, 10)
        assert tp.mask is not None
        expect = inj.trace.mask[:10].reshape(10, -1)
        assert np.array_equal(tp.mask, expect)
        assert eng.instrumentation.counters.get("engine.window.masked_rows", 0) > 0
        dec = eng.solve(tp)
        assert eng.instrumentation.counters.get("engine.solve.masked") == 1
        assert dec.solver_converged

    def test_snapshot_threshold_rejects_dark_window(self, small_trace):
        inj = inject_faults(
            small_trace, [VMOutage(machine=2, start=3, duration=2)], seed=6
        )
        eng = DecompositionEngine(
            inj.trace, nbytes=8 * MB, time_step=10, min_snapshot_observed=0.9
        )
        with pytest.raises(CalibrationError, match="snapshot 3"):
            eng.window(0, 10)
        assert eng.instrumentation.counters["engine.window.rejected"] == 1
        # windows avoiding the outage pass
        assert eng.window(5, 10).n_snapshots == 5

    def test_window_threshold_rejects_sparse_window(self, small_trace):
        inj = inject_faults(small_trace, [ProbeLoss(0.3)], seed=7)
        eng = DecompositionEngine(
            inj.trace, nbytes=8 * MB, time_step=10, min_window_observed=0.95
        )
        with pytest.raises(CalibrationError, match="window"):
            eng.window(0, 10)

    def test_empty_window_rejected(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB, time_step=10)
        with pytest.raises(ValidationError):
            eng.window(5, 5)

    def test_cold_full_observation_path_is_bitwise_stable(self, small_trace):
        # Re-calibrations over a fully-observed trace must equal the direct
        # decompose of trace.tp_matrix — every solve is cold.
        eng = DecompositionEngine(small_trace, nbytes=8 * MB, time_step=10)
        for end in (10, 12, 15):
            via_engine = eng.calibrate(end)
            direct = decompose(
                small_trace.tp_matrix(8 * MB, start=end - 10, count=10)
            )
            assert np.array_equal(via_engine.constant.row, direct.constant.row)
            assert np.array_equal(via_engine.error.data, direct.error.data)
