"""Unit tests for the high-level TP → (TC, TE) decomposition."""

import pickle

import numpy as np
import pytest

from repro.core.decompose import Decomposition, constant_row, decompose
from repro.core.matrices import TPMatrix
from repro.core.metrics import stability_report
from repro.errors import ValidationError


def make_tp(n=5, rows=12, noise=0.05, seed=0):
    """Row-constant ground truth + mild noise, as a TPMatrix."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    flat = base.ravel()
    data = np.tile(flat, (rows, 1))
    data += noise * rng.standard_normal(data.shape) * (flat > 0)
    data = np.abs(data)
    return TPMatrix(data=data, n_machines=n), flat


class TestConstantRow:
    def test_mean_of_row_constant(self):
        row = np.array([1.0, 2.0, 3.0])
        d = np.tile(row, (4, 1))
        np.testing.assert_allclose(constant_row(d, method="mean"), row)

    def test_top_sv_of_row_constant(self):
        row = np.array([1.0, 2.0, 3.0])
        d = np.tile(row, (4, 1))
        np.testing.assert_allclose(constant_row(d, method="top_sv"), row, atol=1e-12)

    def test_top_sv_of_zero(self):
        np.testing.assert_array_equal(constant_row(np.zeros((3, 4)), method="top_sv"), 0)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            constant_row(np.ones((2, 2)), method="magic")

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            constant_row(np.ones(5))

    def test_methods_agree_on_near_rank_one(self):
        rng = np.random.default_rng(1)
        row = rng.uniform(1, 2, size=10)
        d = np.tile(row, (6, 1)) * rng.uniform(0.99, 1.01, size=(6, 1))
        a = constant_row(d, method="mean")
        b = constant_row(d, method="top_sv")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.02


class TestDecompose:
    @pytest.mark.parametrize("solver", ["apg", "ialm", "row_constant"])
    def test_recovers_constant_row(self, solver):
        tp, truth = make_tp()
        dec = decompose(tp, solver=solver)
        off = truth > 0
        rel = np.abs(dec.constant.row[off] - truth[off]) / truth[off]
        assert np.median(rel) < 0.05

    def test_residual_identity(self):
        tp, _ = make_tp(seed=2)
        dec = decompose(tp, solver="row_constant")
        np.testing.assert_allclose(
            dec.constant.as_matrix() + dec.error.data, tp.data, atol=1e-12
        )

    def test_norm_ne_scales_with_noise(self):
        tp_low, _ = make_tp(noise=0.02, seed=3)
        tp_high, _ = make_tp(noise=0.3, seed=3)
        lo = decompose(tp_low, solver="row_constant").norm_ne
        hi = decompose(tp_high, solver="row_constant").norm_ne
        assert lo < hi

    def test_performance_matrix_is_valid(self):
        tp, _ = make_tp(seed=4)
        pm = decompose(tp).performance_matrix()
        assert pm.n_machines == tp.n_machines
        off = ~np.eye(pm.n_machines, dtype=bool)
        assert np.all(pm.weights[off] > 0)

    def test_result_metadata(self):
        tp, _ = make_tp(seed=5)
        dec = decompose(tp, solver="apg")
        assert isinstance(dec, Decomposition)
        assert dec.solver == "apg"
        assert dec.solver_iterations >= 1

    def test_extraction_choice_passed(self):
        tp, _ = make_tp(seed=6)
        a = decompose(tp, extraction="mean").constant.row
        b = decompose(tp, extraction="top_sv").constant.row
        # Both near the truth, not identical.
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.05

    def test_error_defined_against_used_component(self):
        # Norm(N_E) must reflect the row-constant matrix used downstream,
        # not the solver's internal (possibly higher-rank) D.
        tp, _ = make_tp(noise=0.1, seed=7)
        dec = decompose(tp, solver="apg")
        expected = np.abs(tp.data - dec.constant.as_matrix()).sum() / np.abs(tp.data).sum()
        assert dec.norm_ne == pytest.approx(expected)


def _eager_error_and_report(tp, dec):
    """The error component and stability report as decompose() built them
    before they became lazy — the formula the lazy build must reproduce."""
    tc = dec.constant
    data = tp.data
    if tp.mask is not None:
        data = np.where(tp.mask, data, tc.as_matrix())
    err = data - tc.as_matrix()
    rank = dec.solver_result.rank
    return err, stability_report(err, data, rank=rank)


class TestLazyErrorAndReport:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("solver", ["apg", "ialm"])
    def test_lazy_build_equals_eager_formula(self, solver, masked):
        tp, _ = make_tp(noise=0.1, seed=8)
        if masked:
            mask = np.random.default_rng(8).random(tp.data.shape) > 0.2
            tp = TPMatrix(data=tp.data, n_machines=tp.n_machines, mask=mask)
            assert tp.mask is not None
        dec = decompose(tp, solver=solver)
        err, report = _eager_error_and_report(tp, dec)
        # Report first on one decomposition, error first on another: either
        # read builds both, from the same inputs.
        assert dec.report == report
        assert dec.error.data.tobytes() == err.tobytes()
        again = decompose(tp, solver=solver)
        assert again.error.data.tobytes() == err.tobytes()
        assert again.report == report
        assert again.norm_ne == report.norm_ne

    def test_reads_return_the_same_objects(self):
        tp, _ = make_tp(seed=9)
        dec = decompose(tp)
        assert dec.error is dec.error
        assert dec.error.data is dec.error.data
        assert dec.report is dec.report

    def test_explicit_components_skip_the_window(self):
        tp, _ = make_tp(seed=10)
        dec = decompose(tp)
        restored = Decomposition(
            constant=dec.constant, error=dec.error, report=dec.report,
            solver=dec.solver, solver_iterations=dec.solver_iterations,
            solver_converged=dec.solver_converged,
        )
        assert restored.error is dec.error
        assert restored.report is dec.report
        with pytest.raises(ValidationError, match="error and report"):
            Decomposition(constant=dec.constant, solver="apg")

    def test_pickle_round_trip_before_and_after_the_build(self):
        tp, _ = make_tp(seed=11)
        lazy = pickle.loads(pickle.dumps(decompose(tp)))
        built = decompose(tp)
        built.report  # noqa: B018 — force the build before pickling
        built = pickle.loads(pickle.dumps(built))
        assert lazy.report == built.report
        assert lazy.error.data.tobytes() == built.error.data.tobytes()
