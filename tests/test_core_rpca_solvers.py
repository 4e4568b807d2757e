"""Unit tests for the RPCA solvers (IALM, row-constant) and their registry.

The canonical recovery scenario: a ground-truth low-rank matrix plus sparse
corruption; a correct solver separates the two to good accuracy.
"""

import numpy as np
import pytest

from repro.core.ialm import IALMResult, default_lambda, rpca_ialm
from repro.core.row_constant import row_constant_decomposition
from repro.core.solvers import (
    available_solvers,
    register_solver,
    resolve_solver,
    solve_rpca,
)
from repro.errors import ConvergenceError, ValidationError


def make_low_rank_plus_sparse(m=30, n=40, rank=2, sparsity=0.05, seed=0):
    rng = np.random.default_rng(seed)
    low = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    mask = rng.random((m, n)) < sparsity
    sparse = np.where(mask, rng.standard_normal((m, n)) * 5.0, 0.0)
    return low, sparse


def solve_as_apg(a, **kwargs):
    """Solve *a* under the retired name ``"apg"``, asserting its one warning."""
    with pytest.warns(RuntimeWarning, match="retired") as record:
        res = solve_rpca(a, solver="apg", **kwargs)
    assert len(record) == 1
    return res


class TestAPG:
    """The retired name ``"apg"`` still solves, on IALM, with the keywords
    old callers pass (``bench/workloads.py`` ``FASTEST`` is one of them)."""

    def test_recovers_low_rank_plus_sparse(self):
        low, sparse = make_low_rank_plus_sparse()
        res = solve_as_apg(low + sparse, max_iter=800)
        assert res.converged
        err_low = np.linalg.norm(res.low_rank - low) / np.linalg.norm(low)
        assert err_low < 0.05
        # Sparse support recovered: large corruption entries show up in E.
        big = np.abs(sparse) > 2.0
        assert np.all(np.abs(res.sparse[big]) > 0.1)

    def test_sum_is_close_to_input(self):
        low, sparse = make_low_rank_plus_sparse(seed=1)
        a = low + sparse
        res = solve_as_apg(a)
        assert np.linalg.norm(res.low_rank + res.sparse - a) / np.linalg.norm(a) < 0.05

    def test_zero_matrix(self):
        res = solve_as_apg(np.zeros((5, 6)))
        assert res.converged and res.rank == 0 and res.iterations == 0
        np.testing.assert_array_equal(res.low_rank, 0)
        np.testing.assert_array_equal(res.sparse, 0)

    def test_result_type(self):
        res = solve_as_apg(np.eye(4))
        assert isinstance(res, IALMResult)

    def test_raise_on_fail(self):
        low, sparse = make_low_rank_plus_sparse()
        with pytest.warns(RuntimeWarning, match="retired"):
            with pytest.raises(ConvergenceError) as exc:
                solve_rpca(
                    low + sparse, solver="apg", max_iter=2, tol=1e-14,
                    raise_on_fail=True,
                )
        assert exc.value.iterations == 2
        assert exc.value.residual > 0


class TestIALM:
    def test_recovers_low_rank_plus_sparse(self):
        low, sparse = make_low_rank_plus_sparse(seed=4)
        res = rpca_ialm(low + sparse)
        assert res.converged
        err = np.linalg.norm(res.low_rank - low) / np.linalg.norm(low)
        assert err < 0.05
        # Sparse support recovered: large corruption entries show up in E.
        big = np.abs(sparse) > 2.0
        assert np.all(np.abs(res.sparse[big]) > 0.1)

    def test_feasibility(self):
        low, sparse = make_low_rank_plus_sparse(seed=5)
        a = low + sparse
        res = rpca_ialm(a, tol=1e-8)
        assert np.linalg.norm(res.low_rank + res.sparse - a) / np.linalg.norm(a) < 1e-6

    def test_zero_matrix(self):
        res = rpca_ialm(np.zeros((4, 4)))
        assert res.converged and res.rank == 0 and res.iterations == 0
        np.testing.assert_array_equal(res.low_rank, 0)
        np.testing.assert_array_equal(res.sparse, 0)

    def test_pure_low_rank_yields_small_sparse(self):
        low, _ = make_low_rank_plus_sparse(sparsity=0.0, seed=2)
        res = rpca_ialm(low)
        assert np.abs(res.sparse).sum() / np.abs(low).sum() < 0.02

    def test_rank_one_input_detected(self):
        rng = np.random.default_rng(3)
        a = np.outer(np.ones(10), rng.uniform(1, 2, size=12))
        res = rpca_ialm(a)
        assert res.rank == 1

    def test_result_type(self):
        assert isinstance(rpca_ialm(np.eye(4)), IALMResult)

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            rpca_ialm(np.eye(3), rho=0.9)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValidationError):
            rpca_ialm(np.eye(3), lam=-1.0)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(ValidationError):
            rpca_ialm(a)

    def test_raise_on_fail(self):
        low, sparse = make_low_rank_plus_sparse(seed=6)
        with pytest.raises(ConvergenceError) as exc:
            rpca_ialm(low + sparse, max_iter=1, tol=1e-15, raise_on_fail=True)
        assert exc.value.iterations == 1
        assert exc.value.residual > 0

    def test_no_raise_by_default(self):
        low, sparse = make_low_rank_plus_sparse()
        res = rpca_ialm(low + sparse, max_iter=2, tol=1e-14)
        assert not res.converged and res.iterations == 2

    def test_default_lambda(self):
        assert default_lambda((4, 25)) == pytest.approx(0.2)
        assert default_lambda((25, 4)) == pytest.approx(0.2)


class TestRowConstant:
    def test_exact_split(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(1, 2, size=(7, 9))
        res = row_constant_decomposition(a)
        np.testing.assert_allclose(res.low_rank + res.sparse, a, atol=1e-14)

    def test_rows_all_equal(self):
        a = np.random.default_rng(9).uniform(size=(5, 6))
        res = row_constant_decomposition(a)
        for k in range(5):
            np.testing.assert_array_equal(res.low_rank[k], res.constant_row)

    def test_column_median(self):
        a = np.array([[1.0, 10.0], [2.0, 20.0], [9.0, 30.0]])
        res = row_constant_decomposition(a)
        np.testing.assert_array_equal(res.constant_row, [2.0, 20.0])

    def test_row_constant_input_gives_zero_sparse(self):
        row = np.array([3.0, 1.0, 4.0])
        a = np.tile(row, (6, 1))
        res = row_constant_decomposition(a)
        np.testing.assert_array_equal(res.sparse, np.zeros_like(a))
        assert res.rank == 1

    def test_zero_matrix_rank(self):
        res = row_constant_decomposition(np.zeros((3, 3)))
        assert res.rank == 0

    def test_median_is_l1_optimal(self):
        # For each column, the constant minimizing sum |a_kj - c| is the median.
        rng = np.random.default_rng(10)
        a = rng.standard_normal((9, 4))
        res = row_constant_decomposition(a)
        for j in range(4):
            c_star = res.constant_row[j]
            best = np.abs(a[:, j] - c_star).sum()
            for c in np.linspace(a[:, j].min(), a[:, j].max(), 101):
                assert best <= np.abs(a[:, j] - c).sum() + 1e-9


class TestSolverRegistry:
    def test_available(self):
        names = available_solvers()
        assert {"ialm", "row_constant"} <= set(names)
        assert "apg" not in names

    def test_dispatch(self):
        a = np.random.default_rng(11).uniform(1, 2, size=(6, 8))
        for name in ("ialm", "row_constant"):
            res = solve_rpca(a, solver=name)
            assert res.low_rank.shape == a.shape
            assert res.sparse.shape == a.shape

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown RPCA solver"):
            solve_rpca(np.eye(3), solver="nope")

    def test_kwargs_forwarded(self):
        a = np.random.default_rng(11).uniform(1, 2, size=(6, 8))
        res = solve_rpca(a, solver="ialm", max_iter=5, tol=1e-20)
        assert res.iterations == 5

    def test_register_custom(self):
        calls = []

        def fake(a, **kw):
            calls.append(a.shape)
            return row_constant_decomposition(a)

        register_solver("fake_for_test", fake)
        solve_rpca(np.ones((2, 3)), solver="fake_for_test")
        assert calls == [(2, 3)]

    def test_register_non_callable_rejected(self):
        with pytest.raises(TypeError):
            register_solver("bad", 42)

    def test_legacy_apg_name_resolves_to_ialm(self):
        a = np.random.default_rng(12).uniform(1, 2, size=(6, 8))
        with pytest.warns(RuntimeWarning, match="retired") as record:
            res = solve_rpca(a, solver="apg")
        assert len(record) == 1
        want = solve_rpca(a, solver="ialm")
        assert np.array_equal(res.low_rank, want.low_rank)
        assert resolve_solver("ialm") == "ialm"
