"""Unit tests for the non-robust PCA baseline and its contrast with RPCA."""

import numpy as np
import pytest

from repro.core.decompose import decompose
from repro.core.matrices import TPMatrix
from repro.core.pca import pca_rank1_decomposition
from repro.core.solvers import available_solvers, solve_rpca


class TestPCARank1:
    def test_rank_one_input_exact(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(1, 2, size=12)
        a = np.outer(rng.uniform(0.9, 1.1, size=6), row)
        res = pca_rank1_decomposition(a)
        np.testing.assert_allclose(res.low_rank, a, atol=1e-10)
        np.testing.assert_allclose(res.sparse, 0.0, atol=1e-10)
        assert res.rank == 1

    def test_zero_matrix(self):
        res = pca_rank1_decomposition(np.zeros((4, 5)))
        assert res.rank == 0 and res.converged

    def test_additive_split(self):
        a = np.random.default_rng(1).uniform(1, 3, size=(5, 8))
        res = pca_rank1_decomposition(a)
        np.testing.assert_allclose(res.low_rank + res.sparse, a, atol=1e-10)

    def test_best_rank_one_in_frobenius(self):
        # Eckart-Young: no rank-1 matrix is closer in Frobenius norm.
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 7))
        res = pca_rank1_decomposition(a)
        best = np.linalg.norm(a - res.low_rank)
        for _ in range(20):
            u = rng.standard_normal(6)
            v = rng.standard_normal(7)
            cand = np.outer(u, v)
            # Optimal scaling of the candidate direction:
            scale = float((a * cand).sum() / (cand * cand).sum())
            assert np.linalg.norm(a - scale * cand) >= best - 1e-9

    def test_registered_in_solver_registry(self):
        assert "pca" in available_solvers()
        a = np.random.default_rng(3).uniform(1, 2, size=(4, 9))
        res = solve_rpca(a, solver="pca")
        assert res.rank in (0, 1)


class TestPCAVsRPCARobustness:
    """The paper's Sec II-B motivation: PCA is dragged by gross errors."""

    def make_tp_with_outlier(self, outlier_scale):
        rng = np.random.default_rng(4)
        n = 6
        base = rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(base, 0.0)
        flat = base.ravel()
        data = np.tile(flat, (10, 1))
        data += 0.02 * rng.standard_normal(data.shape) * (flat > 0)
        # One catastrophic snapshot (e.g. the cluster hit a congestion storm).
        data[3] = flat * outlier_scale
        return TPMatrix(data=np.abs(data), n_machines=n), flat

    def test_pca_dragged_rpca_robust(self):
        tp, truth = self.make_tp_with_outlier(outlier_scale=8.0)
        off = truth > 0
        pca_row = decompose(tp, solver="pca").constant.row
        rpca_row = decompose(tp, solver="row_constant").constant.row
        pca_err = np.abs(pca_row[off] - truth[off]) / truth[off]
        rpca_err = np.abs(rpca_row[off] - truth[off]) / truth[off]
        # The outlier inflates PCA's row badly; the robust row barely moves.
        assert np.median(rpca_err) < 0.05
        assert np.median(pca_err) > 3 * np.median(rpca_err)

    def test_agree_without_outliers(self):
        tp, truth = self.make_tp_with_outlier(outlier_scale=1.0)
        off = truth > 0
        pca_row = decompose(tp, solver="pca").constant.row
        rpca_row = decompose(tp, solver="ialm").constant.row
        rel = np.abs(pca_row[off] - rpca_row[off]) / truth[off]
        assert np.median(rel) < 0.05
