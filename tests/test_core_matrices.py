"""Unit tests for PerformanceMatrix / TPMatrix / TCMatrix / TEMatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import off_diagonal
from repro.collectives.exec_model import weights_to_alphabeta
from repro.core.matrices import PerformanceMatrix, TCMatrix, TEMatrix, TPMatrix
from repro.errors import ValidationError
from tests.oracles import (
    check_performance_matrix_reference,
    performance_matrix_reference,
    weights_to_alphabeta_reference,
)


def weights(n, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    return w


class TestPerformanceMatrix:
    def test_roundtrip_flatten(self):
        pm = PerformanceMatrix(weights=weights(5), timestamp=3.0)
        back = PerformanceMatrix.from_flat(pm.flatten(), timestamp=3.0)
        np.testing.assert_array_equal(back.weights, pm.weights)
        assert back.timestamp == 3.0

    def test_rejects_nonzero_diagonal(self):
        w = weights(3)
        w[1, 1] = 0.5
        with pytest.raises(ValidationError, match="diagonal"):
            PerformanceMatrix(weights=w)

    def test_rejects_nonpositive_offdiagonal(self):
        w = weights(3)
        w[0, 1] = 0.0
        with pytest.raises(ValidationError, match="positive"):
            PerformanceMatrix(weights=w)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            PerformanceMatrix(weights=np.ones((2, 3)))

    def test_rejects_bad_flat_length(self):
        with pytest.raises(ValidationError, match="perfect square"):
            PerformanceMatrix.from_flat(np.ones(5))

    def test_immutability(self):
        pm = PerformanceMatrix(weights=weights(4))
        with pytest.raises(ValueError):
            pm.weights[0, 1] = 9.0

    def test_restrict(self):
        pm = PerformanceMatrix(weights=weights(6))
        sub = pm.restrict([1, 3, 5])
        assert sub.n_machines == 3
        assert sub.weights[0, 1] == pm.weights[1, 3]
        assert sub.weights[2, 0] == pm.weights[5, 1]

    def test_restrict_rejects_duplicates(self):
        pm = PerformanceMatrix(weights=weights(4))
        with pytest.raises(ValidationError, match="distinct"):
            pm.restrict([1, 1])

    def test_restrict_rejects_out_of_range(self):
        pm = PerformanceMatrix(weights=weights(4))
        with pytest.raises(ValidationError):
            pm.restrict([0, 9])

    def test_single_machine_allowed(self):
        pm = PerformanceMatrix(weights=np.zeros((1, 1)))
        assert pm.n_machines == 1


class TestTPMatrix:
    def test_from_snapshots_orders_by_time(self):
        s1 = PerformanceMatrix(weights=weights(3, 1), timestamp=10.0)
        s2 = PerformanceMatrix(weights=weights(3, 2), timestamp=5.0)
        tp = TPMatrix.from_snapshots([s1, s2])
        assert tp.timestamps[0] == 5.0 and tp.timestamps[1] == 10.0
        np.testing.assert_array_equal(tp.snapshot(0).weights, s2.weights)

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="columns"):
            TPMatrix(data=np.ones((2, 10)), n_machines=3)

    def test_default_timestamps(self):
        tp = TPMatrix(data=np.ones((4, 9)), n_machines=3)
        np.testing.assert_array_equal(tp.timestamps, [0, 1, 2, 3])

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            TPMatrix(data=np.ones((2, 4)), n_machines=2, timestamps=[2.0, 1.0])

    def test_mismatched_snapshot_sizes_rejected(self):
        s1 = PerformanceMatrix(weights=weights(3))
        s2 = PerformanceMatrix(weights=weights(4))
        with pytest.raises(ValidationError, match="same size"):
            TPMatrix.from_snapshots([s1, s2])

    def test_head(self):
        tp = TPMatrix(data=np.arange(12, dtype=float).reshape(3, 4) + 1, n_machines=2)
        h = tp.head(2)
        assert h.n_snapshots == 2
        np.testing.assert_array_equal(h.data, tp.data[:2])

    def test_head_bounds(self):
        tp = TPMatrix(data=np.ones((3, 4)), n_machines=2)
        with pytest.raises(ValidationError):
            tp.head(0)
        with pytest.raises(ValidationError):
            tp.head(4)

    def test_snapshot_out_of_range(self):
        tp = TPMatrix(data=np.ones((2, 4)), n_machines=2)
        with pytest.raises(ValidationError):
            tp.snapshot(5)

    def test_empty_snapshots_rejected(self):
        with pytest.raises(ValidationError):
            TPMatrix.from_snapshots([])


class TestTCMatrix:
    def test_as_matrix_rank_one(self):
        row = np.array([0.0, 1.0, 2.0, 0.0])
        tc = TCMatrix(row=row, n_rows=5, n_machines=2)
        m = tc.as_matrix()
        assert m.shape == (5, 4)
        assert np.linalg.matrix_rank(m) == 1

    def test_performance_matrix_zeroes_diagonal(self):
        row = np.array([0.3, 1.0, 2.0, 0.3])  # dirty diagonal from a solver
        tc = TCMatrix(row=row, n_rows=2, n_machines=2)
        pm = tc.performance_matrix()
        assert pm.weights[0, 0] == 0.0 and pm.weights[1, 1] == 0.0
        assert pm.weights[0, 1] == 1.0

    def test_performance_matrix_clips_negative(self):
        row = np.array([0.0, -0.5, 2.0, 0.0])
        tc = TCMatrix(row=row, n_rows=1, n_machines=2)
        pm = tc.performance_matrix()
        assert pm.weights[0, 1] > 0.0

    def test_all_nonpositive_rejected(self):
        row = np.array([0.0, -1.0, -2.0, 0.0])
        tc = TCMatrix(row=row, n_rows=1, n_machines=2)
        with pytest.raises(ValidationError, match="no positive"):
            tc.performance_matrix()

    def test_row_length_validated(self):
        with pytest.raises(ValidationError):
            TCMatrix(row=np.ones(5), n_machines=2, n_rows=3)


class TestTEMatrix:
    def test_construction(self):
        te = TEMatrix(data=np.zeros((3, 9)) + 0.5, n_machines=3)
        assert te.n_rows == 3 and te.n_machines == 3

    def test_shape_validated(self):
        with pytest.raises(ValidationError):
            TEMatrix(data=np.ones((2, 5)), n_machines=2)


class TestOnePassMatchesMaskOracle:
    """P_D, its checks and its α-β pair agree with the ``~np.eye`` mask
    versions in tests/oracles.py: same bits, same errors."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        negatives=st.floats(min_value=0.0, max_value=0.5),
        clip_floor=st.sampled_from([None, 1e-6, 0.3]),
    )
    def test_performance_matrix_bitwise(self, n, seed, negatives, clip_floor):
        rng = np.random.default_rng(seed)
        row = rng.uniform(1e-4, 3.0, size=n * n)
        row[rng.random(n * n) < negatives] *= -1.0  # RPCA's small negatives
        row[rng.random(n * n) < negatives / 4] = 0.0
        tc = TCMatrix(row=row, n_rows=3, n_machines=n)
        try:
            want = performance_matrix_reference(row, n, clip_floor)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=str(exc)):
                tc.performance_matrix(clip_floor=clip_floor)
            return
        got = tc.performance_matrix(clip_floor=clip_floor).weights
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nbytes=st.sampled_from([0.0, 1.0, 8.0 * 2**20, 1e12]),
    )
    def test_alphabeta_bitwise(self, n, seed, nbytes):
        w = np.random.default_rng(seed).uniform(1e-6, 1e3, size=(n, n))
        np.fill_diagonal(w, 0.0)
        want_a, want_b = weights_to_alphabeta_reference(w, nbytes)
        got_a, got_b = weights_to_alphabeta(w, nbytes)
        assert got_a.tobytes() == want_a.tobytes()
        assert got_b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize(
        "entry,value",
        [
            ((0, 1), 0.0),
            ((2, 0), -1e-3),
            ((1, 1), 0.5),
            ((1, 2), np.nan),
            ((0, 2), np.inf),
            ((2, 2), -np.inf),
        ],
        ids=["zero-off", "negative-off", "nonzero-diag", "nan", "inf", "diag-inf"],
    )
    @pytest.mark.parametrize("n", [3, 6])
    def test_same_errors(self, entry, value, n):
        w = weights(n, seed=4)
        w[entry] = value

        def outcome(fn):
            try:
                out = fn()
            except ValidationError as exc:
                return "error", str(exc)
            return "ok", out[1].tobytes()  # β (α=0 there is not checked)

        # A nonzero diagonal is an error for PerformanceMatrix only: α-β
        # pricing ignores the diagonal.
        pm = outcome(lambda: (None, PerformanceMatrix(weights=w.copy()).weights))
        assert pm == outcome(lambda: (None, check_performance_matrix_reference(w.copy())))
        assert pm[0] == "error"
        assert outcome(lambda: weights_to_alphabeta(w, 1.0)) == outcome(
            lambda: weights_to_alphabeta_reference(w, 1.0)
        )

    def test_constant_component_without_positive_weights(self):
        row = -np.ones(9)
        with pytest.raises(ValidationError, match="no positive weights") as want:
            performance_matrix_reference(row, 3)
        with pytest.raises(ValidationError) as got:
            TCMatrix(row=row, n_rows=1, n_machines=3).performance_matrix()
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_off_diagonal_view(self, n):
        a = np.arange(n * n, dtype=np.float64).reshape(n, n)
        off = off_diagonal(a)
        assert off.ravel().tolist() == a[~np.eye(n, dtype=bool)].tolist()
        off[...] = -1.0
        assert np.array_equal(np.diagonal(a), np.arange(n) * (n + 1))
        assert np.count_nonzero(a == -1.0) == n * n - n
        if n > 1:
            with pytest.raises(ValueError, match="contiguous"):
                off_diagonal(np.asfortranarray(a))
