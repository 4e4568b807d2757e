"""Unit tests for the proximal operators in repro.core.svd_ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.svd_ops import (
    singular_value_threshold,
    soft_threshold,
    soft_threshold_into,
    truncated_svd,
)
from repro.errors import ValidationError


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = soft_threshold(x, 1.0)
        np.testing.assert_allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_zero_tau_is_identity(self):
        x = np.array([[1.0, -2.0], [0.0, 3.0]])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_preserves_sign(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        out = soft_threshold(x, 0.3)
        nz = out != 0
        assert np.all(np.sign(out[nz]) == np.sign(x[nz]))

    def test_never_increases_magnitude(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        out = soft_threshold(x, 0.2)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-15)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValidationError):
            soft_threshold(np.ones(3), -0.1)

    def test_is_prox_of_l1(self):
        # prox_{tau||.||_1}(x) minimizes tau|z| + 0.5(z-x)^2 per entry.
        x, tau = 1.7, 0.4
        z_star = soft_threshold(np.array([x]), tau)[0]
        zs = np.linspace(-3, 3, 20001)
        objective = tau * np.abs(zs) + 0.5 * (zs - x) ** 2
        assert abs(zs[np.argmin(objective)] - z_star) < 1e-3


def _edge_values(tau):
    """±τ, ±0 and the floats on either side of ±τ."""
    near = [np.nextafter(tau, 0.0), tau, np.nextafter(tau, np.inf)]
    return near + [-v for v in near] + [0.0, -0.0]


class TestSoftThresholdInto:
    """The two-pass ``x − clip(x, −τ, τ)`` against ``sign(x)·max(|x|−τ, 0)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        tau=st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=True),
        xs=st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            min_size=0,
            max_size=40,
        ),
    )
    def test_equals_reference_spelling(self, tau, xs):
        x = np.array(xs + _edge_values(tau), dtype=np.float64)
        out = soft_threshold_into(x, tau, np.empty_like(x))
        ref = np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
        assert np.all(out == ref)  # ±0 compare equal; only their sign may differ

    def test_edges_shrink_to_zero_or_one_ulp(self):
        tau = 0.7
        x = np.array(_edge_values(tau))
        out = soft_threshold_into(x, tau, np.empty_like(x))
        step = np.nextafter(tau, np.inf) - tau
        np.testing.assert_array_equal(out, [0, 0, step, 0, 0, -step, 0, 0])

    def test_blocked_application_matches_whole(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1000) * 2.0
        whole = soft_threshold_into(x, 0.6, np.empty_like(x))
        blocked = np.empty_like(x)
        for lo in range(0, x.size, 37):
            soft_threshold_into(x[lo : lo + 37], 0.6, blocked[lo : lo + 37])
        assert np.array_equal(whole, blocked)


class TestTruncatedSVD:
    def test_reconstructs(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 9))
        u, s, vt = truncated_svd(a)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-10)

    def test_thin_shapes(self):
        a = np.random.default_rng(3).standard_normal((4, 10))
        u, s, vt = truncated_svd(a)
        assert u.shape == (4, 4) and s.shape == (4,) and vt.shape == (4, 10)

    def test_singular_values_sorted(self):
        a = np.random.default_rng(4).standard_normal((8, 8))
        _, s, _ = truncated_svd(a)
        assert np.all(np.diff(s) <= 0)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            truncated_svd(np.ones(5))


class TestSingularValueThreshold:
    def test_zero_tau_reconstructs(self):
        a = np.random.default_rng(5).standard_normal((5, 7))
        d, rank, top = singular_value_threshold(a, 0.0)
        np.testing.assert_allclose(d, a, atol=1e-10)
        assert rank == 5
        assert top == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])

    def test_huge_tau_gives_zero(self):
        a = np.random.default_rng(6).standard_normal((5, 5))
        d, rank, _ = singular_value_threshold(a, 1e6)
        assert rank == 0
        np.testing.assert_array_equal(d, np.zeros((5, 5)))

    def test_reduces_rank(self):
        rng = np.random.default_rng(7)
        # Rank-2 matrix with well-separated singular values.
        a = 10.0 * np.outer(rng.standard_normal(6), rng.standard_normal(6))
        a += 0.1 * np.outer(rng.standard_normal(6), rng.standard_normal(6))
        s = np.linalg.svd(a, compute_uv=False)
        d, rank, _ = singular_value_threshold(a, (s[0] + s[1]) / 2)
        assert rank == 1

    def test_shrinks_singular_values_exactly(self):
        a = np.diag([5.0, 3.0, 1.0])
        d, rank, top = singular_value_threshold(a, 2.0)
        np.testing.assert_allclose(np.sort(np.diag(d))[::-1], [3.0, 1.0, 0.0], atol=1e-12)
        assert rank == 2
        assert top == pytest.approx(5.0)

    def test_is_prox_of_nuclear_norm(self):
        # For symmetric PSD diag input the prox acts on eigenvalues directly.
        a = np.diag([4.0, 0.5])
        d, _, _ = singular_value_threshold(a, 1.0)
        np.testing.assert_allclose(d, np.diag([3.0, 0.0]), atol=1e-12)
