"""Certificates: how close an RPCA answer is to optimal, from its output.

:func:`repro.core.result.certify` builds a feasible primal point and a
feasible dual point from a solve's ``(D, E)``, so the relative gap it
returns bounds the answer's suboptimality whatever produced it. These tests
pin IALM's gap on the paper's window shape (10 × 38416, 196 instances),
fully observed and with a tenth of the entries masked, and weak duality
(the gap is never negative) on arbitrary inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.result import SolverResult, certify
from repro.core.solvers import solve_rpca

MB = 1024 * 1024

#: IALM's gaps on the windows below were 1.64e-2 (full) and 1.75e-2
#: (masked) when this was written; the retired APG solver's were 6.30e-2
#: and 5.94e-2.
GAP_BOUND = 2.5e-2


@pytest.fixture(scope="module")
def paper_window():
    trace = generate_trace(TraceConfig(n_machines=196, n_snapshots=10), seed=1)
    return trace.tp_matrix(8 * MB, count=10).data


def _mask(shape, seed=3, loss=0.10):
    return np.random.default_rng(seed).random(shape) >= loss


class TestIalmIsNearOptimal:
    def test_paper_scale_window(self, paper_window):
        res = solve_rpca(paper_window, solver="ialm")
        cert = certify(res, paper_window)
        assert cert.residual < 1e-6
        assert 0.0 <= cert.gap <= GAP_BOUND

    def test_masked_paper_scale_window(self, paper_window):
        mask = _mask(paper_window.shape)
        res = solve_rpca(paper_window, solver="ialm", mask=mask)
        cert = certify(res, paper_window, mask=mask)
        assert cert.residual < 1e-6
        assert 0.0 <= cert.gap <= GAP_BOUND

    def test_unobserved_entries_do_not_count(self, paper_window):
        # Placeholder values under the mask carry no signal: changing them
        # changes neither the solve nor its certificate.
        mask = _mask(paper_window.shape)
        other = np.where(mask, paper_window, 1e3)
        res = solve_rpca(paper_window, solver="ialm", mask=mask)
        assert certify(res, other, mask=mask) == certify(res, paper_window, mask=mask)

    def test_zero_answer_of_zero_data(self):
        zero = np.zeros((4, 6))
        cert = certify(solve_rpca(zero, solver="ialm"), zero)
        assert cert == (0.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 8),
    n=st.integers(2, 40),
    masked=st.booleans(),
    solved=st.booleans(),
    large=st.booleans(),
)
def test_gap_is_never_negative(seed, m, n, masked, solved, large):
    """Weak duality: any certificate's dual objective is at most the primal
    objective of its feasible point, for a solver's answer or any other.
    *large* puts the short side above 64, past the exact Gram path of the
    solvers' own spectral-norm estimate."""
    if large:
        m, n = m + 64, n + 64
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
    mask = rng.random((m, n)) < 0.8 if masked else None
    if mask is not None and not mask.any():
        mask[0, 0] = True
    if solved:
        res = solve_rpca(a, solver="ialm", mask=mask, max_iter=int(rng.integers(1, 60)))
    else:
        d = rng.standard_normal((m, n))
        e = np.where(rng.random((m, n)) < 0.3, rng.standard_normal((m, n)), 0.0)
        res = SolverResult(d, e, 0, 0, False, 0.0)
    cert = certify(res, a, mask=mask)
    assert cert.gap >= 0.0
    assert cert.residual >= 0.0
