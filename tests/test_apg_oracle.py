"""The unmasked APG loop against its block-by-block oracle.

The library's unmasked loop carries ``G = D − E + A`` and shrinks through
the Gram kernel's ``m × m`` operator, so it reorders floating point
relative to the plain loop in :func:`tests.oracles.apg_unmasked_reference`
(separate ``D``/``E`` blocks, one ufunc per operation). The contract is
not bitwise: equal iteration counts, equal ranks, equal convergence flags,
and at most 1e-12 relative difference on ``D``, ``E`` and the constant
row ``P_D`` — cold and warm, wide and tall, through a rank-0 start and
through ``max_iter`` exhaustion.
"""

import numpy as np
import pytest

from repro.core.apg import rpca_apg
from repro.core.decompose import constant_row
from repro.errors import ConvergenceError

from .oracles import apg_unmasked_reference

RTOL = 1e-12


def _problem(m=10, n=600, rank=1, sparsity=0.05, seed=0):
    """Low-rank plus sparse, shaped like the paper's wide TP-matrices."""
    rng = np.random.default_rng(seed)
    low = np.zeros((m, n))
    for _ in range(rank):
        low += np.outer(rng.uniform(0.5, 1.5, m), rng.uniform(1.0, 3.0, n))
    sparse = (rng.random((m, n)) < sparsity) * rng.standard_normal((m, n)) * 3.0
    return low + sparse


def _rel(x, y):
    scale = float(np.linalg.norm(y))
    return float(np.linalg.norm(x - y)) / scale if scale > 0 else float(np.linalg.norm(x))


def _assert_agree(got, want):
    assert got.iterations == want.iterations
    assert got.rank == want.rank
    assert got.converged == want.converged
    assert got.warm_started == want.warm_started
    assert _rel(got.low_rank, want.low_rank) <= RTOL
    assert _rel(got.sparse, want.sparse) <= RTOL
    assert _rel(constant_row(got.low_rank), constant_row(want.low_rank)) <= RTOL
    assert got.residual == pytest.approx(want.residual, rel=1e-6)


# Under auto a short side above 64 thresholds with the full SVD, whose
# result the loop adds its input to instead of going through P + I.
SHAPES = {"wide": (10, 600), "tall": (600, 10), "wide-exact": (70, 160)}


@pytest.mark.parametrize("backend", ["gram", "auto"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cold_solve_matches_oracle(shape, backend):
    m, n = SHAPES[shape]
    a = _problem(m=m, n=n, seed=1)
    got = rpca_apg(a, svd_backend=backend)
    want = apg_unmasked_reference(a, svd_backend=backend)
    assert want.converged
    _assert_agree(got, want)


@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_warm_chain_matches_oracle(shape):
    # Successive windows over one drifting stream, each solve warm-started
    # from the previous answer — the Algorithm-1 re-calibration chain.
    m, n = SHAPES[shape]
    rows = _problem(m=m + 6, n=n, seed=2) if shape == "wide" else None
    windows = (
        [rows[k : k + m] for k in range(6)]
        if shape == "wide"
        else [_problem(m=m, n=n, seed=2 + k) for k in range(4)]
    )
    prev_got = prev_want = None
    for a in windows:
        kw = {}
        if prev_got is not None:
            kw = {"warm_start": (prev_got.low_rank, prev_got.sparse)}
        got = rpca_apg(a, svd_backend="auto", **kw)
        if prev_want is not None:
            kw = {"warm_start": (prev_want.low_rank, prev_want.sparse)}
        want = apg_unmasked_reference(a, svd_backend="auto", **kw)
        _assert_agree(got, want)
        prev_got, prev_want = got, want


@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_rank_zero_start_matches_oracle(shape):
    # Warm start (0, A/2) at warm_mu_factor 0.99: the first prox input is
    # A/4 while τ = 0.495·σ₁(A), so τ > σ₁ and nothing survives the first
    # thresholds. (An all-sparse start E₀ = A is not used: its path crosses
    # weak components sitting just above τ, where any two SVT spellings
    # drift 1e-11–1e-9 apart — the oracle's own loop with the older
    # two-GEMM rebuild does too — so it would measure conditioning, not
    # the loop.)
    m, n = SHAPES[shape]
    a = _problem(m=m, n=n, seed=3)
    kw = dict(warm_start=(np.zeros_like(a), 0.5 * a), warm_mu_factor=0.99)
    first = rpca_apg(a, svd_backend="auto", max_iter=1, **kw)
    assert first.rank == 0
    assert not first.low_rank.any()
    _assert_agree(first, apg_unmasked_reference(a, max_iter=1, **kw))
    got = rpca_apg(a, svd_backend="auto", **kw)
    _assert_agree(got, apg_unmasked_reference(a, **kw))


@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_max_iter_exhaustion_matches_oracle(shape):
    m, n = SHAPES[shape]
    a = _problem(m=m, n=n, seed=5)
    got = rpca_apg(a, svd_backend="auto", max_iter=7)
    want = apg_unmasked_reference(a, max_iter=7)
    assert not want.converged
    _assert_agree(got, want)
    with pytest.raises(ConvergenceError) as got_err:
        rpca_apg(a, svd_backend="auto", max_iter=7, raise_on_fail=True)
    with pytest.raises(ConvergenceError) as want_err:
        apg_unmasked_reference(a, max_iter=7, raise_on_fail=True)
    assert got_err.value.iterations == want_err.value.iterations == 7
    assert got_err.value.residual == pytest.approx(want_err.value.residual, rel=1e-9)
