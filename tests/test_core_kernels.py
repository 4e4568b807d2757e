"""The SVD kernel layer: kernel parity, rank prediction, zero-allocation.

Three classes of guarantee are pinned here:

* **The default is the shape rule** — a solve that names no kernel is the
  ``auto`` solve bit for bit, and ``auto`` is the Gram kernel whenever the
  short side is at most 64.
* **Parity with the plain loops** — each solver has one loop over the
  kernel layers. It re-orders floating point against the plain loops of
  :mod:`tests.oracles` (full SVD, fresh temporaries), and the Gram kernel
  reconstructs only the surviving triplets, but the thresholded rank is
  exact by construction (no undershoot) and solver outputs agree with the
  oracles to solver tolerance, with equal iteration counts, on masked and
  unmasked solves, whichever kernel runs.
* **The performance contract** — under ``auto`` on wide TP-shaped
  matrices, steady-state iterations perform no full-width SVD and allocate
  no new ``m × n`` temporaries; both are instrumentation-counter
  assertions, not timing assertions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.decompose import decompose
from repro.core.engine import DecompositionEngine
from repro.core.ialm import rpca_ialm
from repro.core.kernels import (
    SVD_BACKENDS,
    RankPredictor,
    SolveWorkspace,
    SVTKernel,
    validate_backend,
)
from repro.core.matrices import TPMatrix
from repro.core.options import SolveOptions
from repro.core.svd_ops import (
    singular_value_threshold,
    soft_threshold,
    spectral_norm,
)
from repro.errors import ValidationError
from repro.observability import Instrumentation, instrumented

from .oracles import rpca_ialm_plain

SOLVERS = {"ialm": rpca_ialm}
ORACLES = {"ialm": rpca_ialm_plain}


def _rpca_problem(m=10, n=800, rank=1, sparsity=0.05, seed=0):
    """A wide low-rank + sparse matrix shaped like the paper's TP-matrices."""
    rng = np.random.default_rng(seed)
    low = np.zeros((m, n))
    for _ in range(rank):
        low += np.outer(rng.standard_normal(m), rng.standard_normal(n))
    sparse = (rng.random((m, n)) < sparsity) * rng.standard_normal((m, n)) * 3.0
    return low + sparse


def _mask(shape, missing=0.1, seed=3):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) > missing
    mask[0, 0] = True  # keep at least one observation
    return mask


# ---------------------------------------------------------------------------
# validate_backend / RankPredictor
# ---------------------------------------------------------------------------


def test_validate_backend_accepts_all_known():
    for backend in SVD_BACKENDS:
        assert validate_backend(backend) == backend


def test_validate_backend_rejects_unknown():
    with pytest.raises(ValidationError, match="unknown SVD backend"):
        validate_backend("lanczos")
    # The retired sketch backend is unknown now; the message lists the rest.
    with pytest.raises(
        ValidationError, match=r"'randomized'.*\['exact', 'gram', 'auto'\]"
    ):
        validate_backend("randomized")


def test_rank_predictor_starts_at_lin_et_al_default():
    assert RankPredictor(min_dim=38416).predict() == 10
    assert RankPredictor(min_dim=4).predict() == 4
    assert RankPredictor.for_shape((10, 38416)).predict() == 10


def test_rank_predictor_shrinks_toward_surviving_rank():
    p = RankPredictor(min_dim=1000)
    p.observe(1)  # steady-state TP-matrix behavior: rank 1 survives
    assert p.predict() == 2  # rank + 1: enough to prove the rank next time


def test_rank_predictor_grows_when_saturated():
    p = RankPredictor(min_dim=100)
    sv = p.predict()
    p.observe(sv)  # every computed triplet survived
    assert p.predict() > sv


def test_rank_predictor_rejects_bad_min_dim():
    with pytest.raises(ValidationError):
        RankPredictor(min_dim=0)


@given(
    min_dim=st.integers(1, 200),
    survivors=st.lists(st.integers(0, 200), min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_rank_predictor_never_undershoots(min_dim, survivors):
    """The next prediction always exceeds the observed rank unless clamped.

    A prediction equal to the surviving rank could not prove the rank was
    not larger; the heuristic must always leave one triplet of headroom
    (or be pinned at the full decomposition).
    """
    p = RankPredictor(min_dim=min_dim)
    for surviving in survivors:
        surviving = min(surviving, min_dim)
        p.observe(surviving)
        assert 1 <= p.predict() <= min_dim
        assert p.predict() > surviving or p.predict() == min_dim


# ---------------------------------------------------------------------------
# spectral_norm / soft_threshold workspace spelling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(6, 40), (40, 6), (8, 8)])
def test_spectral_norm_matches_lapack_gram_path(shape):
    # Short side <= 64: Gram eigendecomposition, LAPACK-exact.
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape)
    expected = float(np.linalg.norm(a, 2))
    assert spectral_norm(a) == pytest.approx(expected, rel=1e-8)


def test_spectral_norm_power_iteration_near_degenerate_spectrum():
    # A gapless Gaussian spectrum is power iteration's worst case; the
    # estimate still lands within ~1e-4 relative — far more than enough for
    # its only consumer, the solvers' mu initialization.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((100, 300))
    expected = float(np.linalg.norm(a, 2))
    assert spectral_norm(a) == pytest.approx(expected, rel=1e-3)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((5, 9))) == 0.0


def test_spectral_norm_large_short_side_power_iteration():
    # Short side > 64 exercises the power-iteration branch.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((80, 120))
    assert spectral_norm(a) == pytest.approx(float(np.linalg.norm(a, 2)), rel=1e-6)


def test_soft_threshold_out_matches_allocating_path():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((12, 50)) * 3.0
    out = np.empty_like(x)
    res = soft_threshold(x, 0.7, out=out)
    assert res is out
    np.testing.assert_array_equal(out, soft_threshold(x, 0.7))


# ---------------------------------------------------------------------------
# SVTKernel: construction + backend parity at the kernel level
# ---------------------------------------------------------------------------


def test_kernel_rejects_unknown_backend():
    with pytest.raises(ValidationError):
        SVTKernel((4, 10), "cholesky")


def test_kernel_exact_is_bit_identical_to_svd_ops():
    a = _rpca_problem(seed=4)
    d_ref, rank_ref, top_ref = singular_value_threshold(a, 0.5)
    d, rank, top = SVTKernel(a.shape, "exact").svt(a, 0.5)
    np.testing.assert_array_equal(d, d_ref)
    assert (rank, top) == (rank_ref, top_ref)


@pytest.mark.parametrize("backend", ["gram"])
@pytest.mark.parametrize("transpose", [False, True], ids=["wide", "tall"])
@pytest.mark.parametrize("tau_scale", [0.9, 0.3, 0.02, 2.0])
def test_kernel_partial_backends_match_exact(backend, transpose, tau_scale):
    a = _rpca_problem(m=8, n=300, rank=2, seed=5)
    if transpose:
        a = a.T.copy()
    top = float(np.linalg.norm(a, 2))
    tau = tau_scale * top
    d_ref, rank_ref, _ = singular_value_threshold(a, tau)
    d, rank, top_k = SVTKernel(a.shape, backend).svt(a, tau)
    assert rank == rank_ref  # exact rank, never an undershoot
    np.testing.assert_allclose(d, d_ref, atol=1e-8 * max(top, 1.0))
    assert top_k == pytest.approx(top, rel=1e-6)


@pytest.mark.parametrize("transpose", [False, True], ids=["wide", "tall"])
@pytest.mark.parametrize("target", [0, 1, 2], ids=["rank0", "rank1", "rank2"])
def test_gram_shrink_operator_matches_full_svd(transpose, target):
    """One GEMM through the shrink operator: ``P·A`` wide, ``A·Q`` tall."""
    rng = np.random.default_rng(9)
    a = np.outer(rng.uniform(1, 2, 12), rng.uniform(1, 2, 400)) * 4.0
    a += np.outer(rng.standard_normal(12), rng.standard_normal(400)) * 0.3
    a += 0.01 * rng.standard_normal(a.shape)
    if transpose:
        a = a.T.copy()
    sigma = np.linalg.svd(a, compute_uv=False)
    # τ between σ_target and σ_{target+1}; above σ₁ for rank 0.
    tau = 1.5 * sigma[0] if target == 0 else float(np.sqrt(sigma[target - 1] * sigma[target]))
    d_ref, rank_ref, _ = singular_value_threshold(a, tau)
    assert rank_ref == target
    kernel = SVTKernel(a.shape, "gram")
    atol = 1e-12 * float(sigma[0])
    d, rank, _ = kernel.svt(a, tau)
    assert rank == rank_ref
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=atol)
    if rank_ref == 0:
        assert not d.any()


def test_exact_kernel_is_the_full_svd_bitwise():
    a = _rpca_problem(m=70, n=100, seed=8)
    d_ref, _, _ = singular_value_threshold(a, 2.0)
    kernel = SVTKernel(a.shape, "auto")
    assert kernel.choose() == "exact"
    d, _, _ = kernel.svt(a, 2.0, out=np.empty_like(a))
    assert np.array_equal(d, d_ref)


def test_kernel_writes_into_out_buffer():
    a = _rpca_problem(seed=6)
    out = np.full(a.shape, np.nan)
    d, _, _ = SVTKernel(a.shape, "gram").svt(a, 0.4, out=out)
    assert d is out
    assert np.isfinite(out).all()


@given(seed=st.integers(0, 1000), tau_scale=st.floats(0.01, 1.5))
@settings(max_examples=25, deadline=None)
def test_kernel_rank_is_exact_for_all_backends(seed, tau_scale):
    """Property: partial backends return the exact thresholded rank.

    Except at floating-point ties: when τ lands within a few ulps of a
    singular value (hypothesis loves ``tau_scale=1.0``, which makes τ
    bitwise equal to σ₁), "the" thresholded rank is ill-defined — gesdd
    and the Gram route compute σ in different operation orders and may
    disagree in the last ulp about which side of zero σ−τ falls on. Those
    measure-zero examples are rejected, not asserted on.
    """
    a = _rpca_problem(m=6, n=120, rank=2, seed=seed)
    sigma = np.linalg.svd(a, compute_uv=False)
    tau = tau_scale * float(sigma[0])
    assume(float(np.abs(sigma - tau).min()) > 1e-9 * float(sigma[0]))
    _, rank_ref, _ = singular_value_threshold(a, tau)
    _, rank, _ = SVTKernel(a.shape, "gram").svt(a, tau)
    assert rank == rank_ref


def test_auto_policy_prefers_gram_on_tp_shapes():
    assert SVTKernel((10, 38416), "auto").choose() == "gram"


def test_auto_policy_falls_back_to_exact_when_rank_saturates():
    kernel = SVTKernel((100, 120), "auto")
    assert kernel.choose() == "exact"
    kernel = SVTKernel((500, 600), "auto")
    assert kernel.choose() == "exact"
    kernel = SVTKernel((65, 9000), "auto")
    assert kernel.choose() == "exact"


# ---------------------------------------------------------------------------
# SolveWorkspace
# ---------------------------------------------------------------------------


def test_workspace_reuses_buffers_by_name():
    ws = SolveWorkspace((4, 9))
    a = ws.buf("D")
    assert ws.buf("D") is a
    assert ws.allocated == 1
    b, c = ws.bufs("E", "D")
    assert c is a and b is not a
    assert ws.allocated == 2


def test_workspace_counts_allocations():
    instr = Instrumentation("t")
    with instrumented(instr):
        ws = SolveWorkspace((3, 7))
        ws.bufs("D", "E", "D", "E")
    assert instr.counters["kernel.workspace.alloc_mn"] == 2


# ---------------------------------------------------------------------------
# Solver-level parity with the plain loops: masked/unmasked
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_exact_kernel_matches_the_plain_loop(solver, masked):
    """Forcing the full-SVD kernel changes the kernel, not the loop: the
    one loop still agrees with the plain full-SVD loop to solver tolerance."""
    a = _rpca_problem(seed=10)
    kwargs = {"mask": _mask(a.shape)} if masked else {}
    ref = ORACLES[solver](a, **kwargs)
    res = SOLVERS[solver](a, svd_backend="exact", **kwargs)
    assert res.converged == ref.converged
    assert res.iterations == ref.iterations
    assert res.rank == ref.rank
    scale = float(np.linalg.norm(a))
    assert np.linalg.norm(res.low_rank - ref.low_rank) <= 1e-6 * scale
    assert np.linalg.norm(res.sparse - ref.sparse) <= 1e-6 * scale


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("backend", ["gram", "auto"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_partial_backends_match_exact_solves(solver, backend, masked):
    a = _rpca_problem(seed=11)
    fn = SOLVERS[solver]
    kwargs = {"mask": _mask(a.shape)} if masked else {}
    ref = ORACLES[solver](a, **kwargs)
    res = fn(a, svd_backend=backend, **kwargs)
    assert res.converged == ref.converged
    assert res.iterations == ref.iterations
    assert res.rank == ref.rank
    scale = float(np.linalg.norm(a))
    assert np.linalg.norm(res.low_rank - ref.low_rank) <= 1e-6 * scale
    assert np.linalg.norm(res.sparse - ref.sparse) <= 1e-6 * scale


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solver_rejects_unknown_backend(solver):
    a = _rpca_problem(seed=13)
    with pytest.raises(ValidationError, match="unknown SVD backend"):
        SOLVERS[solver](a, svd_backend="lanczos")


# ---------------------------------------------------------------------------
# The performance contract, as counters (not timing)
# ---------------------------------------------------------------------------


def _auto_solve_counters(max_iter):
    a = _rpca_problem(m=10, n=1500, seed=15)
    instr = Instrumentation("t")
    with instrumented(instr):
        res = rpca_ialm(a, svd_backend="auto", max_iter=max_iter, tol=0.0)
    assert res.iterations == max_iter
    return instr.counters


def test_auto_steady_state_no_full_width_svd_and_no_mn_allocations():
    """ISSUE acceptance: under ``auto`` on the paper's wide shape, steady
    state does zero full-width SVDs, and the m×n allocation count does not
    grow with the iteration count."""
    short = _auto_solve_counters(max_iter=10)
    long = _auto_solve_counters(max_iter=40)
    assert short.get("kernel.svt.full_width", 0) == 0
    assert long.get("kernel.svt.full_width", 0) == 0
    assert long["kernel.svt.gram"] == 40
    assert long["kernel.workspace.alloc_mn"] == short["kernel.workspace.alloc_mn"]
    # The unmasked loop carries D, E, the scaled dual, the prox input and
    # the feasibility gap.
    assert long["kernel.workspace.alloc_mn"] <= 5


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("shape", [(10, 300), (300, 10), (64, 90)])
def test_gram_equals_auto_bitwise_at_small_short_side(solver, masked, shape):
    """``auto`` is the Gram kernel whenever the short side is at most 64,
    and a solve that names no kernel is the ``auto`` solve."""
    a = _rpca_problem(m=min(shape), n=max(shape), seed=17)
    if shape[0] > shape[1]:
        a = a.T.copy()
    kwargs = {"mask": _mask(a.shape)} if masked else {}
    fn = SOLVERS[solver]
    gram = fn(a, svd_backend="gram", **kwargs)
    for other in (fn(a, svd_backend="auto", **kwargs), fn(a, **kwargs)):
        assert gram.iterations == other.iterations
        assert np.array_equal(gram.low_rank, other.low_rank)
        assert np.array_equal(gram.sparse, other.sparse)


# ---------------------------------------------------------------------------
# decompose / engine integration
# ---------------------------------------------------------------------------


def _tp(seed=16, m=10, n_machines=14):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 2.0, size=(n_machines, n_machines))
    rows = np.stack(
        [
            (base + 0.02 * rng.standard_normal(base.shape)).reshape(-1)
            for _ in range(m)
        ]
    )
    return TPMatrix(data=rows, n_machines=n_machines, timestamps=np.arange(m, dtype=float))


def test_decompose_accepts_svd_backend():
    # decompose forwards the kernel keyword to the solver like any other.
    tp = _tp()
    ref = decompose(tp, svd_backend="exact")
    dec = decompose(tp)
    np.testing.assert_allclose(
        dec.constant.row, ref.constant.row, rtol=0, atol=1e-8 * abs(ref.constant.row).max()
    )
    assert dec.norm_ne == pytest.approx(ref.norm_ne, abs=1e-9)
    assert dec.solver_iterations == ref.solver_iterations


def test_decompose_rejects_backend_for_non_svt_solver():
    tp = _tp()
    with pytest.raises(TypeError, match=r"'pca' does not accept.*svd_backend"):
        decompose(tp, solver="pca", svd_backend="auto")


def test_engine_rejects_backend_for_non_svt_solver():
    with pytest.raises(TypeError, match=r"'pca' does not accept.*svd_backend"):
        DecompositionEngine(
            _FakeSource(), nbytes=8.0, options=SolveOptions(solver="pca"),
            svd_backend="auto",
        )


class _FakeSource:
    """Minimal WindowSource over a synthetic near-constant network."""

    n_machines = 12
    n_snapshots = 30

    def __init__(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(0.5, 2.0, size=(self.n_machines, self.n_machines))
        self._rows = [
            (base + 0.02 * rng.standard_normal(base.shape)).reshape(-1)
            for _ in range(self.n_snapshots)
        ]

    def snapshot_row(self, k, nbytes):
        return self._rows[k]

    def timestamp(self, k):
        return float(k)


def test_engine_exact_backend_solves_unchanged():
    """An engine calibration agrees with the plain loop on its window."""
    engine = DecompositionEngine(_FakeSource(), nbytes=8.0, time_step=10)
    res = engine.calibrate(10)
    tp = engine.window(0, 10)
    ref = rpca_ialm_plain(tp.data)
    assert res.solver_iterations == ref.iterations
    scale = float(np.linalg.norm(tp.data))
    assert np.linalg.norm(res.solver_result.low_rank - ref.low_rank) <= 1e-6 * scale
