"""The fused elementwise kernel: bit identity, fallback, observability.

Mirrors the guarantees pinned for the SVD kernel layer in
``test_core_kernels.py``, one tier stricter where the design allows it:

* **Bit identity** — for IALM, masked and unmasked, the fused kernel
  preserves the historical ufunc chain's per-element operation order (it
  only blocks the sweeps), so fused solves are bit-identical to
  reference-chain solves. That is asserted with ``np.array_equal``, not a
  tolerance. The oracle is the same kernel with ``elementwise._fusable``
  patched to ``False``, which sends those steps down the reference chain
  (see :func:`reference_chain`).
* **Fallback and observability** — non-contiguous buffers take the
  reference chain with a ``kernel.ew.fallback`` count instead of silently
  copying, and every step reports ``kernel.ew.steps`` /
  ``kernel.ew_seconds``.
* **No knob** — ``elementwise_backend=`` is not an option anywhere; the
  facade, the solvers and ``decompose`` reject it with ``TypeError``.
"""

import contextlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import elementwise
from repro.core.decompose import decompose
from repro.core.elementwise import DEFAULT_EW_CHUNK, ElementwiseKernel
from repro.core.engine import DecompositionEngine
from repro.core.ialm import rpca_ialm
from repro.core.matrices import TPMatrix
from repro.core.options import SolveOptions
from repro.core.streaming import StreamingDecomposer
from repro.core.svd_ops import soft_threshold
from repro.observability import Instrumentation, instrumented


@contextlib.contextmanager
def reference_chain():
    """Run every elementwise step on the historical ufunc chain (the oracle)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elementwise, "_fusable", lambda *arrays: False)
        yield


SOLVERS = {"ialm": rpca_ialm}


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


def _rpca_problem(m=8, n=120, rank=1, sparsity=0.05, seed=0):
    """A wide low-rank + sparse matrix shaped like the paper's TP-matrices."""
    rng = np.random.default_rng(seed)
    low = np.zeros((m, n))
    for _ in range(rank):
        low += np.outer(rng.standard_normal(m), rng.standard_normal(n))
    sparse = (rng.random((m, n)) < sparsity) * rng.standard_normal((m, n)) * 3.0
    return low + sparse


def _mask(shape, missing=0.15, seed=3):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) > missing
    mask[0] = True  # keep every column observed at least once
    return mask


class TestValidation:
    def test_unknown_name_rejected(self, tiny_trace):
        # The retired knob is an unknown keyword on every facade verb.
        with pytest.raises(TypeError, match="elementwise_backend"):
            api.solve(tiny_trace, elementwise_backend="fused")
        with pytest.raises(TypeError, match="elementwise_backend"):
            api.open_session(tiny_trace, window=6, elementwise_backend="fused")
        with pytest.raises(TypeError, match="elementwise_backend"):
            api.run_fleet(
                [("only", tiny_trace)], serial=True, elementwise_backend="fused"
            )

    # Solvers and engines take no elementwise keyword either, whatever the
    # SVD backend or solver.
    def test_solver_rejects_exact_conflict(self):
        a = _rpca_problem()
        for solver in SOLVERS.values():
            for svd in ("exact", "auto"):
                with pytest.raises(TypeError, match="elementwise_backend"):
                    solver(a, svd_backend=svd, elementwise_backend="fused")

    def test_engine_rejects_non_svt_solver(self):
        with pytest.raises(TypeError, match="elementwise_backend"):
            DecompositionEngine(
                _FakeSource(), nbytes=8.0, options=SolveOptions(solver="row_constant"),
                elementwise_backend="fused",
            )

    def test_engine_rejects_exact_conflict(self):
        with pytest.raises(TypeError, match="elementwise_backend"):
            DecompositionEngine(
                _FakeSource(), nbytes=8.0, elementwise_backend="fused"
            )

    def test_engine_calibrations_bit_identical(self):
        fus = DecompositionEngine(
            _FakeSource(), nbytes=8.0, time_step=10,
            options=SolveOptions(solver="ialm"),
        )
        fused = [fus.calibrate(end).constant.row for end in (10, 12)]
        with reference_chain():
            ref = DecompositionEngine(
                _FakeSource(), nbytes=8.0, time_step=10,
                options=SolveOptions(solver="ialm"),
            )
            oracle = [ref.calibrate(end).constant.row for end in (10, 12)]
        for a, b in zip(oracle, fused):
            assert np.array_equal(a, b)


def _solve_pair(solver, a, mask, **kw):
    """(reference-chain result, fused result) of one ``auto`` solve."""
    fus = SOLVERS[solver](a, mask=mask, svd_backend="auto", **kw)
    with reference_chain():
        ref = SOLVERS[solver](a, mask=mask, svd_backend="auto", **kw)
    return ref, fus


# Solver × masked cases; every step keeps a reference chain.
CHAIN_CASES = [("ialm", False), ("ialm", True)]


class TestFusedBitIdentity:
    @pytest.mark.parametrize(("solver", "masked"), CHAIN_CASES)
    def test_single_solve(self, solver, masked):
        a = _rpca_problem(seed=11)
        mask = _mask(a.shape) if masked else None
        ref, fus = _solve_pair(solver, a, mask)
        assert ref.iterations == fus.iterations
        assert np.array_equal(ref.low_rank, fus.low_rank)
        assert np.array_equal(ref.sparse, fus.sparse)

    @settings(max_examples=12, deadline=None)
    @given(
        case=st.sampled_from(CHAIN_CASES),
        seed=st.integers(min_value=0, max_value=2**16),
        m=st.integers(min_value=4, max_value=10),
        n=st.integers(min_value=20, max_value=90),
    )
    def test_property_single_solve(self, case, seed, m, n):
        solver, masked = case
        a = _rpca_problem(m=m, n=n, seed=seed)
        mask = _mask(a.shape, seed=seed + 1) if masked else None
        ref, fus = _solve_pair(solver, a, mask, max_iter=40)
        assert ref.iterations == fus.iterations
        assert np.array_equal(ref.low_rank, fus.low_rank)
        assert np.array_equal(ref.sparse, fus.sparse)

    def test_chunking_is_invisible(self, monkeypatch):
        # A chunk smaller than a row exercises the block seams; iterates
        # must not depend on the chunk size at all.
        a = _rpca_problem(seed=5)
        mask = _mask(a.shape)
        with reference_chain():
            ref = rpca_ialm(a, mask=mask, svd_backend="auto")
        big = [rpca_ialm(a, mask=m, svd_backend="auto") for m in (mask, None)]
        real_init = ElementwiseKernel.__init__

        def tiny_chunks(self, *, chunk=DEFAULT_EW_CHUNK):
            real_init(self, chunk=17)

        monkeypatch.setattr(ElementwiseKernel, "__init__", tiny_chunks)
        small = [rpca_ialm(a, mask=m, svd_backend="auto") for m in (mask, None)]
        assert np.array_equal(ref.low_rank, big[0].low_rank)
        for b, s in zip(big, small):
            assert b.iterations == s.iterations
            assert np.array_equal(b.low_rank, s.low_rank)
            assert np.array_equal(b.sparse, s.sparse)


class TestRoutingAndObservability:
    def test_step_counters_and_timers(self):
        a = _rpca_problem(seed=31)
        sink = Instrumentation("ew")
        with instrumented(sink):
            rpca_ialm(a, svd_backend="auto")
        assert sink.counters.get("kernel.ew.steps", 0) > 0
        assert sink.counters.get("kernel.ew.fallback", 0) == 0
        assert sink.timers.get("kernel.ew_seconds", 0.0) > 0.0

    def test_reference_backend_also_times(self):
        # ew_share must be reportable when steps fall back to the chain too.
        a = _rpca_problem(seed=31)
        sink = Instrumentation("ew")
        with reference_chain(), instrumented(sink):
            rpca_ialm(a, svd_backend="auto")
        steps = sink.counters.get("kernel.ew.steps", 0)
        assert steps > 0
        assert sink.counters.get("kernel.ew.fallback", 0) >= steps
        assert sink.timers.get("kernel.ew_seconds", 0.0) > 0.0

    def test_non_contiguous_falls_back(self):
        kernel = ElementwiseKernel()
        x = np.asfortranarray(np.random.default_rng(0).standard_normal((8, 60)))
        assert not x.flags.c_contiguous
        sink = Instrumentation("ew")
        with instrumented(sink):
            out = kernel.shrink(x, 0.2)
        assert sink.counters.get("kernel.ew.fallback", 0) > 0
        assert np.array_equal(out, soft_threshold(x, 0.2))

    def test_decompose_threads_backend(self):
        tp = TPMatrix(data=_rpca_problem(n=16), n_machines=4)
        fus = decompose(tp, solver="ialm", svd_backend="auto")
        with reference_chain():
            ref = decompose(tp, solver="ialm", svd_backend="auto")
        assert np.array_equal(ref.constant.row, fus.constant.row)

    def test_decompose_rejects_non_svt_solver(self):
        tp = TPMatrix(data=_rpca_problem(n=16), n_machines=4)
        for solver in ("row_constant", "ialm"):
            with pytest.raises(TypeError, match="elementwise_backend"):
                decompose(tp, solver=solver, elementwise_backend="fused")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_full_svd_kernel_keeps_the_steps(self, solver):
        # Forcing the full SVD swaps the SVT kernel only: the one loop and
        # its elementwise steps are the same, one step per iteration.
        sink = Instrumentation("ew")
        with instrumented(sink):
            res = SOLVERS[solver](_rpca_problem(seed=31), svd_backend="exact")
        assert sink.counters["kernel.ew.steps"] == res.iterations
        assert sink.counters["kernel.svt.full_width"] == res.iterations
        assert "kernel.svt.gram" not in sink.counters


class TestStreamingShrink:
    def _seeded(self, rows):
        window = rows[:10]
        res = rpca_ialm(window, svd_backend="auto")
        dec = StreamingDecomposer(window.shape)
        dec.seed(end=10, data=window, low_rank=res.low_rank, sparse=res.sparse)
        return dec

    def test_streaming_folds_bit_identical(self):
        rows = _rpca_problem(m=30, n=50, seed=41)
        ref = self._seeded(rows)
        fus = self._seeded(rows)
        for key in range(10, 30):
            with reference_chain():
                a = ref.fold(key, rows[key])
            b = fus.fold(key, rows[key])
            assert a == b  # same fallback decision (usually None)
            if a is not None:
                break
            sa, sb = ref.export_state(), fus.export_state()
            assert np.array_equal(sa.row_err, sb.row_err)
            assert np.array_equal(sa.coeffs, sb.coeffs)
            assert np.array_equal(sa.basis, sb.basis)

    def test_scratch_rows_do_not_alias_state(self):
        # The fused shrink hands back kernel-owned scratch, which the next
        # fold overwrites; no array of the state may live in it.
        rows = _rpca_problem(m=16, n=30, seed=43)
        fus = self._seeded(rows)
        fus.fold(10, rows[10])
        st = fus.export_state()
        kept = [a.copy() for a in (st.basis, st.coeffs, st.row_err)]
        scratch = fus._ew.shrink(rows[11], 0.0)
        for arr, before in zip((st.basis, st.coeffs, st.row_err), kept):
            assert not np.shares_memory(arr, scratch)
            assert np.array_equal(arr, before)


class TestBenchFingerprint:
    def test_machine_block_records_both_cpu_counts(self):
        from repro.observability.benchrecord import (
            BENCH_SCHEMA_VERSION,
            bench_machine,
        )

        assert BENCH_SCHEMA_VERSION == 2
        machine = bench_machine()
        assert machine["cpu_count_host"] == os.cpu_count()
        if hasattr(os, "sched_getaffinity"):
            affinity = len(os.sched_getaffinity(0))
            assert machine["cpu_affinity"] == affinity
            # The governing count is the schedulable one, never the
            # (potentially over-reported) host count.
            assert machine["cpu_count"] == affinity
        else:
            assert machine["cpu_affinity"] is None
            assert machine["cpu_count"] == os.cpu_count()
