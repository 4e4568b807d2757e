"""Engine layer: rolling-window cache, cold solves, registry validation.

Covers the DecompositionEngine itself, its TraceSession integration, the
Calibrator adapter, and the solver-registry capability metadata the engine
relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import Calibrator, CalibratorWindowSource, TraceSubstrate
from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.engine import DecompositionEngine, TraceWindowSource, WindowSource
from repro.core.ialm import rpca_ialm
from repro.core.options import SolveOptions
from repro.core.result import SolverResult
from repro.core.solvers import register_solver, solve_rpca, solver_spec
from repro.errors import CalibrationError, ValidationError
from repro.observability import Instrumentation
from repro.runtime.session import TraceSession

MB = 1024 * 1024


@pytest.fixture(scope="module")
def busy_trace():
    """A trace dynamic enough to trigger many Algorithm-1 re-calibrations."""
    cfg = TraceConfig(
        n_machines=8,
        n_snapshots=30,
        dynamics=DynamicsConfig(
            volatility_sigma=0.08,
            spike_probability=0.04,
            spike_severity=2.0,
            migration_rate=0.04,
        ),
    )
    return generate_trace(cfg, seed=99)


class TestWindowCache:
    def test_window_byte_identical_to_tp_matrix(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB)
        for start, stop in [(0, 10), (3, 13), (5, 24)]:
            direct = small_trace.tp_matrix(8 * MB, start=start, count=stop - start)
            win = eng.window(start, stop)
            assert win.data.tobytes() == direct.data.tobytes()
            assert win.timestamps.tolist() == direct.timestamps.tolist()
            assert win.n_machines == direct.n_machines

    @pytest.mark.parametrize("n_machines", [2, 8])
    def test_snapshot_rows_byte_identical_to_tp_matrix(self, n_machines):
        trace = generate_trace(
            TraceConfig(n_machines=n_machines, n_snapshots=6), seed=5
        )
        src = TraceWindowSource(trace)
        direct = trace.tp_matrix(8 * MB).data
        for k in range(trace.n_snapshots):
            assert src.snapshot_row(k, 8 * MB).tobytes() == direct[k].tobytes()

    def test_masked_trace_rows_byte_identical_to_tp_matrix(self, small_trace):
        from repro.faults import ProbeLoss, inject_faults

        trace = inject_faults(small_trace, [ProbeLoss(0.2)], seed=3).trace
        assert trace.mask is not None
        eng = DecompositionEngine(trace, nbytes=8 * MB)
        direct = trace.tp_matrix(8 * MB, start=2, count=10)
        win = eng.window(2, 12)
        assert win.data.tobytes() == direct.data.tobytes()
        assert win.mask.tobytes() == direct.mask.tobytes()

    def test_overlapping_windows_hit_cache(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB)
        eng.window(0, 10)
        assert eng.instrumentation.counters["engine.window.miss"] == 10
        eng.window(2, 12)
        assert eng.instrumentation.counters["engine.window.hit"] == 8
        assert eng.instrumentation.counters["engine.window.miss"] == 12

    def test_lru_bound_evicts(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB, max_cached_rows=5)
        eng.window(0, 10)
        assert len(eng._rows) == 5
        # Rows 5..9 are resident; re-reading them costs no misses.
        misses = eng.instrumentation.counters["engine.window.miss"]
        eng.window(5, 10)
        assert eng.instrumentation.counters["engine.window.miss"] == misses

    def test_invalid_window_rejected(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB)
        with pytest.raises(ValidationError):
            eng.window(5, 5)
        with pytest.raises(ValidationError):
            eng.window(0, small_trace.n_snapshots + 1)

    def test_trace_window_source_protocol(self, tiny_trace):
        src = TraceWindowSource(tiny_trace)
        assert isinstance(src, WindowSource)
        assert src.n_machines == tiny_trace.n_machines
        assert src.n_snapshots == tiny_trace.n_snapshots

    def test_bad_source_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            DecompositionEngine(object(), nbytes=8 * MB)


class TestWarmStart:
    """There is no warm start: every engine solve is a cold solve of its
    window, bitwise equal to :func:`~repro.core.decompose.decompose`."""

    def test_ialm_chain_stays_on_the_cold_answer(self):
        """A 64-instance IALM re-calibration chain serves the cold P_D.

        With warm starts (8 ρ-steps up the penalty ramp) this chain's
        constant row sat 22–27% from a cold solve of the same window after
        5, 10 and 15 windows, at rank 10: feasibility converged before the
        low-rank/sparse split did. IALM now solves every window cold.
        """
        trace = generate_trace(TraceConfig(n_machines=64, n_snapshots=60), seed=7)
        chain = DecompositionEngine(trace, nbytes=8 * MB)
        chain.calibrate(10)
        for end in range(11, 26):
            dec = chain.calibrate(end)
            if (end - 10) % 5:
                continue
            want = decompose(trace.tp_matrix(8 * MB, start=end - 10, count=10))
            assert np.array_equal(dec.constant.row, want.constant.row), end
        assert "engine.solve.warm" not in chain.instrumentation.counters

    @pytest.mark.parametrize("solver,tol", [("ialm", 0.2)])
    def test_warm_solution_close_to_cold(self, small_trace, solver, tol):
        """An engine that re-calibrates lands on a fresh engine's answer for
        the same window exactly: the earlier solve leaves no state behind."""
        chain = DecompositionEngine(
            small_trace, nbytes=8 * MB, options=SolveOptions(solver=solver)
        )
        chain.calibrate(10)
        d_chain = chain.calibrate(12)
        d_cold = DecompositionEngine(
            small_trace, nbytes=8 * MB, options=SolveOptions(solver=solver)
        ).calibrate(12)
        w_chain = d_chain.performance_matrix().weights
        w_cold = d_cold.performance_matrix().weights
        drift = np.linalg.norm(w_chain - w_cold) / np.linalg.norm(w_cold)
        assert drift < tol
        assert np.array_equal(w_chain, w_cold)
        assert chain.instrumentation.counters["engine.solve.cold"] == 2

    def test_first_solve_is_cold(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB)
        dec = eng.calibrate(10)
        assert eng.last is dec
        assert eng.instrumentation.counters["engine.solve.cold"] == 1

    def test_shape_change_falls_back_to_cold(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB, time_step=10)
        eng.calibrate(10)
        # A shorter head window (fewer rows) solves on its own.
        dec = eng.solve(eng.window(0, 6))
        want = decompose(small_trace.tp_matrix(8 * MB, start=0, count=6))
        assert np.array_equal(dec.constant.row, want.constant.row)

    def test_exact_solver_ignores_warm_start(self, small_trace):
        """row_constant solves every window cold, like every solver."""
        eng = DecompositionEngine(
            small_trace, nbytes=8 * MB, options=SolveOptions(solver="row_constant")
        )
        eng.calibrate(10)
        eng.calibrate(12)
        assert "engine.solve.warm" not in eng.instrumentation.counters
        assert eng.instrumentation.counters["engine.solve.cold"] == 2


class TestSolverWarmStartAPI:
    def test_ialm_refuses_warm_start(self, small_trace):
        a = small_trace.tp_matrix(8 * MB, start=0, count=10).data
        cold = rpca_ialm(a)
        with pytest.raises(TypeError, match="warm_start"):
            solve_rpca(a, solver="ialm", warm_start=cold)
        with pytest.raises(TypeError, match="warm_start"):
            rpca_ialm(a, warm_start=cold)


class TestRegistryValidation:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("ialm", rpca_ialm)

    def test_overwrite_allows_replacement(self):
        original = solver_spec("ialm")
        try:
            register_solver("ialm", rpca_ialm, overwrite=True)
        finally:
            register_solver("ialm", original.fn, overwrite=True)
        assert solver_spec("ialm").fn is rpca_ialm

    @pytest.mark.parametrize("name", ["", None, 3])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError, match="non-empty string"):
            register_solver(name, rpca_ialm)

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            register_solver("not_a_solver", 42)

    def test_unsupported_kwargs_raise(self, tiny_trace):
        a = tiny_trace.tp_matrix(8 * MB).data
        with pytest.raises(TypeError, match="does not accept"):
            solve_rpca(a, solver="pca", tol=1e-9)
        with pytest.raises(TypeError, match="warm_start"):
            solve_rpca(a, solver="row_constant", warm_start=None)

    def test_supported_kwargs_pass(self, tiny_trace):
        a = tiny_trace.tp_matrix(8 * MB).data
        res = solve_rpca(a, solver="ialm", tol=1e-6, max_iter=50)
        assert isinstance(res, SolverResult)

    def test_engine_validates_at_construction(self, small_trace):
        with pytest.raises(ValueError, match="unknown RPCA solver"):
            DecompositionEngine(
                small_trace, nbytes=8 * MB, options=SolveOptions(solver="nope")
            )
        with pytest.raises(TypeError, match="does not accept"):
            DecompositionEngine(
                small_trace, nbytes=8 * MB, options=SolveOptions(solver="pca"), tol=1e-9
            )

    def test_capability_metadata(self):
        assert not solver_spec("ialm").exact_row_constant
        assert "mask" in solver_spec("ialm").accepted_kwargs
        assert solver_spec("row_constant").exact_row_constant
        assert solver_spec("pca").exact_row_constant


class TestSessionIntegration:
    N_OPS = 120

    def _replay(self, trace):
        session = TraceSession(trace)
        for i in range(self.N_OPS):
            session.broadcast(root=i % trace.n_machines)
        return session

    def test_epochs_count_cursor_wraps(self, busy_trace):
        session = self._replay(busy_trace)
        # 120 ops over a 20-snapshot evaluation window wrap exactly 6 times.
        n_eval = busy_trace.n_snapshots - session.time_step
        assert session.stats.epochs == self.N_OPS // n_eval
        fresh = TraceSession(busy_trace)
        assert fresh.stats.epochs == 0

    def test_session_shares_caller_sink(self, small_trace):
        instr = Instrumentation("mine")
        session = TraceSession(small_trace, instrumentation=instr)
        assert session.instrumentation is instr
        assert instr.solves == 1  # the initial calibration


class TestCalibratorAdapter:
    def test_engine_window_matches_calibrate(self, tiny_trace):
        cal = Calibrator(TraceSubstrate(tiny_trace))
        eng = cal.engine(nbytes=8 * MB, time_step=5)
        direct = cal.calibrate(range(2, 8), 8 * MB)
        assert eng.window(2, 8).data.tobytes() == direct.data.tobytes()

    def test_snapshot_cache_stops_reprobing(self, tiny_trace):
        class CountingSubstrate(TraceSubstrate):
            rounds = 0

            def measure_round(self, pairs, snapshot):
                type(self).rounds += 1
                return super().measure_round(pairs, snapshot)

        sub = CountingSubstrate(tiny_trace)
        cal = Calibrator(sub, cache_snapshots=True)
        cal.calibrate_snapshot(0)
        taken = CountingSubstrate.rounds
        assert taken > 0
        cal.calibrate_snapshot(0)
        assert CountingSubstrate.rounds == taken

    def test_cached_snapshot_pins_noisy_measurements(self, tiny_trace):
        cal = Calibrator(
            TraceSubstrate(tiny_trace, measurement_noise=0.2, seed=0),
            cache_snapshots=True,
        )
        a1, b1 = cal.calibrate_snapshot(3)
        a2, b2 = cal.calibrate_snapshot(3)
        assert a1 is a2 and b1 is b2

    def test_missing_n_snapshots_needs_explicit(self, tiny_trace):
        class Bare:
            n_machines = tiny_trace.n_machines

            def measure_round(self, pairs, snapshot):
                a = tiny_trace.alpha[snapshot]
                b = tiny_trace.beta[snapshot]
                return [(float(a[s, r]), float(b[s, r])) for s, r in pairs]

        cal = Calibrator(Bare())
        with pytest.raises(CalibrationError, match="n_snapshots"):
            cal.engine(nbytes=8 * MB)
        eng = cal.engine(nbytes=8 * MB, n_snapshots=tiny_trace.n_snapshots)
        assert eng.source.n_snapshots == tiny_trace.n_snapshots

    def test_source_is_window_source(self, tiny_trace):
        cal = Calibrator(TraceSubstrate(tiny_trace))
        assert isinstance(CalibratorWindowSource(cal), WindowSource)


class TestWarmStatePickling:
    """Session state must survive process boundaries losslessly (fleet contract)."""

    def test_warm_vectors_through_shared_memory_views(self, small_trace):
        """An engine fed shm-backed trace views solves bit-identically."""
        from repro.fleet.shm import SharedTraceBlock

        plain = DecompositionEngine(small_trace, nbytes=8 * MB)
        with SharedTraceBlock.create(small_trace) as block:
            shm_trace = block.trace()
            shared = DecompositionEngine(shm_trace, nbytes=8 * MB)
            for start, stop in [(0, 10), (2, 12), (4, 14)]:
                dp = plain.calibrate(stop)
                ds = shared.calibrate(stop)
                assert np.array_equal(dp.constant.row, ds.constant.row)
                assert dp.norm_ne == ds.norm_ne

    def test_session_capsule_pickle_round_trip(self, busy_trace):
        import pickle

        interrupted = TraceSession(busy_trace, nbytes=8 * MB, time_step=10)
        control = TraceSession(busy_trace, nbytes=8 * MB, time_step=10)
        for _ in range(7):
            interrupted.broadcast(root=0)
            control.broadcast(root=0)

        capsule = pickle.loads(pickle.dumps(interrupted.capture_capsule()))
        resumed = TraceSession.from_capsule(busy_trace, capsule)
        assert resumed.stats.operations == 7
        for _ in range(8):
            resumed.broadcast(root=0)
            control.broadcast(root=0)

        assert np.array_equal(
            resumed.decomposition.constant.row,
            control.decomposition.constant.row,
        )
        assert resumed.stats.recalibrations == control.stats.recalibrations
        assert resumed.norm_ne == control.norm_ne
        assert [r.elapsed for r in resumed.stats.history] == [
            r.elapsed for r in control.stats.history
        ]

    def test_from_capsule_verifies_trace_hash_when_asked(self, busy_trace, tiny_trace):
        from repro.errors import PersistenceError

        session = TraceSession(busy_trace, nbytes=8 * MB, time_step=10)
        capsule = session.capture_capsule()
        with pytest.raises(PersistenceError, match="sha256 mismatch"):
            TraceSession.from_capsule(tiny_trace, capsule, verify_trace=True)


class TestWindowMaskFastPath:
    def test_unmasked_windows_carry_no_mask(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB)
        assert eng.window(0, 10).mask is None
        # The cached full-mask row is never materialized on the pure path.
        assert eng._full_mask_row is None

    def test_mixed_window_reuses_full_mask_row(self):
        from repro.cloudsim.trace import CalibrationTrace

        base = generate_trace(TraceConfig(n_machines=5, n_snapshots=12), seed=17)
        mask = np.ones(base.alpha.shape, dtype=bool)
        mask[3, 0, 1] = False  # exactly one partially-observed snapshot
        trace = CalibrationTrace(
            alpha=base.alpha, beta=base.beta, timestamps=base.timestamps, mask=mask
        )
        eng = DecompositionEngine(trace, nbytes=8 * MB)
        win = eng.window(0, 8)
        assert win.mask is not None
        assert not win.mask[3].all() and win.mask[0].all()
        first = eng._full_mask_row
        assert first is not None and not first.flags.writeable
        eng.window(2, 10)
        assert eng._full_mask_row is first  # reused, not reallocated


def _streaming_engine(trace, **kwargs):
    return DecompositionEngine(
        trace, nbytes=8 * MB, options=SolveOptions(mode="streaming"), **kwargs
    )


def _solve_counts(eng):
    counters = eng.instrumentation.counters
    return counters.get("engine.solve.cold", 0), counters.get("engine.solve.reused", 0)


def _assert_same_decomposition(got, want):
    assert got.constant.row.tobytes() == want.constant.row.tobytes()
    assert got.error.data.tobytes() == want.error.data.tobytes()
    assert got.norm_ne == want.norm_ne
    assert got.solver_iterations == want.solver_iterations
    assert got.solver_result.low_rank.tobytes() == want.solver_result.low_rank.tobytes()
    assert got.solver_result.sparse.tobytes() == want.solver_result.sparse.tobytes()


def _stream_bytes(eng):
    st = eng.export_stream_state()
    return (st.basis.tobytes(), st.coeffs.tobytes(), st.sparse.tobytes(),
            st.keys.tobytes(), st.row_err.tobytes(), st.end)


class TestWrapSolveReuse:
    """A streaming calibrate over the very row-cache entries of the last
    cold-solved window serves that solve's result instead of solving again."""

    def test_same_entries_reuse_the_cold_solve_bitwise(self, small_trace):
        eng = _streaming_engine(small_trace)
        first = eng.calibrate(11)
        seeded = _stream_bytes(eng)
        for end in (12, 13):
            assert eng.stream_fold(end)[0] is not None
        again = eng.calibrate(11)  # the replay wrapped back onto [1, 11)
        assert _solve_counts(eng) == (1, 1)
        assert len(eng.instrumentation.spans) == 1
        assert again.solver_result is first.solver_result
        assert eng.last is again
        _assert_same_decomposition(again, first)
        _assert_same_decomposition(
            again, decompose(small_trace.tp_matrix(8 * MB, start=1, count=10))
        )
        assert _stream_bytes(eng) == seeded
        assert "engine.solve.reused" in eng.instrumentation.report()

    def test_reimported_rows_of_equal_value_are_a_miss(self, small_trace):
        eng = _streaming_engine(small_trace)
        first = eng.calibrate(11)
        eng.import_cache(
            {k: (row.copy(), mask) for k, (row, mask) in eng.export_cache().items()}
        )
        again = eng.calibrate(11)
        assert _solve_counts(eng) == (2, 0)
        assert again.solver_result is not first.solver_result
        _assert_same_decomposition(again, first)

    def test_evicted_rows_are_a_miss(self, small_trace):
        eng = _streaming_engine(small_trace, max_cached_rows=10)
        first = eng.calibrate(11)
        eng.window(12, 22)  # evicts every row of [1, 11)
        again = eng.calibrate(11)
        assert _solve_counts(eng) == (2, 0)
        _assert_same_decomposition(again, first)

    def test_a_cache_smaller_than_the_window_never_reuses(self, small_trace):
        eng = _streaming_engine(small_trace, max_cached_rows=5)
        first = eng.calibrate(11)
        again = eng.calibrate(11)
        assert _solve_counts(eng) == (2, 0)
        _assert_same_decomposition(again, first)

    def test_masked_window_is_a_miss(self):
        from repro.cloudsim.trace import CalibrationTrace

        base = generate_trace(TraceConfig(n_machines=5, n_snapshots=12), seed=17)
        mask = np.ones(base.alpha.shape, dtype=bool)
        mask[3, 0, 1] = False
        trace = CalibrationTrace(
            alpha=base.alpha, beta=base.beta, timestamps=base.timestamps, mask=mask
        )
        eng = _streaming_engine(trace)
        first = eng.calibrate(10)
        again = eng.calibrate(10)
        assert _solve_counts(eng) == (2, 0)
        assert eng.instrumentation.counters["engine.solve.masked"] == 2
        _assert_same_decomposition(again, first)
        assert eng.export_stream_state() is None  # masked windows never seed

    def test_batch_mode_never_reuses(self, small_trace):
        eng = DecompositionEngine(small_trace, nbytes=8 * MB)
        eng.calibrate(11)
        eng.calibrate(11)
        counters = eng.instrumentation.counters
        assert counters["engine.solve.cold"] == 2
        assert "engine.solve.reused" not in counters


# Paper scale: 196 instances and a 15-snapshot trace, so a pass over the
# trace is 5 folds and the run crosses WRAPS trace wraps.
WRAP_N = 196
WRAP_PASS = 5
WRAPS = 3


def _full_record(r):
    return (
        r.op, r.snapshot, r.root, r.elapsed.hex(), r.expected.hex(),
        r.decision, r.health, r.regime,
    )


def _arrays_bytes(arrays):
    return {name: (arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in arrays.items()}


@pytest.fixture(scope="module")
def wrapped_pair():
    """One streamed session at paper scale that crosses WRAPS wraps, and the
    oracle session that re-solves every wrap."""
    from tests.oracles import AlwaysSolveSession

    trace = generate_trace(
        TraceConfig(
            n_machines=WRAP_N, n_snapshots=10 + WRAP_PASS,
            dynamics=DynamicsConfig(hotspot_probability=0.0),
        ),
        seed=21,
    )
    roots = np.random.default_rng(4).integers(WRAP_N, size=WRAP_PASS * WRAPS + 1)
    ops = ("broadcast", "scatter", "reduce", "gather")

    def run(cls):
        s = cls(trace, threshold=1.0, mode="streaming", regime="drift")
        for i, root in enumerate(roots.tolist()):
            s.run_collective(ops[i % 4], root=root)
        return s

    return run(TraceSession), run(AlwaysSolveSession)


class TestWrapReuseAtPaperScale:
    def test_session_matches_the_always_solve_oracle(self, wrapped_pair):
        session, oracle = wrapped_pair
        wraps = session.stats.epochs
        assert wraps == WRAPS
        # Only wraps re-calibrate: no fold fell back and no shift fired.
        assert session.stats.stream_fallbacks == 0
        assert session.stats.regime_shifts == 0
        assert session.stats.recalibrations == wraps
        assert [_full_record(r) for r in session.stats.history] == [
            _full_record(r) for r in oracle.stats.history
        ]
        assert session.stats == oracle.stats  # recalibrations, overhead_seconds
        assert (
            session.decomposition.constant.row.tobytes()
            == oracle.decomposition.constant.row.tobytes()
        )
        assert session.weight_matrix().tobytes() == oracle.weight_matrix().tobytes()

    def test_every_wrap_after_the_first_is_reused(self, wrapped_pair):
        session, oracle = wrapped_pair
        wraps = session.stats.epochs
        counters = session.instrumentation.counters
        assert counters["engine.solve.reused"] == wraps - 1
        assert counters["engine.solve.cold"] == 2  # boot window, first wrap
        assert len(session.instrumentation.spans) == 2
        assert "engine.solve.reused" not in oracle.instrumentation.counters
        assert oracle.instrumentation.counters["engine.solve.cold"] == wraps + 1
        fleet = Instrumentation("fleet")
        fleet.merge(session.instrumentation.state_dict())
        assert fleet.counters["engine.solve.reused"] == wraps - 1

    def test_capsule_arrays_match_the_oracle(self, wrapped_pair):
        session, oracle = wrapped_pair
        assert _arrays_bytes(session.capture_capsule().arrays) == _arrays_bytes(
            oracle.capture_capsule().arrays
        )


class TestWrapReuseAcrossResume:
    """A session rebuilt in the middle of a pass misses once at the next
    wrap and then continues exactly like the uninterrupted one."""

    OPS = 6 * 4 + 1  # 16 snapshots, window 10: 6 folds a pass, 4 wraps
    MID = 9  # two operations into the second pass

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(TraceConfig(n_machines=8, n_snapshots=16), seed=21)

    @staticmethod
    def _session(trace, cls=TraceSession, **kwargs):
        return cls(trace, threshold=1.0, mode="streaming", regime="drift", **kwargs)

    @staticmethod
    def _drive(session, stop):
        n = session.trace.n_machines
        while session.stats.operations < stop:
            k = session.stats.operations
            session.run_collective(("broadcast", "reduce")[k % 2], root=k % n)

    def _assert_parity(self, got, want):
        assert got.stats == want.stats
        assert got.decomposition.constant.row.tobytes() == (
            want.decomposition.constant.row.tobytes()
        )
        assert _arrays_bytes(got.capture_capsule().arrays) == _arrays_bytes(
            want.capture_capsule().arrays
        )

    def test_from_capsule_mid_pass(self, trace):
        from tests.oracles import AlwaysSolveSession

        reference = self._session(trace)
        self._drive(reference, self.OPS)
        assert reference.stats.epochs == 4
        assert reference.instrumentation.counters["engine.solve.reused"] == 3
        oracle = self._session(trace, AlwaysSolveSession)
        self._drive(oracle, self.OPS)
        self._assert_parity(reference, oracle)

        interrupted = self._session(trace)
        self._drive(interrupted, self.MID)
        rebuilt = TraceSession.from_capsule(trace, interrupted.capture_capsule())
        self._drive(rebuilt, self.OPS)
        # The rebuilt engine missed the first wrap after the rebuild.
        assert rebuilt.instrumentation.counters["engine.solve.reused"] == 2
        self._assert_parity(rebuilt, reference)

    def test_resume_mid_pass(self, trace, tmp_path):
        from repro.persistence import CheckpointStore, PersistenceConfig

        def persisted(name):
            return PersistenceConfig(directory=tmp_path / name, checkpoint_every=4)

        reference = self._session(trace, persistence=persisted("whole"))
        self._drive(reference, self.OPS)
        reference.close()

        crashed = self._session(trace, persistence=persisted("crashed"))
        self._drive(crashed, self.MID)  # abandoned without close()
        resumed = TraceSession.resume(
            tmp_path / "crashed", trace=trace, persistence=persisted("crashed")
        )
        assert resumed.stats.operations == self.MID
        self._drive(resumed, self.OPS)
        resumed.close()
        assert resumed.instrumentation.counters["engine.solve.reused"] == 2
        self._assert_parity(resumed, reference)

        want = CheckpointStore(str(tmp_path / "whole")).load_latest()
        got = CheckpointStore(str(tmp_path / "crashed")).load_latest()
        assert got.meta["stats"] == want.meta["stats"]
        assert _arrays_bytes(got.arrays) == _arrays_bytes(want.arrays)

    def test_reused_wraps_reseed_without_preparing_a_seed(self, trace, monkeypatch):
        # A served wrap reseeds the stream from the seed kept beside the
        # solve: no thin SVD and no sparse copy on any pass after the first.
        from repro.core.streaming import StreamingDecomposer

        prepared = []
        real = StreamingDecomposer.prepare_seed

        def counted(self, *args, **kwargs):
            prepared.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(StreamingDecomposer, "prepare_seed", counted)
        session = self._session(trace)
        self._drive(session, self.OPS)
        counters = session.instrumentation.counters
        assert counters["engine.solve.reused"] == 3
        assert len(prepared) == counters["engine.solve.cold"] == 2
        assert counters["kernel.stream.reseeds"] == 2 + 3
