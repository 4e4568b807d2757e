"""Unit tests for the streaming RPCA layer (``repro.core.streaming``).

Covers the decomposer itself (seed/fold/refresh/rank growth/fallback
reasons), the persistence payload round-trip, mode validation across every
config surface, and the engine-level certification plumbing (cold-oracle
parity, streaming results never standing in for a batch solve).
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose, decomposition_from_result
from repro.core.engine import DecompositionEngine
from repro.core.options import SolveOptions
from repro.core.result import SolverResult
from repro.core.streaming import (
    ENGINE_MODES,
    StreamingConfig,
    StreamingDecomposer,
    StreamResult,
    StreamState,
    _median,
    stream_state_from_payload,
    stream_state_to_payload,
    validate_mode,
)
from repro.errors import ValidationError
from repro.observability import Instrumentation, instrumented

MB = 1024 * 1024


def _rank1_stream(m=6, n=40, total=30, noise=1e-4, seed=0):
    """Synthetic near-rank-1 rows: a fixed profile scaled per snapshot."""
    rng = np.random.default_rng(seed)
    profile = 1.0 + rng.random(n)
    scales = 1.0 + 0.05 * rng.standard_normal(total)
    rows = scales[:, None] * profile[None, :]
    rows += noise * rng.standard_normal((total, n))
    return rows


def _seeded(rows, m=6, config=None):
    """Decomposer seeded from a batch solve of the first *m* rows."""
    window = rows[:m]
    res = decompose_window(window)
    dec = StreamingDecomposer((m, rows.shape[1]), config)
    dec.seed(end=m, data=window, low_rank=res[0], sparse=res[1])
    return dec


def decompose_window(window):
    from repro.core.solvers import solve_rpca

    res = solve_rpca(window, solver="ialm")
    return res.low_rank, res.sparse


class TestModeValidation:
    def test_known_modes(self):
        assert ENGINE_MODES == ("batch", "streaming")
        for mode in ENGINE_MODES:
            assert validate_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown engine mode"):
            validate_mode("online")

    @pytest.mark.parametrize("bad", [
        {"tolerance": 0.0},
        {"tolerance": -1.0},
        {"refresh_every": 0},
        {"passes": 0},
        {"growth_tol": -0.1},
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ValidationError):
            StreamingConfig(**bad)

    def test_engine_rejects_knobs_in_batch_mode(self, tiny_trace):
        # The stream knobs are retired: neither the options nor the engine
        # take them, in batch mode or any other.
        for knob, value in (("stream_tolerance", 0.1), ("stream_refresh_every", 4)):
            with pytest.raises(TypeError, match=knob):
                SolveOptions(**{knob: value})
            with pytest.raises(TypeError, match=knob):
                DecompositionEngine(
                    tiny_trace, nbytes=MB, time_step=4, **{knob: value}
                )


class TestStreamResultQuarantine:
    def test_stream_result_is_not_a_solver_result(self):
        r = StreamResult(
            low_rank=np.ones((2, 4)),
            rank=1, iterations=2, converged=True, residual=0.0,
        )
        assert not isinstance(r, SolverResult)
        assert not hasattr(r, "sparse")

    def test_decomposition_from_stream_result_keeps_no_solver_result(
        self, tiny_trace
    ):
        tp = tiny_trace.tp_matrix(MB, start=0, count=4)
        low_rank, _sparse = decompose_window(tp.data)
        r = StreamResult(
            low_rank=low_rank, rank=1,
            iterations=2, converged=True, residual=0.0,
        )
        dec = decomposition_from_result(tp, r, solver="ialm")
        assert dec.solver_result is None


class TestFold:
    def test_folds_track_a_stable_stream(self):
        rows = _rank1_stream()
        dec = _seeded(rows)
        for k in range(6, rows.shape[0]):
            assert dec.fold(k, rows[k]) is None
        st = dec.state
        assert st.end == rows.shape[0]
        assert st.updates == rows.shape[0] - 6
        assert st.window_shape == (6, rows.shape[1])
        assert st.drift <= dec.config.tolerance

    def test_fold_reconstruction_explains_the_window(self):
        rows = _rank1_stream()
        dec = _seeded(rows)
        for k in range(6, rows.shape[0]):
            assert dec.fold(k, rows[k]) is None
        res = dec.as_result()
        window = rows[-6:]
        # A spike-free stream: the low-rank part alone explains the window.
        unexplained = window - res.low_rank
        rel = np.abs(unexplained).sum() / np.abs(window).sum()
        assert rel <= dec.config.tolerance

    def test_sparse_spike_lands_in_sparse_not_subspace(self):
        rows = _rank1_stream()
        spiked = rows[6].copy()
        spiked[3] *= 50.0  # one-entry interference burst
        # 3 projection/shrinkage alternations: enough for a burst this hard
        # to converge into the sparse term (2, the default, suffices for
        # trace-scale spikes but lets an extreme one leak into a rank-1
        # growth instead — still safe, just not what this test pins).
        dec = _seeded(rows, config=StreamingConfig(passes=3))
        rank_before = dec.state.rank
        assert dec.fold(6, spiked) is None
        st = dec.state
        assert st.rank == rank_before  # no subspace pollution
        # The spike is absorbed as sparse: the model's row stays near the
        # clean one, and what neither explains is small.
        low_rank_row = dec.as_result().low_rank[-1]
        assert spiked[3] - low_rank_row[3] > 1.0
        assert abs(low_rank_row[3] - rows[6, 3]) < 0.1
        assert st.row_err[-1] <= dec.config.growth_tol

    def test_refresh_cadence_and_counter(self):
        rows = _rank1_stream(total=30)
        dec = _seeded(rows, config=StreamingConfig(refresh_every=4))
        sink = Instrumentation("t")
        with instrumented(sink):
            for k in range(6, 18):
                assert dec.fold(k, rows[k]) is None
        assert sink.counters["kernel.stream.refreshes"] == 3

    def test_rank_growth_within_predictor_bound(self):
        rows = _rank1_stream(noise=0.0)
        dec = _seeded(rows)
        # A direction orthogonal to the near-rank-1 profile, large enough
        # to exceed growth_tol but structured (not sparse): rank must grow.
        novel = rows[6].copy()
        novel[: 20] *= 1.5
        rank_before = dec.state.rank
        sink = Instrumentation("t")
        with instrumented(sink):
            reason = dec.fold(6, novel)
        assert reason is None
        assert dec.state.rank == rank_before + 1
        assert sink.counters["kernel.stream.rank_growths"] == 1

    def test_rank_fallback_past_predictor_bound(self):
        rows = _rank1_stream(noise=0.0)
        dec = _seeded(rows)
        rng = np.random.default_rng(5)
        reason = None
        # Keep injecting fresh orthogonal structure; the predictor's bound
        # (seed rank + 1 until a refresh re-observes) must eventually trip.
        for k in range(6, 12):
            novel = rows[k] * (1.0 + 0.8 * rng.random(rows.shape[1]))
            reason = dec.fold(k, novel)
            if reason is not None:
                break
        assert reason == "rank"
        assert dec.state is None

    def test_drift_fallback(self):
        rows = _rank1_stream()
        dec = _seeded(rows, config=StreamingConfig(tolerance=1e-9))
        reason = dec.fold(6, rows[6])
        assert reason == "drift"
        assert dec.state is None

    def test_fold_without_seed_raises(self):
        dec = StreamingDecomposer((4, 10))
        with pytest.raises(ValidationError, match="not seeded"):
            dec.fold(4, np.ones(10))
        with pytest.raises(ValidationError, match="not seeded"):
            dec.as_result()


class TestStatePersistence:
    def test_payload_round_trip_is_bit_exact(self):
        rows = _rank1_stream()
        dec = _seeded(rows)
        for k in range(6, 10):
            dec.fold(k, rows[k])
        st = dec.export_state()
        arrays, meta = stream_state_to_payload(st)
        back = stream_state_from_payload(
            {k: v.copy() for k, v in arrays.items()}, dict(meta)
        )
        assert sorted(arrays) == ["stream_basis", "stream_coeffs", "stream_row_err"]
        for name in ("basis", "coeffs", "row_err"):
            assert getattr(back, name).tobytes() == getattr(st, name).tobytes()
        assert back.end == st.end and back.updates == st.updates
        assert back.predictor.sv == st.predictor.sv
        assert back.predictor.observations == st.predictor.observations

    def test_imported_state_folds_bit_identically(self):
        rows = _rank1_stream(total=30)
        a = _seeded(rows)
        for k in range(6, 12):
            assert a.fold(k, rows[k]) is None
        arrays, meta = stream_state_to_payload(a.export_state())
        b = StreamingDecomposer(a.shape, a.config)
        b.import_state(stream_state_from_payload(arrays, meta))
        for k in range(12, rows.shape[0]):
            assert a.fold(k, rows[k]) is None
            assert b.fold(k, rows[k]) is None
        ra, rb = a.as_result(), b.as_result()
        assert np.array_equal(ra.low_rank, rb.low_rank)
        assert np.array_equal(ra.constant_row, rb.constant_row)
        assert a.state.row_err.tobytes() == b.state.row_err.tobytes()

    def test_legacy_payload_with_sparse_window_and_keys_loads(self):
        """Checkpoints and capsules written with the retired ``stream_sparse``
        and ``stream_keys`` arrays load; the two are ignored."""
        rows = _rank1_stream(total=30)
        a = _seeded(rows)
        for k in range(6, 12):
            assert a.fold(k, rows[k]) is None
        arrays, meta = stream_state_to_payload(a.export_state())
        legacy = dict(
            arrays,
            stream_sparse=np.zeros((6, rows.shape[1])),
            stream_keys=np.arange(6, 12, dtype=np.int64),
        )
        b = StreamingDecomposer(a.shape, a.config)
        b.import_state(stream_state_from_payload(legacy, meta))
        for k in range(12, rows.shape[0]):
            assert a.fold(k, rows[k]) is None
            assert b.fold(k, rows[k]) is None
        assert a.as_result().constant_row.tobytes() == b.as_result().constant_row.tobytes()

    def test_state_pickles_its_fields(self):
        import pickle

        rows = _rank1_stream()
        dec = _seeded(rows)
        for k in range(6, 9):
            dec.fold(k, rows[k])
        st = dec.export_state()
        back = pickle.loads(pickle.dumps(st))
        assert set(st.__getstate__()) == {
            "basis", "coeffs", "row_err", "end", "updates", "predictor",
        }
        for name in ("basis", "coeffs", "row_err"):
            assert getattr(back, name).tobytes() == getattr(st, name).tobytes()
        assert (back.end, back.updates, back.rank) == (st.end, st.updates, st.rank)
        # A state pickled with the retired sparse window and key list loads.
        legacy = dict(
            st.__getstate__(),
            sparse=np.zeros((6, rows.shape[1])),
            keys=np.arange(3, 9, dtype=np.int64),
        )
        old = StreamState.__new__(StreamState)
        old.__setstate__(legacy)
        assert old.coeffs.tobytes() == st.coeffs.tobytes()
        assert not hasattr(old, "sparse") and not hasattr(old, "keys")

    def test_import_rejects_wrong_shape(self):
        rows = _rank1_stream()
        dec = _seeded(rows)
        other = StreamingDecomposer((6, 13))
        with pytest.raises(ValidationError, match="does not fit"):
            other.import_state(dec.export_state())


@pytest.fixture()
def stream_trace():
    return generate_trace(
        TraceConfig(n_machines=6, n_snapshots=20), seed=11
    )


class TestEngineStreaming:
    def test_plan_lifecycle(self, stream_trace):
        eng = DecompositionEngine(
            stream_trace, nbytes=MB, time_step=8,
            options=SolveOptions(mode="streaming"),
        )
        assert eng.stream_plan(9) == "solve"  # unseeded
        eng.calibrate(8)
        assert eng.stream_plan(9) == "fold"
        assert eng.stream_plan(11) == "solve"  # gap
        assert eng.stream_plan(21) == "solve"  # past the trace
        with pytest.raises(ValidationError, match="cannot fold"):
            eng.stream_fold(11)

    def test_plan_requires_streaming_mode(self, stream_trace):
        eng = DecompositionEngine(stream_trace, nbytes=MB, time_step=8)
        with pytest.raises(ValidationError, match="mode='streaming'"):
            eng.stream_plan(9)

    def test_fold_matches_oracle_within_tolerance_and_counts(self, stream_trace):
        sink = Instrumentation("t")
        eng = DecompositionEngine(
            stream_trace, nbytes=MB, time_step=8,
            options=SolveOptions(mode="streaming"),
            instrumentation=sink,
        )
        eng.calibrate(8)
        folds = 0
        for end in range(9, 21):
            if eng.stream_plan(end) != "fold":
                eng.calibrate(end)
                continue
            dec, reason = eng.stream_fold(end)
            if dec is None:
                eng.calibrate(end)
                continue
            folds += 1
            assert dec.solver_result is None
            oracle = decompose(
                stream_trace.tp_matrix(MB, start=end - 8, count=8)
            )
            scale = float(np.abs(oracle.constant.row).max())
            diff = float(np.abs(dec.constant.row - oracle.constant.row).max())
            assert diff <= eng.stream_config.tolerance * scale
        assert folds > 0
        assert sink.counters["kernel.stream.updates"] == folds
        assert sink.timers["kernel.stream.update_seconds"] > 0.0

    def test_fallback_calibrate_is_bit_identical_to_cold_oracle(
        self, stream_trace
    ):
        eng = DecompositionEngine(
            stream_trace, nbytes=MB, time_step=8,
            options=SolveOptions(mode="streaming"),
        )
        # every fold trips the drift ceiling
        eng.stream_config = StreamingConfig(tolerance=1e-9)
        eng.calibrate(8)
        dec, reason = eng.stream_fold(9)
        assert dec is None and reason == "drift"
        recal = eng.calibrate(9)
        oracle = decompose(stream_trace.tp_matrix(MB, start=1, count=8))
        assert np.array_equal(recal.constant.row, oracle.constant.row)

    def test_importing_no_state_drops_stream(self, stream_trace):
        # What a regime SHIFT does before its re-calibration.
        eng = DecompositionEngine(
            stream_trace, nbytes=MB, time_step=8,
            options=SolveOptions(mode="streaming"),
        )
        eng.calibrate(8)
        assert eng.export_stream_state() is not None
        eng.import_stream_state(None)
        assert eng.export_stream_state() is None
        assert eng.stream_plan(9) == "solve"

    def test_import_stream_state_requires_streaming_mode(self, stream_trace):
        streaming = DecompositionEngine(
            stream_trace, nbytes=MB, time_step=8,
            options=SolveOptions(mode="streaming"),
        )
        streaming.calibrate(8)
        batch = DecompositionEngine(stream_trace, nbytes=MB, time_step=8)
        with pytest.raises(ValidationError, match="streaming"):
            batch.import_stream_state(streaming.export_stream_state())


class TestMedianHelper:
    """``_median`` replaces ``np.median`` in the MAD threshold; it must be
    the same number bit for bit, or folds would drift from the old ones."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, -7.25, 5e-324, -5e-324]),
            min_size=1, max_size=40,
        )
    )
    def test_ties_and_signed_zeros(self, values):
        x = np.array(values, dtype=np.float64)
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e300, max_value=1e300, width=64),
            min_size=1, max_size=60,
        )
    )
    def test_arbitrary_finite_values(self, values):
        x = np.array(values, dtype=np.float64)
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()

    @pytest.mark.parametrize("n", [38416, 38417])
    def test_row_sized_inputs(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        x[::7] = np.round(x[::7])  # ties, and zeros of both signs
        x[::11] *= -0.0
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()


def _svd_refresh(coeffs, basis):
    """Re-factor ``coeffs · basis`` by an SVD of the full reconstruction —
    the refresh the thin-QR one replaced."""
    u, s, vt = np.linalg.svd(coeffs @ basis, full_matrices=False)
    r = max(1, int((s > s[0] * 1e-9).sum())) if s.size and s[0] > 0.0 else 1
    return u[:, :r] * s[:r], vt[:r]


class TestRefreshAndRow:
    def _check_refresh(self, dec):
        st_ = dec.state
        coeffs, basis = st_.coeffs.copy(), st_.basis.copy()
        ref_coeffs, ref_basis = _svd_refresh(coeffs, basis)
        dec._refresh(st_)
        recon = st_.coeffs @ st_.basis
        ref = ref_coeffs @ ref_basis
        assert st_.rank == ref_basis.shape[0]
        assert np.abs(recon - ref).max() <= 1e-12 * np.abs(ref).max()
        # Still an orthonormal basis.
        gram = st_.basis @ st_.basis.T
        assert np.abs(gram - np.eye(st_.rank)).max() <= 1e-12

    def test_qr_refresh_matches_svd_refresh(self):
        rows = _rank1_stream(noise=1e-3)
        dec = _seeded(rows)
        for k in range(6, 12):
            assert dec.fold(k, rows[k]) is None
        self._check_refresh(dec)

    def test_qr_refresh_matches_svd_refresh_after_rank_growth(self):
        rows = _rank1_stream(noise=0.0)
        dec = _seeded(rows)
        novel = rows[6].copy()
        novel[:20] *= 1.5
        rank_before = dec.state.rank
        assert dec.fold(6, novel) is None
        assert dec.state.rank == rank_before + 1
        self._check_refresh(dec)
        assert dec.state.rank == rank_before + 1

    def test_streamed_row_is_the_reconstruction_column_mean(self):
        rows = _rank1_stream(noise=1e-3)
        dec = _seeded(rows, config=StreamingConfig(refresh_every=4))
        for k in range(6, rows.shape[0]):
            assert dec.fold(k, rows[k]) is None
            res = dec.as_result()
            mean = res.low_rank.mean(axis=0)
            rel = np.linalg.norm(res.constant_row - mean) / np.linalg.norm(mean)
            assert rel <= 1e-12

    def test_other_extractions_read_the_reconstruction(self):
        rows = _rank1_stream()
        dec = _seeded(rows)
        assert dec.fold(6, rows[6]) is None
        res = dec.as_result("median")
        assert res.constant_row is None
        st_ = dec.state
        assert np.array_equal(res.low_rank, st_.coeffs @ st_.basis)

    def test_non_finite_row_is_refused_before_folding(self):
        rows = _rank1_stream()
        dec = _seeded(rows)
        before = dec.state.end
        bad = rows[6].copy()
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            dec.fold(6, bad)
        assert dec.state.end == before


class TestLazyErrorInStreamingSessions:
    def test_folds_never_build_the_error_and_a_capsule_resumes_bitwise(
        self, monkeypatch
    ):
        from repro.runtime.session import TraceSession

        # The package re-exports a function of the same name as the module.
        decompose_mod = importlib.import_module("repro.core.decompose")

        trace = generate_trace(TraceConfig(n_machines=8, n_snapshots=70), seed=3)
        builds = []
        real = decompose_mod.stability_report

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(decompose_mod, "stability_report", counting)
        session = TraceSession(trace, time_step=8, mode="streaming")
        reference = TraceSession(trace, time_step=8, mode="streaming")
        while session.stats.stream_updates < 50:
            k = session.stats.operations
            assert k < 60, "too many fallbacks to reach 50 folds"
            session.broadcast(root=k % 8)
            reference.broadcast(root=k % 8)
        assert builds == []  # neither session read an error component

        capsule = session.capture_capsule()
        assert len(builds) == 1
        assert capsule.norm_ne == session.norm_ne
        resumed = TraceSession.from_capsule(trace, capsule)
        for k in range(session.stats.operations, 70):
            resumed.broadcast(root=k % 8)
            reference.broadcast(root=k % 8)
        assert resumed.stats == reference.stats
        assert (
            resumed.decomposition.constant.row.tobytes()
            == reference.decomposition.constant.row.tobytes()
        )
        assert resumed.norm_ne == reference.norm_ne
        assert (
            resumed.decomposition.error.data.tobytes()
            == reference.decomposition.error.data.tobytes()
        )


class TestIalmSeed:
    """A stream seeded from an IALM solve keeps the window's rank.

    IALM stops on feasibility, so its D keeps singular values at 1e-5 to
    1e-7 of σ₁. Seeded with them, a stream ran at rank 3-4 and every fold
    turned P_D slightly, so the serving path rebuilt far more FNF trees
    than under a solver whose D is rank one to rounding.
    """

    def test_paper_scale_seed_is_rank_one(self):
        trace = generate_trace(TraceConfig(n_machines=196, n_snapshots=10), seed=1)
        tp = trace.tp_matrix(8 * MB, count=10)
        res = decompose(tp, solver="ialm").solver_result
        assert np.linalg.svd(res.low_rank, compute_uv=False)[1] > 0.0
        seed = StreamingDecomposer(tp.data.shape).prepare_seed(
            tp.data, res.low_rank, res.sparse
        )
        assert seed.rank == 1

    def test_one_pass_builds_no_more_trees_than_a_rank_one_seed(self, monkeypatch):
        import repro.runtime.session as session_module
        from repro.cloudsim.dynamics import DynamicsConfig
        from repro.runtime.session import TraceSession

        trace = generate_trace(
            TraceConfig(
                n_machines=64, n_snapshots=200,
                dynamics=DynamicsConfig(hotspot_probability=0.0),
            ),
            seed=5,
        )
        roots = np.random.default_rng(3).integers(64, size=200).tolist()
        built = []
        original = session_module.fnf_tree

        def counting(weights, root=0):
            built.append(root)
            return original(weights, root)

        monkeypatch.setattr(session_module, "fnf_tree", counting)
        session = TraceSession(
            trace, threshold=1.0, mode="streaming", regime="drift", solver="ialm"
        )
        for root in roots:
            session.broadcast(root=root)
        assert session.stats.stream_updates == 199
        # 70 builds when the stream was seeded from a rank-one APG solve of
        # the same window; 132 from IALM's D before the seed truncation.
        assert len(built) <= 70

    def test_seed_truncation_is_charged_to_drift(self):
        # A rank-two D whose second component sits below the seed cutoff
        # (1e-4 of σ₁ < 1e-3): the seed serves rank one, and what it drops
        # shows in its residuals, so a drift ceiling below that loss makes
        # the first fold fall back instead of certifying the truncated model.
        rng = np.random.default_rng(0)
        m, n = 6, 40
        u, _ = np.linalg.qr(rng.standard_normal((m, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        low_rank = (u * [10.0, 1e-3]) @ v.T
        data = low_rank.copy()
        sparse = np.zeros_like(data)
        stream = StreamingDecomposer(
            (m, n), StreamingConfig(tolerance=1e-6, growth_tol=1.0)
        )
        seed = stream.prepare_seed(data, low_rank, sparse)
        assert seed.rank == 1
        assert seed.row_err.mean() > 1e-6
        stream.reseed(m, seed)
        # The new row lies on the kept component: the fold itself explains
        # it; the seed rows still in the window carry the truncation.
        assert stream.fold(m, 10.0 * v[:, 0]) == "drift"
        assert stream.state is None
