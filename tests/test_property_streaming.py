"""Property-based tests for streaming RPCA (hypothesis).

Three invariants the v1.1 streaming mode promises, checked over generated
snapshot streams rather than hand-picked traces:

1. **Tolerance is honored in service.** For any generated trace and window
   length, every decomposition a streaming session serves — fold or
   fallback — reconstructs the window within the certified drift tolerance
   of what a cold batch re-solve reconstructs (fallback re-solves *are*
   that re-solve, bit for bit; a fold's model may split low-rank vs sparse
   differently from the oracle, but what it explains must agree).
2. **Checkpoint splits are invisible.** Cutting the fold stream at *any*
   point, pushing the streaming state through a real checkpoint file and
   rebuilding a fresh engine yields folds bit-identical to the uncut run.
3. **Fallback restores bit-parity.** Whatever state the stream was in when
   a fallback fires, the recovery calibrate is bit-identical to a cold
   :func:`~repro.core.decompose.decompose` of the same window.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.engine import DecompositionEngine
from repro.core.options import SolveOptions
from repro.core.streaming import (
    StreamingConfig,
    _robust_tau,
    stream_state_from_payload,
    stream_state_to_payload,
)
from repro.core.svd_ops import soft_threshold
from repro.persistence import read_checkpoint, write_checkpoint
from repro.persistence.state import STATE_SCHEMA_VERSION

MB = 1024 * 1024


@st.composite
def scenarios(draw):
    """A small trace plus a window length: one streaming session's world."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_machines = draw(st.integers(min_value=4, max_value=6))
    time_step = draw(st.integers(min_value=3, max_value=6))
    slides = draw(st.integers(min_value=2, max_value=8))
    volatility = draw(st.floats(min_value=0.01, max_value=0.3))
    trace = generate_trace(
        TraceConfig(
            n_machines=n_machines,
            n_snapshots=time_step + slides,
            dynamics=DynamicsConfig(volatility_sigma=volatility),
        ),
        seed=seed,
    )
    return trace, time_step


def _run_stream(engine, trace, time_step):
    """Drive every slide; yield (end, decomposition, was_fold)."""
    engine.calibrate(time_step)
    for end in range(time_step + 1, trace.n_snapshots + 1):
        if engine.stream_plan(end) == "fold":
            dec, _reason = engine.stream_fold(end)
            if dec is not None:
                yield end, dec, True
                continue
        yield end, engine.calibrate(end), False


class TestStreamingStaysWithinTolerance:
    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_every_served_window_tracks_the_batch_oracle(self, scenario):
        trace, time_step = scenario
        engine = DecompositionEngine(
            trace, nbytes=8 * MB, time_step=time_step,
            options=SolveOptions(mode="streaming"),
        )
        tol = engine.stream_config.tolerance
        for end, dec, was_fold in _run_stream(engine, trace, time_step):
            oracle = decompose(
                trace.tp_matrix(8 * MB, start=end - time_step, count=time_step)
            )
            if not was_fold:
                # Certified: any batch solve in streaming mode is cold.
                assert np.array_equal(dec.constant.row, oracle.constant.row)
                continue
            # The in-service model honors its own drift ceiling...
            state = engine.export_stream_state()
            assert state is not None and state.drift <= tol
            # ...and, recomputed independently, the newest row's model (its
            # low-rank row plus the fold's MAD shrinkage of the residual)
            # leaves the unexplained residual its certificate records, and
            # agrees with the batch re-solve's reconstruction of that row
            # within it, with a small slack for the oracle's own convergence
            # residual. The fold keeps no sparse window, so each row is
            # checked once, on the fold that brings it in.
            sr = oracle.solver_result
            assert sr is not None
            y = trace.tp_matrix(8 * MB, start=end - 1, count=1).data[0]
            low = (state.coeffs @ state.basis)[-1]
            resid = y - low
            stream_recon = low + soft_threshold(resid, _robust_tau(resid))
            rel_y = np.abs(y - stream_recon).sum() / np.abs(y).sum()
            assert abs(rel_y - state.row_err[-1]) <= 1e-9
            oracle_recon = (sr.low_rank + sr.sparse)[-1]
            rel = (np.abs(stream_recon - oracle_recon).sum()
                   / max(np.abs(oracle_recon).sum(), 1e-300))
            assert rel <= state.row_err[-1] + 0.02, (
                f"fold at end={end} reconstructs outside its certificate"
            )


class TestCheckpointSplitInvisible:
    @given(scenario=scenarios(), data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_split_resumes_bit_identically(self, tmp_path, scenario, data):
        trace, time_step = scenario
        ends = list(range(time_step + 1, trace.n_snapshots + 1))
        split = data.draw(
            st.integers(min_value=0, max_value=len(ends)), label="split"
        )

        # Uncut reference run, recording every served constant row.
        ref_engine = DecompositionEngine(
            trace, nbytes=8 * MB, time_step=time_step,
            options=SolveOptions(mode="streaming"),
        )
        reference = {
            end: dec.constant.row.copy()
            for end, dec, _ in _run_stream(ref_engine, trace, time_step)
        }

        # Cut run: stop after `split` slides, checkpoint the stream state,
        # rebuild a fresh engine from the file, finish the stream.
        a = DecompositionEngine(
            trace, nbytes=8 * MB, time_step=time_step,
            options=SolveOptions(mode="streaming"),
        )
        a.calibrate(time_step)
        for end in ends[:split]:
            if a.stream_plan(end) == "fold":
                dec, _reason = a.stream_fold(end)
                if dec is not None:
                    continue
            a.calibrate(end)

        state = a.export_stream_state()
        b = DecompositionEngine(
            trace, nbytes=8 * MB, time_step=time_step,
            options=SolveOptions(mode="streaming"),
        )
        if state is not None:
            arrays, meta = stream_state_to_payload(state)
            path = tmp_path / "stream.ckpt"
            write_checkpoint(
                path, arrays, {"schema": STATE_SCHEMA_VERSION, "stream": meta}
            )
            ckpt = read_checkpoint(path)
            b.import_stream_state(
                stream_state_from_payload(ckpt.arrays, ckpt.meta["stream"])
            )
            # The checkpoint channel is bit-exact.
            restored = b.export_stream_state()
            for name in ("basis", "coeffs", "row_err"):
                assert (
                    getattr(restored, name).tobytes()
                    == getattr(state, name).tobytes()
                )

        for end in ends[split:]:
            if b.stream_plan(end) == "fold":
                dec, _reason = b.stream_fold(end)
                if dec is None:
                    dec = b.calibrate(end)
            else:
                dec = b.calibrate(end)
            assert np.array_equal(dec.constant.row, reference[end]), (
                f"split at slide {split}: end={end} diverged after resume"
            )


class TestFallbackRestoresBitParity:
    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_forced_fallback_recalibration_matches_cold_decompose(
        self, scenario
    ):
        trace, time_step = scenario
        engine = DecompositionEngine(
            trace, nbytes=8 * MB, time_step=time_step,
            options=SolveOptions(mode="streaming"),
        )
        # Every fold trips the drift ceiling: IALM's seed explains most of
        # its rows to rounding (~1e-16), so a ceiling like 1e-12 can be met
        # once the row carrying its feasibility gap slides out.
        engine.stream_config = StreamingConfig(tolerance=1e-300)
        engine.calibrate(time_step)
        fallbacks = 0
        for end in range(time_step + 1, trace.n_snapshots + 1):
            if engine.stream_plan(end) == "fold":
                dec, reason = engine.stream_fold(end)
                assert dec is None, "1e-300 drift ceiling cannot be met"
                fallbacks += 1
            recal = engine.calibrate(end)
            oracle = decompose(
                trace.tp_matrix(8 * MB, start=end - time_step, count=time_step)
            )
            assert np.array_equal(recal.constant.row, oracle.constant.row)
        assert fallbacks > 0
