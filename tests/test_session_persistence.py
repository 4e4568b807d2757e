"""Session-level crash safety: checkpoint/resume parity, fallback, guards.

These tests exercise the full recovery protocol in-process (clean stop →
``TraceSession.resume``) — the subprocess SIGKILL variant lives in
``test_chaos_recovery.py``. The bar throughout is *bit-exact parity*: a
resumed session must be indistinguishable from one that never stopped.
"""

import json
import warnings

import numpy as np
import pytest

from repro.cloudsim.io import save_trace
from repro.core.options import SolveOptions
from repro.core.detectors import CusumRegimeDetector, detector_names
from repro.errors import PersistenceError
from repro.faults import ProbeLoss
from repro.mapping.taskgraph import TaskGraph, random_task_graph
from repro.persistence import (
    PersistenceConfig,
    SnapshotJournal,
    capture_session_state,
    journal_path,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from repro.persistence import checkpoint as checkpoint_mod
from repro.persistence import state as state_mod
from repro.persistence.checkpoint import BLOCK_SEPARATOR, CheckpointStore, join_blocks
from repro.persistence.journal import unpack_float64
from repro.persistence.state import HISTORY_BLOCK_ROWS
from repro.runtime.session import TraceSession


def _graph():
    volumes = np.zeros((4, 4))
    volumes[0, 1] = 5e6
    volumes[1, 2] = 3e6
    volumes[3, 0] = 1e6
    return TaskGraph(volumes=volumes)


def _drive(session, n_ops):
    """Advance *n_ops* operations on a schedule keyed to the lifetime
    operation count, so any split across stop/resume replays identically."""
    n = session.trace.n_machines
    for _ in range(n_ops):
        k = session.stats.operations
        if k % 7 == 3:
            session.map_tasks(_graph())
        elif k % 2 == 0:
            session.broadcast(root=k % n)
        else:
            session.reduce(root=k % n)


@pytest.fixture()
def persist_cfg(small_trace, tmp_path):
    tpath = tmp_path / "trace.npz"
    save_trace(small_trace, tpath)
    return PersistenceConfig(
        directory=tmp_path / "state",
        checkpoint_every=5,
        trace_path=str(tpath),
    )


def _assert_parity(resumed, reference):
    np.testing.assert_array_equal(
        resumed.decomposition.constant.row, reference.decomposition.constant.row
    )
    assert resumed.stats == reference.stats
    assert resumed._cursor == reference._cursor
    assert resumed.norm_ne == reference.norm_ne


class TestResumeParity:
    def test_clean_stop_resume_matches_uninterrupted_run(
        self, small_trace, persist_cfg
    ):
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 20)

        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 12)
        session.close()

        resumed = TraceSession.resume(persist_cfg.directory)
        assert resumed.stats.operations == 12
        _drive(resumed, 8)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_resume_survives_corrupt_newest_checkpoint(
        self, small_trace, persist_cfg
    ):
        """Acceptance scenario: flip a byte in the newest checkpoint; the
        resume falls back to an older one and replays a longer journal
        tail to the exact same state."""
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 20)

        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 12)  # checkpoints at ops 0, 5, 10
        session.close()

        newest = sorted(persist_cfg.directory.glob("ckpt-*.ckpt"))[-1]
        blob = bytearray(newest.read_bytes())
        blob[31] ^= 0x01
        newest.write_bytes(bytes(blob))

        resumed = TraceSession.resume(persist_cfg.directory)
        assert resumed.stats.operations == 12
        assert resumed.instrumentation.counters["session.recovery.fallbacks"] == 1
        _drive(resumed, 8)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_double_resume(self, small_trace, persist_cfg):
        """Stop/resume twice — recovery must compose."""
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 18)

        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 7)
        session.close()
        mid = TraceSession.resume(persist_cfg.directory)
        _drive(mid, 6)
        mid.close()
        final = TraceSession.resume(persist_cfg.directory)
        assert final.stats.operations == 13
        _drive(final, 5)
        final.close()
        _assert_parity(final, reference)

    def test_fault_spec_round_trips_through_checkpoint(
        self, small_trace, persist_cfg
    ):
        reference = TraceSession(
            small_trace, time_step=8, faults="probe_loss=0.05", fault_seed=3
        )
        _drive(reference, 16)

        session = TraceSession(
            small_trace,
            time_step=8,
            faults="probe_loss=0.05",
            fault_seed=3,
            persistence=persist_cfg,
        )
        _drive(session, 9)
        session.close()

        resumed = TraceSession.resume(persist_cfg.directory)
        assert resumed.faults_spec == "probe_loss=0.05"
        assert resumed.fault_seed == 3
        assert resumed.fault_schedule is not None
        _drive(resumed, 7)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_model_list_faults_resume_with_explicit_models(
        self, small_trace, persist_cfg
    ):
        """Fault model *lists* have no spec string to checkpoint; the caller
        re-supplies them at resume and the remembered seed re-materializes
        the identical schedule."""
        models = [ProbeLoss(rate=0.05)]
        reference = TraceSession(
            small_trace, time_step=8, faults=models, fault_seed=11
        )
        _drive(reference, 14)

        session = TraceSession(
            small_trace,
            time_step=8,
            faults=models,
            fault_seed=11,
            persistence=persist_cfg,
        )
        _drive(session, 8)
        session.close()

        resumed = TraceSession.resume(persist_cfg.directory, faults=models)
        assert resumed.fault_seed == 11
        _drive(resumed, 6)
        resumed.close()
        _assert_parity(resumed, reference)

    @pytest.mark.parametrize("detector", detector_names())
    def test_regime_detector_state_round_trips(
        self, small_trace, persist_cfg, detector
    ):
        """Every registered detector must survive stop/resume mid-warmup,
        mid-window — the split at 9 ops lands inside whatever internal
        buffers the detector keeps."""
        reference = TraceSession(small_trace, time_step=8, regime=detector)
        _drive(reference, 15)

        session = TraceSession(
            small_trace, time_step=8, regime=detector, persistence=persist_cfg
        )
        _drive(session, 9)
        session.close()

        resumed = TraceSession.resume(persist_cfg.directory)
        assert resumed.regime_detector is not None
        assert resumed.regime_detector.name == detector
        _drive(resumed, 6)
        resumed.close()
        _assert_parity(resumed, reference)
        assert (
            resumed.regime_detector.state_dict()
            == reference.regime_detector.state_dict()
        )

    def test_legacy_bare_regime_config_checkpoint_still_resumes(
        self, small_trace, persist_cfg
    ):
        """Pre-registry checkpoints stored the CUSUM config as a bare field
        dict (no ``name`` key); ``_rebuild`` must keep accepting them."""
        session = TraceSession(
            small_trace, time_step=8, regime=True, persistence=persist_cfg
        )
        _drive(session, 9)
        session.close()

        store = CheckpointStore(persist_cfg.directory)
        ckpt = store.load_latest()
        regime = ckpt.meta["config"]["regime"]
        ckpt.meta["config"]["regime"] = dict(regime["params"])  # drop the name
        store.save(ckpt.arrays, ckpt.meta)

        resumed = TraceSession.resume(persist_cfg.directory)
        assert isinstance(resumed.regime_detector, CusumRegimeDetector)
        assert resumed.regime_detector.params() == regime["params"]
        resumed.close()

    def test_checkpoint_naming_a_jit_elementwise_backend_resumes(
        self, small_trace, persist_cfg
    ):
        """Checkpoints from releases with selectable elementwise kernels
        record the choice; one written on a host with numba says "jit".
        The key is ignored on resume, so such a checkpoint resumes onto
        the fused kernel and the run stays bit-identical."""
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 16)
        resumed = _resume_checkpoint_recording(
            small_trace, persist_cfg, elementwise_backend="jit"
        )
        _assert_parity(resumed, reference)

    @pytest.mark.parametrize("backend", ["auto", "gram"])
    def test_checkpoint_recording_a_gram_backend_resumes_silently(
        self, small_trace, persist_cfg, backend
    ):
        """``auto`` and ``gram`` sessions ran today's one loop on the Gram
        kernel: the recorded key is ignored, with no warning, and the
        resumed run equals the uninterrupted one bit for bit."""
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = _resume_checkpoint_recording(
                small_trace, persist_cfg, svd_backend=backend
            )
        _assert_parity(resumed, reference)

    def test_capsule_recording_the_auto_backend_resumes_silently(
        self, small_trace
    ):
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = _resume_capsule_recording(small_trace, "auto")
        _assert_parity(resumed, reference)

    def test_checkpoint_recording_the_exact_backend_resumes_with_warning(
        self, small_trace, persist_cfg
    ):
        """``exact`` was the default before the one-loop solvers, so most
        older checkpoints record it; that run's plain loop is gone, and the
        resume says so."""
        with pytest.warns(RuntimeWarning, match="'exact'.*'auto'"):
            resumed = _resume_checkpoint_recording(
                small_trace, persist_cfg, svd_backend="exact"
            )
        assert resumed.options == SolveOptions()

    def test_checkpoint_naming_the_retired_randomized_backend_resumes_on_auto(
        self, small_trace, persist_cfg
    ):
        """``randomized`` was retired and ``auto`` took its place. A
        checkpoint that names it resumes on ``auto`` with a RuntimeWarning
        saying so; from there the run matches an ``auto`` session."""
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 16)
        with pytest.warns(RuntimeWarning, match="randomized.*'auto'"):
            resumed = _resume_checkpoint_recording(
                small_trace, persist_cfg, svd_backend="randomized"
            )
        assert resumed.options == SolveOptions()
        _assert_parity(resumed, reference)

    def test_capsule_naming_the_retired_randomized_backend_resumes_on_auto(
        self, small_trace
    ):
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 16)
        with pytest.warns(RuntimeWarning, match="randomized.*'auto'"):
            resumed = _resume_capsule_recording(small_trace, "randomized")
        assert resumed.options == SolveOptions()
        _assert_parity(resumed, reference)


def _resume_checkpoint_recording(small_trace, persist_cfg, **recorded):
    """Run 9 operations with checkpoints, add *recorded* to the last
    checkpoint's ``config`` block as an older release wrote it, resume and
    run 7 more."""
    session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
    _drive(session, 9)
    session.close()
    store = CheckpointStore(persist_cfg.directory)
    ckpt = store.load_latest()
    ckpt.meta["config"].update(recorded)
    store.save(ckpt.arrays, ckpt.meta)
    resumed = TraceSession.resume(persist_cfg.directory)
    assert resumed.stats.operations == 9
    _drive(resumed, 7)
    resumed.close()
    return resumed


def _resume_capsule_recording(small_trace, backend):
    """The capsule analogue: 9 operations, record *backend*, restore, 7 more."""
    session = TraceSession(small_trace, time_step=8)
    _drive(session, 9)
    capsule = session.capture_capsule()
    capsule.meta["config"]["svd_backend"] = backend
    resumed = TraceSession.from_capsule(small_trace, capsule)
    _drive(resumed, 7)
    return resumed


class TestGuards:
    def test_fresh_session_refuses_occupied_directory(
        self, small_trace, persist_cfg
    ):
        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 3)
        session.close()
        with pytest.raises(PersistenceError, match="already holds"):
            TraceSession(small_trace, time_step=8, persistence=persist_cfg)

    def test_resume_rejects_wrong_trace(self, small_trace, persist_cfg):
        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 4)
        session.close()
        other = type(small_trace)(
            alpha=small_trace.alpha * 1.000001,
            beta=small_trace.beta,
            timestamps=small_trace.timestamps,
        )
        with pytest.raises(PersistenceError, match="sha256"):
            TraceSession.resume(persist_cfg.directory, trace=other)

    def test_resume_without_trace_path_needs_explicit_trace(
        self, small_trace, tmp_path
    ):
        cfg = PersistenceConfig(directory=tmp_path / "state", checkpoint_every=5)
        session = TraceSession(small_trace, time_step=8, persistence=cfg)
        _drive(session, 4)
        session.close()
        with pytest.raises(PersistenceError, match="no trace path"):
            TraceSession.resume(cfg.directory)
        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        assert resumed.stats.operations == 4
        resumed.close()

    def test_resume_must_keep_directory(self, small_trace, persist_cfg, tmp_path):
        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 4)
        session.close()
        elsewhere = PersistenceConfig(directory=tmp_path / "elsewhere")
        with pytest.raises(PersistenceError, match="keep persisting"):
            TraceSession.resume(persist_cfg.directory, persistence=elsewhere)

    def test_resume_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="no persistence directory"):
            TraceSession.resume(tmp_path / "never-existed")


class TestCheckpointApi:
    def test_checkpoint_disabled_returns_none(self, small_trace):
        session = TraceSession(small_trace, time_step=8)
        assert session.checkpoint() is None
        session.close()  # idempotent no-op without persistence
        session.close()

    def test_manual_checkpoint_returns_path(self, small_trace, persist_cfg):
        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 2)
        path = session.checkpoint()
        assert path is not None and path.endswith(".ckpt")
        session.close()

    def test_cadence_and_retention(self, small_trace, persist_cfg):
        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 16)  # cadence 5 → ckpts at 0, 5, 10, 15; keep 3
        session.close()
        names = sorted(p.name for p in persist_cfg.directory.glob("*.ckpt"))
        assert len(names) == 3
        written = session.instrumentation.counters["session.checkpoint.written"]
        assert written == 4


def _segment_names(directory):
    """Segment names on disk, and those the retained checkpoints name."""
    on_disk = {p.name.split(".", 1)[0] for p in directory.glob("seg-*.seg")}
    named = {
        read_checkpoint(p).meta["segment"]["name"] for p in directory.glob("*.ckpt")
    }
    return on_disk, named


class TestCheckpointSegments:
    """Solver state is written once per decomposition, as a mirrored pair."""

    def test_calm_session_writes_one_mirror_pair(self, calm_trace, tmp_path):
        cfg = PersistenceConfig(directory=tmp_path / "state", checkpoint_every=5)
        session = TraceSession(calm_trace, time_step=8, persistence=cfg)
        _drive(session, 30)
        session.close()
        assert session.stats.recalibrations == 0
        counters = session.instrumentation.counters
        assert counters["session.checkpoint.written"] == 7
        assert counters["session.checkpoint.segment_written"] == 1
        assert counters["session.checkpoint.segment_reused"] == 6
        assert sorted(p.name for p in cfg.directory.glob("seg-*")) == [
            "seg-00000000.a.seg", "seg-00000000.b.seg",
        ]

    def test_recalibration_writes_a_new_pair_and_prunes_the_old(
        self, small_trace, persist_cfg
    ):
        session = TraceSession(
            small_trace, time_step=8, threshold=0.05, persistence=persist_cfg
        )
        for _ in range(30):
            _drive(session, 1)
            on_disk, named = _segment_names(persist_cfg.directory)
            assert on_disk == named
            for name in named:
                for mirror in "ab":
                    assert (persist_cfg.directory / f"{name}.{mirror}.seg").exists()
        session.close()
        assert session.stats.recalibrations >= 2
        assert session.instrumentation.counters["session.checkpoint.segment_written"] >= 2
        assert "seg-00000000" not in on_disk

    def test_capture_hands_out_the_same_segment_arrays(self, calm_trace):
        session = TraceSession(calm_trace, time_step=8)
        first, _ = capture_session_state(session)
        _drive(session, 3)
        second, _ = capture_session_state(session)
        for name in ("dec_row", "dec_error",
                     "cache_keys", "cache_rows", "cache_has_mask"):
            assert second[name] is first[name], name
            assert not second[name].flags.writeable, name
        # The solver's raw components are not state: nothing reads them.
        assert not [name for name in first if name.startswith("sr_")]
        session._calibrate(end=session._cursor, charge=False)
        third, _ = capture_session_state(session)
        assert third["dec_error"] is not first["dec_error"]
        # The re-calibration moved the row cache; its arrays follow.
        cache = session._engine.export_cache()
        assert third["cache_keys"].tolist() == list(cache)
        assert third["cache_keys"].tolist() != first["cache_keys"].tolist()
        for i, (row, _) in enumerate(cache.values()):
            np.testing.assert_array_equal(third["cache_rows"][i], row)

    def _calm_run(self, calm_trace, tmp_path, n_ops):
        cfg = PersistenceConfig(
            directory=tmp_path / "state", checkpoint_every=5, keep_checkpoints=3
        )
        session = TraceSession(calm_trace, time_step=8, persistence=cfg)
        _drive(session, n_ops)
        session.close()
        return cfg

    def test_one_corrupt_mirror_resumes_bit_identically(self, calm_trace, tmp_path):
        reference = TraceSession(calm_trace, time_step=8)
        _drive(reference, 20)
        cfg = self._calm_run(calm_trace, tmp_path, 12)
        mirror = cfg.directory / "seg-00000000.a.seg"
        blob = bytearray(mirror.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        mirror.write_bytes(bytes(blob))

        resumed = TraceSession.resume(cfg.directory, trace=calm_trace)
        assert "session.recovery.fallbacks" not in resumed.instrumentation.counters
        _drive(resumed, 8)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_both_mirrors_corrupt_with_one_shared_segment(self, calm_trace, tmp_path):
        cfg = self._calm_run(calm_trace, tmp_path, 12)
        for mirror in "ab":
            path = cfg.directory / f"seg-00000000.{mirror}.seg"
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0x01
            path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="no valid checkpoint"):
            TraceSession.resume(cfg.directory, trace=calm_trace)

    def test_both_mirrors_corrupt_falls_back_to_an_older_segment(
        self, small_trace, persist_cfg
    ):
        reference = TraceSession(small_trace, time_step=8, threshold=0.05)
        _drive(reference, 30)
        session = TraceSession(
            small_trace, time_step=8, threshold=0.05, persistence=persist_cfg
        )
        _drive(session, 22)
        session.close()
        ckpts = sorted(persist_cfg.directory.glob("*.ckpt"))
        names = [read_checkpoint(p).meta["segment"]["name"] for p in ckpts]
        assert names[-1] != names[0]  # the newest names a segment of its own
        for mirror in "ab":
            path = persist_cfg.directory / f"{names[-1]}.{mirror}.seg"
            blob = bytearray(path.read_bytes())
            blob[40] ^= 0x01
            path.write_bytes(bytes(blob))

        resumed = TraceSession.resume(persist_cfg.directory, persistence=persist_cfg)
        assert resumed.instrumentation.counters["session.recovery.fallbacks"] >= 1
        assert resumed.stats.operations == 22
        _drive(resumed, 8)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_single_file_checkpoint_still_resumes(self, small_trace, persist_cfg):
        """A checkpoint holding every array itself (the layout before
        segments) resumes: no ``segment`` key means nothing to resolve."""
        reference = TraceSession(small_trace, time_step=8)
        _drive(reference, 16)
        session = TraceSession(small_trace, time_step=8, persistence=persist_cfg)
        _drive(session, 9)
        session.close()

        latest = CheckpointStore(persist_cfg.directory).load_latest()
        for path in persist_cfg.directory.glob("*.*seg"):
            path.unlink()
        for path in persist_cfg.directory.glob("*.ckpt"):
            path.unlink()
        write_checkpoint(
            persist_cfg.directory / "ckpt-00000000.ckpt", latest.arrays, latest.meta
        )
        assert "dec_row" in read_checkpoint(
            persist_cfg.directory / "ckpt-00000000.ckpt"
        ).arrays

        resumed = TraceSession.resume(persist_cfg.directory)
        assert resumed.stats.operations == 9
        _drive(resumed, 7)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_death_between_segment_and_checkpoint(
        self, small_trace, persist_cfg, monkeypatch
    ):
        """The writer dies after a new segment pair is on disk but before
        the checkpoint naming it: resume is bit-identical, and the orphan
        pair goes at the resumed session's next save. (Raising inside the
        write leaves the same files a SIGKILL there would: every file is
        written whole by rename or not at all.)"""
        reference = TraceSession(small_trace, time_step=8, threshold=0.05)
        _drive(reference, 30)
        session = TraceSession(
            small_trace, time_step=8, threshold=0.05, persistence=persist_cfg
        )
        store = session._store

        class Died(Exception):
            pass

        real_write = checkpoint_mod.write_checkpoint

        def write_or_die(path, arrays, meta, **kwargs):
            if store.segment_written:
                raise Died
            real_write(path, arrays, meta, **kwargs)

        monkeypatch.setattr(checkpoint_mod, "write_checkpoint", write_or_die)
        with pytest.raises(Died):
            _drive(session, 30)
        monkeypatch.undo()
        session.close()
        died_at = session.stats.operations
        on_disk, named = _segment_names(persist_cfg.directory)
        orphans = on_disk - named
        assert len(orphans) == 1

        resumed = TraceSession.resume(persist_cfg.directory, persistence=persist_cfg)
        assert resumed.stats.operations == died_at
        _drive(resumed, 30 - died_at)
        resumed.close()
        _assert_parity(resumed, reference)
        on_disk, named = _segment_names(persist_cfg.directory)
        assert on_disk == named and not orphans & on_disk


def _history_from_scratch(history):
    """The history encoding as one full pass — the reference the
    incremental encoder must match."""
    arrays = {
        "hist_snapshot": np.array([r.snapshot for r in history], dtype=np.int64),
        "hist_root": np.array([r.root for r in history], dtype=np.int64),
        "hist_elapsed": np.array([r.elapsed for r in history], dtype=np.float64),
        "hist_expected": np.array([r.expected for r in history], dtype=np.float64),
    }
    legends = {}
    for field in ("op", "decision", "health", "regime"):
        values = [getattr(r, field) for r in history]
        if field == "decision":
            values = [v.value for v in values]
        legend = list(dict.fromkeys(values))
        arrays[f"hist_{field}"] = np.array(
            [legend.index(v) for v in values], dtype=np.int32
        )
        legends[field] = legend
    return arrays, legends


def _assert_history_encoded(session):
    captured, meta = capture_session_state(session)
    arrays = join_blocks(captured)
    want_arrays, want_legends = _history_from_scratch(session.stats.history)
    for name, want in want_arrays.items():
        assert arrays[name].dtype == want.dtype, name
        np.testing.assert_array_equal(arrays[name], want, err_msg=name)
    assert meta["stats"]["history_legends"] == want_legends
    np.testing.assert_array_equal(
        arrays["ctrl_deviations"],
        np.asarray(session.controller.stats.deviations, dtype=np.float64),
    )
    return arrays


class TestHistoryEncoder:
    def test_incremental_encoding_matches_a_full_pass(self, small_trace):
        session = TraceSession(small_trace, time_step=8, threshold=0.05, regime=True)
        _assert_history_encoded(session)  # empty history
        first = None
        for n_ops in (1, 6, 70):  # 70 crosses the first buffer growth
            _drive(session, n_ops)
            arrays = _assert_history_encoded(session)
            if first is None:
                first = {k: v.copy() for k, v in arrays.items() if k.startswith("hist_")}
        # Arrays handed out earlier keep their content as the history grows.
        for name, arr in first.items():
            np.testing.assert_array_equal(arr, _history_from_scratch(
                session.stats.history[:1])[0][name])

    def test_after_resume_and_from_capsule(self, small_trace, persist_cfg):
        session = TraceSession(
            small_trace, time_step=8, threshold=0.05, persistence=persist_cfg
        )
        _drive(session, 13)
        capsule = session.capture_capsule()
        session.close()

        resumed = TraceSession.resume(persist_cfg.directory)
        _assert_history_encoded(resumed)
        _drive(resumed, 4)
        _assert_history_encoded(resumed)
        resumed.close()

        revived = TraceSession.from_capsule(small_trace, capsule)
        _assert_history_encoded(revived)
        _drive(revived, 4)
        _assert_history_encoded(revived)

    def test_replaced_or_truncated_history_is_re_encoded(self, small_trace):
        session = TraceSession(small_trace, time_step=8, threshold=0.05)
        _drive(session, 12)
        before = _assert_history_encoded(session)
        kept = {k: v.copy() for k, v in before.items() if k.startswith(("hist_", "ctrl_"))}
        session.stats.history = list(reversed(session.stats.history))
        session.controller.stats.deviations = session.controller.stats.deviations[::-1]
        _assert_history_encoded(session)
        for name, arr in kept.items():  # arrays handed out earlier stay put
            np.testing.assert_array_equal(before[name], arr, err_msg=name)
        del session.stats.history[-4:]
        _assert_history_encoded(session)
        del session.stats.history[-2:]
        _drive(session, 2)  # back to the truncated length, new last record
        _assert_history_encoded(session)
        # A new list whose record at the last encoded position is the same
        # object, with other records before it.
        last = session.stats.history[-1]
        session.stats.history = [last] * len(session.stats.history)
        _assert_history_encoded(session)
        session.stats.history = []
        _assert_history_encoded(session)
        session.controller.stats.deviations = session.controller.stats.deviations[:3]
        _assert_history_encoded(session)

    def test_blocks_seal_read_only_standalone_arrays(self, small_trace, monkeypatch):
        monkeypatch.setattr(state_mod, "HISTORY_BLOCK_ROWS", 16)
        session = TraceSession(small_trace, time_step=8, threshold=0.05, regime=True)
        for n_ops in (5, 11, 1, 40, 13):  # lands on, before and past block edges
            _drive(session, n_ops)
            _assert_history_encoded(session)
        first, _ = capture_session_state(session)
        _drive(session, 3)
        second, _ = capture_session_state(session)
        blocks = sorted(k for k in first if BLOCK_SEPARATOR in k)
        assert len(blocks) == 4 * 9  # 70 rows: 4 sealed blocks of 9 columns
        assert {k.split(BLOCK_SEPARATOR)[0] for k in blocks} == {
            f"hist-{i:06d}" for i in range(4)
        }
        for name in blocks:
            arr = first[name]
            assert second[name] is arr, name
            assert arr.shape == (16,) and arr.base is None, name
            assert not arr.flags.writeable, name
        assert first["hist_snapshot"].shape == (70 - 64,)
        assert first["ctrl_deviations"].shape == (70 - 64,)


# -- sealed history blocks ----------------------------------------------------
def _newest_checkpoint(directory):
    return sorted(directory.glob("ckpt-*.ckpt"))[-1]


@pytest.fixture(scope="module")
def sealed_run(calm_trace, tmp_path_factory):
    """A calm session run past three sealed blocks, checkpointing every 50
    operations; after each checkpoint, the newest file's size and the
    bytes of its JSON metadata."""
    directory = tmp_path_factory.mktemp("sealed") / "state"
    cfg = PersistenceConfig(directory=directory, checkpoint_every=50)
    session = TraceSession(calm_trace, time_step=8, threshold=50.0, persistence=cfg)
    sizes = []
    while session.stats.operations < 3 * HISTORY_BLOCK_ROWS + 200:
        _drive(session, 50)
        newest = _newest_checkpoint(directory)
        meta = read_checkpoint(newest).meta
        sizes.append((newest.stat().st_size, len(json.dumps(meta, sort_keys=True))))
    session.close()
    return session, directory, sizes


class TestSealedHistory:
    """A checkpoint writes the open history tail; full blocks go once.

    Sessions here run at a threshold (5.0, or 50 on the calm trace) that
    no operation reaches: thousands of operations without a re-solve, so
    the block edges, not the solver, set the test's cost.
    """

    def test_newest_checkpoint_stays_under_one_block(self, sealed_run):
        session, _, sizes = sealed_run
        assert session.stats.operations > 3 * HISTORY_BLOCK_ROWS
        for size, meta_bytes in sizes:
            # 56 B per operation (48 of history, 8 of deviation) in the
            # tail, plus the metadata and a few hundred bytes of framing.
            assert size <= HISTORY_BLOCK_ROWS * 56 + meta_bytes + 1024
        assert max(meta for _, meta in sizes) < 16384

    def test_each_block_pair_is_written_exactly_once(self, sealed_run):
        session, directory, _ = sealed_run
        counters = session.instrumentation.counters
        assert counters["session.checkpoint.history_block_written"] == 3
        assert counters["session.checkpoint.segment_written"] == 1
        assert (
            counters["session.checkpoint.segment_reused"]
            == counters["session.checkpoint.written"] - 1
        )
        blocks = sorted(
            p.name.split("-", 2)[2] for p in directory.glob("seg-*-*.seg")
        )
        assert blocks == [f"hist-{i:06d}.{mirror}.seg" for i in range(3) for mirror in "ab"]
        meta = read_checkpoint(_newest_checkpoint(directory)).meta
        assert sorted(meta["segments"]) == [f"hist-{i:06d}" for i in range(3)]
        for ref in meta["segments"].values():
            for mirror in "ab":
                assert (directory / f"{ref['name']}.{mirror}.seg").exists()

    def test_load_joins_blocks_into_todays_columns(self, sealed_run):
        session, directory, _ = sealed_run
        latest = CheckpointStore(directory).load_latest()
        assert not any(BLOCK_SEPARATOR in name for name in latest.arrays)
        want, _ = _history_from_scratch(session.stats.history)
        for name, arr in want.items():
            np.testing.assert_array_equal(latest.arrays[name], arr, err_msg=name)
        np.testing.assert_array_equal(
            latest.arrays["ctrl_deviations"], session.controller.stats.deviations
        )

    @pytest.mark.parametrize("rows", [HISTORY_BLOCK_ROWS - 1, HISTORY_BLOCK_ROWS,
                                      HISTORY_BLOCK_ROWS + 1])
    def test_resume_and_capsule_at_block_edges(self, small_trace, tmp_path, rows):
        reference = TraceSession(small_trace, time_step=8, threshold=5.0)
        _drive(reference, rows + 20)
        cfg = PersistenceConfig(directory=tmp_path / "state", checkpoint_every=10**9)
        session = TraceSession(small_trace, time_step=8, threshold=5.0, persistence=cfg)
        _drive(session, rows)
        session.checkpoint()
        capsule = session.capture_capsule()
        session.close()
        sealed = rows // HISTORY_BLOCK_ROWS
        meta = read_checkpoint(_newest_checkpoint(cfg.directory)).meta
        assert len(meta.get("segments", {})) == sealed
        assert sum(BLOCK_SEPARATOR in k for k in capsule.arrays) == 9 * sealed

        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        revived = TraceSession.from_capsule(small_trace, capsule)
        for revived_session in (resumed, revived):
            assert len(revived_session.stats.history) == rows
            _drive(revived_session, 20)
            revived_session.close()
            _assert_parity(revived_session, reference)
            assert (
                revived_session.controller.stats.deviations
                == reference.controller.stats.deviations
            )

    def _past_one_block(self, trace, directory, n_ops):
        cfg = PersistenceConfig(directory=directory, checkpoint_every=50)
        session = TraceSession(trace, time_step=8, threshold=5.0, persistence=cfg)
        _drive(session, n_ops)
        session.close()
        return cfg

    def test_one_corrupt_block_mirror_resumes_bit_identically(
        self, small_trace, tmp_path
    ):
        n_ops = HISTORY_BLOCK_ROWS + 60
        reference = TraceSession(small_trace, time_step=8, threshold=5.0)
        _drive(reference, n_ops + 20)
        cfg = self._past_one_block(small_trace, tmp_path / "state", n_ops)
        (mirror,) = cfg.directory.glob("seg-*-hist-000000.a.seg")
        blob = bytearray(mirror.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        mirror.write_bytes(bytes(blob))

        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        assert "session.recovery.fallbacks" not in resumed.instrumentation.counters
        _drive(resumed, 20)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_both_block_mirrors_corrupt_fall_back_past_the_block(
        self, small_trace, tmp_path
    ):
        """The two newest checkpoints name the block, the oldest predates
        it: recovery falls back to that one and replays the journal."""
        n_ops = HISTORY_BLOCK_ROWS + 60  # checkpoints at 4050, 4100, 4150
        reference = TraceSession(small_trace, time_step=8, threshold=5.0)
        _drive(reference, n_ops + 20)
        cfg = self._past_one_block(small_trace, tmp_path / "state", n_ops)
        for mirror in cfg.directory.glob("seg-*-hist-000000.?.seg"):
            blob = bytearray(mirror.read_bytes())
            blob[40] ^= 0x01
            mirror.write_bytes(bytes(blob))

        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        assert resumed.instrumentation.counters["session.recovery.fallbacks"] == 2
        assert resumed.stats.operations == n_ops
        _drive(resumed, 20)
        resumed.close()
        _assert_parity(resumed, reference)

    def test_single_array_history_layout_still_resumes(self, small_trace, tmp_path):
        """The layout before blocks: the solver-state segment plus whole
        ``hist_*``/``ctrl_deviations`` arrays in the checkpoint."""
        n_ops = HISTORY_BLOCK_ROWS + 10  # newest checkpoint at 4100
        reference = TraceSession(small_trace, time_step=8, threshold=5.0)
        _drive(reference, n_ops + 20)
        cfg = self._past_one_block(small_trace, tmp_path / "state", n_ops)
        latest = CheckpointStore(cfg.directory).load_latest()
        for path in cfg.directory.glob("*.*seg"):
            path.unlink()
        for path in cfg.directory.glob("*.ckpt"):
            path.unlink()
        CheckpointStore(cfg.directory).save(latest.arrays, latest.meta)
        legacy = read_checkpoint(_newest_checkpoint(cfg.directory))
        assert "segments" not in legacy.meta and "segment" in legacy.meta
        assert legacy.arrays["hist_snapshot"].shape == (HISTORY_BLOCK_ROWS + 4,)
        assert legacy.arrays["ctrl_deviations"].shape == (HISTORY_BLOCK_ROWS + 4,)

        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        assert resumed.stats.operations == n_ops
        _drive(resumed, 20)
        resumed.close()
        _assert_parity(resumed, reference)


# -- journal records ------------------------------------------------------------
_GRAPHS = [random_task_graph(6, seed=seed) for seed in range(3)]


def _drive_mixed(session, n_ops):
    """Collectives and task mappings; returns the mappings made."""
    mappings = []
    n = session.trace.n_machines
    for _ in range(n_ops):
        k = session.stats.operations
        if k % 3 == 1:
            mapping, _ = session.map_tasks(_GRAPHS[k % len(_GRAPHS)])
            mappings.append(mapping)
        else:
            session.run_collective(("broadcast", "reduce", "scatter")[k % 3], root=k % n)
    return mappings


class TestJournalRecords:
    def _stopped_between_checkpoints(self, trace, tmp_path):
        cfg = PersistenceConfig(directory=tmp_path / "state", checkpoint_every=10)
        session = TraceSession(trace, time_step=8, threshold=0.05, persistence=cfg)
        _drive_mixed(session, 27)  # newest checkpoint at 20: 7 records to replay
        session.close()
        return cfg

    def _reference(self, trace):
        reference = TraceSession(trace, time_step=8, threshold=0.05)
        return reference, _drive_mixed(reference, 40)

    def test_mapping_records_pack_volumes(self, small_trace, tmp_path):
        cfg = self._stopped_between_checkpoints(small_trace, tmp_path)
        pending = recover(cfg.directory).pending
        maps = [r for r in pending if r["kind"] == "mapping"]
        assert len(pending) == 7 and len(maps) >= 2
        for record in maps:
            assert sorted(record["volumes"]) == ["le64", "shape"]
        volumes = unpack_float64(maps[0]["volumes"])
        assert any(np.array_equal(volumes, g.volumes) for g in _GRAPHS)

    def test_mixed_session_resumes_bit_identically(self, small_trace, tmp_path):
        reference, ref_mappings = self._reference(small_trace)
        cfg = self._stopped_between_checkpoints(small_trace, tmp_path)
        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        assert resumed.stats.history == reference.stats.history[:27]
        mappings = _drive_mixed(resumed, 13)
        resumed.close()
        _assert_parity(resumed, reference)
        later = ref_mappings[-len(mappings):]
        assert len(mappings) >= 4
        for got, want in zip(mappings, later):
            np.testing.assert_array_equal(got, want)

    def test_legacy_list_form_mapping_records_resume(self, small_trace, tmp_path):
        reference, _ = self._reference(small_trace)
        cfg = self._stopped_between_checkpoints(small_trace, tmp_path)
        jpath = journal_path(cfg.directory)
        records = list(SnapshotJournal.replay(jpath))
        for record in records:
            if record["kind"] == "mapping":
                record["volumes"] = unpack_float64(record["volumes"]).tolist()
        with open(jpath, "wb"):
            pass  # an empty file: the journal starts afresh
        with SnapshotJournal(jpath) as journal:
            for record in records:
                journal.append_json(record)
        assert any(
            isinstance(r.get("volumes"), list) for r in recover(cfg.directory).pending
        )

        resumed = TraceSession.resume(cfg.directory, trace=small_trace)
        _drive_mixed(resumed, 13)
        resumed.close()
        _assert_parity(resumed, reference)


class TestWarmStartEraState:
    """State captured when APG warm-started its re-calibrations names the
    retired solver, records ``warm_start``, carries the warm components
    (``sr_*``) and flags each solve span ``warm``. It resumes on IALM with
    one ``RuntimeWarning`` and continues exactly as an IALM session would."""

    def _legacy_capsule(self, session):
        capsule = session.capture_capsule()
        meta = json.loads(json.dumps(capsule.meta))
        meta["config"].update(solver="apg", warm_start=True)
        meta["decomposition"]["solver_result"] = {
            "rank": 1, "iterations": 7, "converged": True, "residual": 1e-7,
            "warm_started": True, "has_constant_row": False,
        }
        meta["instrumentation"]["spans"] = [
            dict(span, warm=True) for span in meta["instrumentation"]["spans"]
        ]
        dec = session.decomposition
        arrays = dict(
            capsule.arrays,
            sr_low_rank=np.zeros_like(dec.error.data),
            sr_sparse=np.zeros_like(dec.error.data),
        )
        return type(capsule)(arrays=arrays, meta=meta)

    def test_resumes_on_ialm_with_one_warning(self, small_trace):
        control = TraceSession(small_trace, time_step=8, threshold=0.01)
        _drive(control, 6)
        legacy = self._legacy_capsule(control)
        with pytest.warns(RuntimeWarning, match="'apg' has been retired") as record:
            resumed = TraceSession.from_capsule(small_trace, legacy)
        assert len(record) == 1
        assert resumed.options == control.options
        assert resumed.decomposition.solver_result is None
        assert resumed.instrumentation.spans == control.instrumentation.spans
        _drive(control, 10)
        _drive(resumed, 10)
        assert resumed.stats.recalibrations == control.stats.recalibrations > 1
        assert np.array_equal(
            resumed.decomposition.constant.row, control.decomposition.constant.row
        )
        assert [r.elapsed for r in resumed.stats.history] == [
            r.elapsed for r in control.stats.history
        ]
