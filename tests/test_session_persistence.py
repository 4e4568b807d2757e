"""Session-level crash safety: checkpoint/resume parity, fallback, guards.

These tests exercise the full recovery protocol in-process (clean stop →
``TraceSession.resume``) — the subprocess SIGKILL variant lives in
``test_chaos_recovery.py``. The bar throughout is *bit-exact parity*: a
resumed session must be indistinguishable from one that never stopped.
"""

import numpy as np
import pytest

from repro.cloudsim.io import save_trace
from repro.core.detectors import CusumRegimeDetector, detector_names
from repro.errors import PersistenceError
from repro.faults import ProbeLoss
from repro.mapping.taskgraph import TaskGraph
from repro.persistence import PersistenceConfig
from repro.persistence.checkpoint import CheckpointStore
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
        reference = TraceSession(small_trace, time_step=8, svd_backend="auto")
        _drive(reference, 16)

        session = TraceSession(
            small_trace, time_step=8, svd_backend="auto", persistence=persist_cfg
        )
        _drive(session, 9)
        session.close()

        store = CheckpointStore(persist_cfg.directory)
        ckpt = store.load_latest()
        ckpt.meta["config"]["elementwise_backend"] = "jit"
        store.save(ckpt.arrays, ckpt.meta)

        resumed = TraceSession.resume(persist_cfg.directory)
        assert resumed.stats.operations == 9
        _drive(resumed, 7)
        resumed.close()
        _assert_parity(resumed, reference)


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
