"""Kill-and-recover chaos tests: SIGKILL a live session, resume, check parity.

Each case drives the real CLI in subprocesses via the chaos harness: an
uninterrupted reference replay, then a persisted replay that is SIGKILLed
mid-run and resumed to completion. Parity means the final constant
component, operation count, recalibration count, and communication time are
identical to the reference — the crash left no trace in the results.

Marked ``chaos`` so the (subprocess-heavy) cases can be selected or skipped
with ``-m chaos`` / ``-m "not chaos"``.
"""

import pytest

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.io import save_trace
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.errors import PersistenceError
from repro.persistence import read_checkpoint
from repro.persistence.chaos import _run_cli, kill_and_recover

pytestmark = pytest.mark.chaos


def _trace_file(tmp_path, seed):
    cfg = TraceConfig(
        n_machines=6,
        n_snapshots=30,
        dynamics=DynamicsConfig(volatility_sigma=0.05),
    )
    path = tmp_path / f"trace-{seed}.npz"
    save_trace(generate_trace(cfg, seed=seed), path)
    return str(path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_single_kill_parity(tmp_path, seed):
    result = kill_and_recover(
        _trace_file(tmp_path, seed),
        tmp_path / "work",
        kill_at=(9,),
        operations=24,
        checkpoint_every=5,
    )
    assert result.kills == 1
    # The WAL record of the killed operation replays on recovery, so the
    # resumed child starts one past the kill point.
    assert result.recovered["recovered_at"] == 10
    assert result.parity, f"state diverged after recovery: {result.max_abs_diff}"
    assert result.max_abs_diff == 0.0


def test_repeated_kills_with_recalibrations(tmp_path):
    # A low threshold makes Algorithm 1 recalibrate repeatedly, so kills
    # land between warm-started re-solves — the hardest state to restore.
    result = kill_and_recover(
        _trace_file(tmp_path, 7),
        tmp_path / "work",
        kill_at=(6, 15),
        operations=24,
        threshold=0.2,
        checkpoint_every=5,
    )
    assert result.kills == 2
    assert result.parity
    assert result.reference["operations"] == 24


def test_kill_under_measurement_faults_and_regime(tmp_path):
    result = kill_and_recover(
        _trace_file(tmp_path, 13),
        tmp_path / "work",
        kill_at=(8,),
        operations=20,
        faults="probe_loss=0.05",
        fault_seed=0,
        regime=True,
        checkpoint_every=5,
    )
    assert result.parity
    assert result.max_abs_diff == 0.0


@pytest.mark.parametrize("detector", ["signature", "noise-robust", "drift"])
def test_kill_with_each_registered_detector(tmp_path, detector):
    # ``regime=True`` above covers the default CUSUM path; the drop-in
    # detectors must survive SIGKILL mid-warmup/mid-window just the same —
    # whatever internal buffers they keep restore bit-identically.
    result = kill_and_recover(
        _trace_file(tmp_path, 13),
        tmp_path / "work",
        kill_at=(8,),
        operations=20,
        regime=detector,
        checkpoint_every=5,
    )
    assert result.parity
    assert result.max_abs_diff == 0.0


def test_streaming_kill_and_resume_matches_an_uninterrupted_replay(tmp_path):
    # The CI trace, driven through the CLI directly: streaming folds with
    # the drift detector, killed after 19 operations and resumed. The
    # checkpoints carry the stream's factors and residuals, and no sparse
    # window or key list.
    trace = str(tmp_path / "ci.npz")
    save_trace(generate_trace(TraceConfig(n_machines=8, n_snapshots=30), seed=1), trace)
    flags = ["--mode", "streaming", "--regime", "drift", "--time-step", "8",
             "--threshold", "0.5", "--operations", "40", "--json"]
    reference = _run_cli(["replay", trace, *flags], expect_kill=False)
    state = str(tmp_path / "state")
    _run_cli(
        ["replay", trace, *flags, "--checkpoint-dir", state,
         "--checkpoint-every", "5", "--crash-after", "19"],
        expect_kill=True,
    )
    ckpts = sorted((tmp_path / "state").glob("ckpt-*.ckpt"))
    assert ckpts
    arrays = read_checkpoint(ckpts[-1]).arrays
    assert "stream_basis" in arrays
    assert "stream_sparse" not in arrays and "stream_keys" not in arrays
    recovered = _run_cli(
        ["resume", state, "--operations", "40", "--json"], expect_kill=False
    )
    assert recovered.pop("recovered_at") == 20
    assert reference.pop("recovered_at") is None
    assert recovered == reference
    assert (reference["stream_updates"], reference["recalibrations"]) == (39, 1)


class TestHarnessValidation:
    def test_kill_schedule_must_be_increasing(self, tmp_path):
        with pytest.raises(PersistenceError, match="strictly increasing"):
            kill_and_recover(
                _trace_file(tmp_path, 1),
                tmp_path / "work",
                kill_at=(9, 9),
                operations=24,
            )

    def test_kills_must_precede_completion(self, tmp_path):
        with pytest.raises(PersistenceError, match="before the operation target"):
            kill_and_recover(
                _trace_file(tmp_path, 1),
                tmp_path / "work",
                kill_at=(30,),
                operations=24,
            )
