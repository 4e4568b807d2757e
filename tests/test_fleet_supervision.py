"""Supervision-layer tests: retries, deadlines, worker death, shm hygiene.

These tests drive real worker processes but inject deterministic failures
by monkeypatching ``repro.fleet.worker`` internals in the parent: under the
``fork`` start method the patched module state is inherited by every worker
the scheduler spawns afterwards. Flag files (touched by the test, removed
by the first attempt that consumes them) turn "fail once, then heal" into
a deterministic script rather than a race.
"""

import multiprocessing as mp
import os
import signal
import struct
import time
from multiprocessing import shared_memory

import pytest

import repro.fleet.scheduler as scheduler_mod
import repro.fleet.worker as worker_mod
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.errors import FleetError
from repro.fleet import ClusterSpec, FleetConfig, FleetScheduler

pytestmark = [pytest.mark.fleet, pytest.mark.faults]

requires_fork = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="worker fault injection relies on fork inheriting the patch",
)
requires_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs /dev/shm to observe segments"
)


def _trace(seed, *, n_machines=6, n_snapshots=16):
    return generate_trace(
        TraceConfig(n_machines=n_machines, n_snapshots=n_snapshots), seed=seed
    )


def _clusters(n):
    return [ClusterSpec(name=f"c{i}", trace=_trace(70 + i)) for i in range(n)]


CFG = dict(operations=12, batch_size=4, window=6, n_workers=2)


def _patch_batches(monkeypatch, hook):
    """Route every worker-side batch through ``hook(real, task, traces)``."""
    real = worker_mod._run_batch
    monkeypatch.setattr(
        worker_mod, "_run_batch", lambda task, traces: hook(real, task, traces)
    )


def _segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


class TestTaskRetries:
    @requires_fork
    def test_transient_failure_retried_to_success(self, monkeypatch, tmp_path):
        flag = tmp_path / "fail-once"
        flag.touch()

        def hook(real, task, traces):
            if task.cluster == "c0" and flag.exists():
                flag.unlink()
                raise RuntimeError("injected transient failure")
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        clusters = _clusters(3)
        config = FleetConfig(max_task_retries=2, retry_backoff_s=0.01, **CFG)
        serial = FleetScheduler(clusters, config).run_serial()
        report = FleetScheduler(clusters, config).run()
        assert report.statuses() == {"c0": "ok", "c1": "ok", "c2": "ok"}
        assert report.clusters["c0"].retries >= 1
        assert report.health()["task_retries"] >= 1
        # The healed run is still bit-identical to the failure-free serial one.
        for name, rep in report.clusters.items():
            ref = serial.clusters[name].constant_row
            assert rep.constant_row.tobytes() == ref.tobytes()

    @requires_fork
    def test_exhausted_retries_raise_with_cluster(self, monkeypatch):
        def hook(real, task, traces):
            if task.cluster == "c0":
                raise RuntimeError("injected persistent failure")
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        config = FleetConfig(max_task_retries=1, retry_backoff_s=0.01, **CFG)
        with pytest.raises(FleetError, match="'c0' failed after 2 attempt") as exc:
            FleetScheduler(_clusters(2), config).run()
        assert exc.value.cluster == "c0"
        assert "injected persistent failure" in exc.value.worker_traceback

    @requires_fork
    def test_degrade_quarantines_persistent_failure(self, monkeypatch):
        def hook(real, task, traces):
            if task.cluster == "c1":
                raise RuntimeError("injected persistent failure")
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        config = FleetConfig(
            on_error="degrade", max_task_retries=1, retry_backoff_s=0.01, **CFG
        )
        report = FleetScheduler(_clusters(3), config).run()
        assert report.degraded
        sick = report.clusters["c1"]
        assert sick.status == "quarantined"
        assert not sick.ok
        assert "injected persistent failure" in sick.error
        assert sick.retries == 1
        assert report.statuses()["c0"] == "ok"
        assert report.statuses()["c2"] == "ok"
        assert report.health()["clusters_quarantined"] == 1


class TestDeadlines:
    @requires_fork
    def test_stuck_attempt_is_killed_and_retried(self, monkeypatch, tmp_path):
        flag = tmp_path / "hang-once"
        flag.touch()

        def hook(real, task, traces):
            if task.cluster == "c0" and flag.exists():
                flag.unlink()
                time.sleep(60.0)
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        config = FleetConfig(
            task_timeout_s=1.0, max_task_retries=1, retry_backoff_s=0.01, **CFG
        )
        report = FleetScheduler(_clusters(2), config).run()
        assert report.statuses() == {"c0": "ok", "c1": "ok"}
        health = report.health()
        assert health["task_timeouts"] >= 1
        # The stuck worker was killed and replaced (not charged to the budget).
        assert health["worker_restarts"] >= 1

    @requires_fork
    def test_deadline_exhaustion_degrades_to_failed(self, monkeypatch):
        def hook(real, task, traces):
            if task.cluster == "c0":
                time.sleep(60.0)
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        config = FleetConfig(
            on_error="degrade", task_timeout_s=0.5, max_task_retries=0,
            retry_backoff_s=0.01, **CFG,
        )
        report = FleetScheduler(_clusters(2), config).run()
        assert report.degraded
        sick = report.clusters["c0"]
        assert sick.status == "failed"
        assert "deadline exceeded" in sick.error
        assert report.statuses()["c1"] == "ok"

    @requires_fork
    def test_deadline_runs_from_pickup_not_dispatch(self, monkeypatch):
        """Four clusters on two workers: ``c2`` waits in the queue of the
        worker stuck on ``c0``. Its deadline starts when a worker picks it
        up, so only ``c0`` times out; ``c2`` is requeued uncharged when the
        stuck worker is killed."""

        def hook(real, task, traces):
            if task.cluster == "c0":
                time.sleep(60.0)
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        config = FleetConfig(
            on_error="degrade", task_timeout_s=0.5, max_task_retries=0,
            retry_backoff_s=0.01, **CFG,
        )
        report = FleetScheduler(_clusters(4), config).run()
        assert report.statuses() == {
            "c0": "failed", "c1": "ok", "c2": "ok", "c3": "ok"
        }
        assert report.instrumentation["counters"]["fleet.task.timeouts"] == 1


class TestWorkerDeath:
    @requires_fork
    def test_mid_task_kill_is_replayed_bit_identically(self, monkeypatch, tmp_path):
        flag = tmp_path / "die-once"
        flag.touch()

        def hook(real, task, traces):
            if task.cluster == "c1" and flag.exists():
                flag.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(task, traces)

        _patch_batches(monkeypatch, hook)
        clusters = _clusters(3)
        config = FleetConfig(max_worker_restarts=2, **CFG)
        serial = FleetScheduler(clusters, config).run_serial()
        report = FleetScheduler(clusters, config).run()
        assert report.statuses() == {"c0": "ok", "c1": "ok", "c2": "ok"}
        assert report.health()["worker_restarts"] >= 1
        # Requeue-on-death is deterministic replay, never a charged retry.
        assert report.clusters["c1"].retries == 0
        for name, rep in report.clusters.items():
            ref = serial.clusters[name].constant_row
            assert rep.constant_row.tobytes() == ref.tobytes()

    @requires_fork
    def test_kill_mid_result_write_wedges_no_sibling(self, monkeypatch, tmp_path):
        # A worker killed partway through writing a message must cost only
        # its own attempt: siblings keep reporting and the lost batch is
        # replayed. Scripted as a frame header announcing 1 MiB, 64 bytes
        # of body, then SIGKILL, so the torn write is not left to timing.
        flag = tmp_path / "tear-once"
        flag.touch()
        pipe = {}
        real_main = scheduler_mod.worker_main

        def main(task_queue, result_conn, *args):
            pipe["conn"] = result_conn
            real_main(task_queue, result_conn, *args)

        def hook(real, task, traces):
            if task.cluster == "c1" and flag.exists():
                flag.unlink()
                torn = struct.pack("!i", 1 << 20) + bytes(64)
                os.write(pipe["conn"].fileno(), torn)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(task, traces)

        monkeypatch.setattr(scheduler_mod, "worker_main", main)
        _patch_batches(monkeypatch, hook)
        clusters = _clusters(3)
        config = FleetConfig(max_worker_restarts=2, **CFG)
        serial = FleetScheduler(clusters, config).run_serial()
        report = FleetScheduler(clusters, config).run()
        assert not flag.exists()  # the torn write really happened
        assert report.statuses() == {"c0": "ok", "c1": "ok", "c2": "ok"}
        assert report.health()["worker_restarts"] >= 1
        assert report.clusters["c1"].retries == 0
        for name, rep in report.clusters.items():
            ref = serial.clusters[name].constant_row
            assert rep.constant_row.tobytes() == ref.tobytes()

    @requires_fork
    def test_no_workers_left_raises_with_exitcodes_and_stuck(self, monkeypatch):
        def hook(real, task, traces):
            os.kill(os.getpid(), signal.SIGKILL)

        _patch_batches(monkeypatch, hook)
        config = FleetConfig(
            operations=12, batch_size=4, window=6,
            n_workers=1, max_worker_restarts=0,
        )
        clusters = [ClusterSpec(name="lonely", trace=_trace(99))]
        with pytest.raises(FleetError) as exc:
            FleetScheduler(clusters, config).run()
        message = str(exc.value)
        assert "-9" in message  # the SIGKILL exit code
        assert "restart budget (0)" in message
        assert "lonely" in message  # the stuck cluster is named


def _patch_windows(monkeypatch, hook):
    """Route every worker-side window solve through ``hook(real, name, tp, **kw)``."""
    real = worker_mod.solve_window
    monkeypatch.setattr(
        worker_mod, "solve_window", lambda name, tp, **kw: hook(real, name, tp, **kw)
    )


class TestSweepSupervision:
    """A sweep's unit of work is one cluster: a sick cluster fails alone."""

    @requires_fork
    def test_degrade_quarantines_failing_cluster(self, monkeypatch):
        def hook(real, name, tp, **kw):
            if name == "c0":
                raise RuntimeError("injected window failure")
            return real(name, tp, **kw)

        _patch_windows(monkeypatch, hook)
        config = FleetConfig(
            on_error="degrade", max_task_retries=1, retry_backoff_s=0.01,
            window=6, n_workers=2,
        )
        report = FleetScheduler(_clusters(4), config).run_sweep()
        assert report.degraded
        assert report.statuses() == {
            "c0": "quarantined", "c1": "ok", "c2": "ok", "c3": "ok",
        }
        assert "injected window failure" in report.clusters["c0"].error
        assert report.clusters["c0"].verdict == "unavailable"
        assert report.health()["clusters_quarantined"] == 1
        assert report.health()["task_retries"] >= 1

    @requires_fork
    def test_transient_cluster_failure_retried_to_success(self, monkeypatch, tmp_path):
        flag = tmp_path / "fail-once"
        flag.touch()

        def hook(real, name, tp, **kw):
            if name == "c0" and flag.exists():
                flag.unlink()
                raise RuntimeError("injected transient window failure")
            return real(name, tp, **kw)

        clusters = _clusters(4)
        config = FleetConfig(
            max_task_retries=2, retry_backoff_s=0.01, window=6, n_workers=2,
        )
        serial = FleetScheduler(clusters, config).run_sweep_serial()
        _patch_windows(monkeypatch, hook)
        report = FleetScheduler(clusters, config).run_sweep()
        assert not flag.exists()  # the failure really happened
        assert report.instrumentation["counters"]["fleet.task.retries"] == 1
        assert set(report.statuses().values()) == {"ok"}
        for name, res in report.clusters.items():
            want = serial.clusters[name].constant_row
            assert res.constant_row.tobytes() == want.tobytes()

    @requires_fork
    def test_deadline_exhaustion_degrades_cluster_to_failed(self, monkeypatch):
        def hook(real, name, tp, **kw):
            if name == "c0":
                time.sleep(60.0)
            return real(name, tp, **kw)

        _patch_windows(monkeypatch, hook)
        config = FleetConfig(
            on_error="degrade", task_timeout_s=0.5, max_task_retries=0,
            retry_backoff_s=0.01, window=6, n_workers=2,
        )
        report = FleetScheduler(_clusters(4), config).run_sweep()
        assert report.statuses() == {
            "c0": "failed", "c1": "ok", "c2": "ok", "c3": "ok",
        }
        assert "deadline exceeded" in report.clusters["c0"].error
        assert report.instrumentation["counters"]["fleet.task.timeouts"] >= 1


class TestShmHygiene:
    """The scheduler must never leak shared-memory segments, even on failure."""

    @requires_fork
    @requires_dev_shm
    def test_no_leak_when_drive_raises(self, monkeypatch):
        def hook(real, task, traces):
            raise RuntimeError("injected persistent failure")

        _patch_batches(monkeypatch, hook)
        before = _segments()
        config = FleetConfig(max_task_retries=0, retry_backoff_s=0.01, **CFG)
        with pytest.raises(FleetError):
            FleetScheduler(_clusters(2), config).run()
        assert _segments() - before == set()

    @requires_fork
    @requires_dev_shm
    def test_no_leak_when_workers_crash(self, monkeypatch):
        def hook(real, task, traces):
            os.kill(os.getpid(), signal.SIGKILL)

        _patch_batches(monkeypatch, hook)
        before = _segments()
        config = FleetConfig(max_worker_restarts=0, **CFG)
        with pytest.raises(FleetError):
            FleetScheduler(_clusters(2), config).run()
        assert _segments() - before == set()

    @requires_fork
    @requires_dev_shm
    def test_sweep_no_leak_when_cluster_fails(self, monkeypatch):
        def hook(real, name, tp, **kw):
            raise RuntimeError("injected window failure")

        _patch_windows(monkeypatch, hook)
        before = _segments()
        config = FleetConfig(
            max_task_retries=0, retry_backoff_s=0.01, window=6, n_workers=2,
        )
        with pytest.raises(FleetError):
            FleetScheduler(_clusters(4), config).run_sweep()
        assert _segments() - before == set()

    @requires_dev_shm
    def test_sweep_creates_no_shared_memory(self, monkeypatch):
        # Windows ride in the task pickle: the scheduler creates no segment
        # for a sweep, not even one it unlinks before returning.
        real = shared_memory.SharedMemory
        created = []

        def recording(*args, **kwargs):
            shm = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)
        clusters = _clusters(4)
        config = FleetConfig(operations=4, window=6, n_workers=2)
        FleetScheduler(clusters, config).run()
        assert len(created) == 4  # the recorder sees run()'s trace blocks
        created.clear()
        before = _segments()
        report = FleetScheduler(clusters, config).run_sweep()
        assert set(report.statuses().values()) == {"ok"}
        assert created == []
        assert _segments() - before == set()
