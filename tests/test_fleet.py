"""Fleet scheduler: shared-memory transport, parity, fairness, failures."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import run_fleet
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.errors import FleetError, ValidationError
from repro.fleet import (
    ClusterSpec,
    FleetConfig,
    FleetScheduler,
    SharedTraceBlock,
)
from repro.observability import Instrumentation
from repro.persistence import CheckpointStore
from repro.runtime import TraceSession

pytestmark = pytest.mark.fleet

# The CI fleet job runs this module under a worker matrix (2 and 4).
N_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "2"))


def _trace(seed, *, n_machines=6, n_snapshots=16, mask=False):
    trace = generate_trace(
        TraceConfig(n_machines=n_machines, n_snapshots=n_snapshots), seed=seed
    )
    if not mask:
        return trace
    rng = np.random.default_rng(seed)
    m = rng.random(trace.alpha.shape) > 0.1
    from repro.cloudsim.trace import CalibrationTrace

    return CalibrationTrace(
        alpha=trace.alpha, beta=trace.beta, timestamps=trace.timestamps, mask=m
    )


def _clusters(n, **kwargs):
    return [ClusterSpec(name=f"c{i}", trace=_trace(50 + i, **kwargs)) for i in range(n)]


CFG = dict(operations=12, batch_size=4, window=6)


class TestSharedTraceBlock:
    def test_round_trip_unmasked(self):
        trace = _trace(1)
        with SharedTraceBlock.create(trace) as block:
            attached = SharedTraceBlock.attach(block.descriptor)
            try:
                rebuilt = attached.trace()
                assert np.array_equal(rebuilt.alpha, trace.alpha)
                assert np.array_equal(rebuilt.beta, trace.beta)
                assert np.array_equal(rebuilt.timestamps, trace.timestamps)
                assert rebuilt.mask is None
            finally:
                attached.close()

    def test_round_trip_masked(self):
        trace = _trace(2, mask=True)
        assert trace.mask is not None
        with SharedTraceBlock.create(trace) as block:
            rebuilt = block.trace()
            assert np.array_equal(rebuilt.mask, trace.mask)

    def test_views_are_zero_copy(self):
        trace = _trace(3)
        with SharedTraceBlock.create(trace) as block:
            rebuilt = block.trace()
            # The trace's float arrays alias the shm buffer — no copies.
            for arr in (rebuilt.alpha, rebuilt.beta, rebuilt.timestamps):
                assert arr.base is not None
                assert not arr.flags.owndata

    def test_descriptor_is_small_and_picklable(self):
        trace = _trace(4)
        with SharedTraceBlock.create(trace) as block:
            blob = pickle.dumps(block.descriptor)
            assert len(blob) < 512  # the point of the descriptor
            assert pickle.loads(blob) == block.descriptor

    def test_views_carry_the_digest(self, monkeypatch):
        from repro.cloudsim import trace as trace_mod

        trace = _trace(6, mask=True)
        with SharedTraceBlock.create(trace) as block:
            assert block.descriptor.sha256 == trace.sha256

            class NoHashing:
                def sha256(self):
                    raise AssertionError("a view of a block rehashed its trace")

            monkeypatch.setattr(trace_mod, "hashlib", NoHashing())
            assert block.trace().sha256 == trace.sha256

    def test_attach_after_unlink_raises(self):
        block = SharedTraceBlock.create(_trace(5))
        desc = block.descriptor
        block.unlink()
        with pytest.raises(FleetError, match="gone"):
            SharedTraceBlock.attach(desc)

    def test_attach_in_the_creating_process_keeps_the_owner_registered(self):
        # A fresh interpreter has chosen no start method. Attaching there
        # must not strip the owner's resource-tracker entry, or the owner's
        # unlink makes the tracker print a KeyError traceback at exit.
        script = (
            "from repro.cloudsim.tracegen import TraceConfig, generate_trace\n"
            "from repro.fleet.shm import SharedTraceBlock\n"
            "trace = generate_trace(TraceConfig(n_machines=4, n_snapshots=6), seed=0)\n"
            "owner = SharedTraceBlock.create(trace)\n"
            "SharedTraceBlock.attach(owner.descriptor).close()\n"
            "owner.unlink()\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr, done.stderr


class TestTraceHashing:
    def test_run_hashes_each_trace_once_and_only_in_the_scheduler(
        self, tmp_path, monkeypatch
    ):
        # Workers inherit the patched module when they fork; a digest
        # computed anywhere leaves its process id in the log.
        import hashlib

        from repro.cloudsim import trace as trace_mod

        log = tmp_path / "digests.log"

        class PidLog:
            def sha256(self):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                return hashlib.sha256()

        monkeypatch.setattr(trace_mod, "hashlib", PidLog())
        clusters = _clusters(3)
        report = FleetScheduler(
            clusters, FleetConfig(n_workers=N_WORKERS, **CFG)
        ).run()
        assert report.total_operations == 3 * CFG["operations"]
        pids = log.read_text().split() if log.exists() else []
        assert pids == [str(os.getpid())] * len(clusters)


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            FleetConfig(n_workers=0)
        with pytest.raises(ValidationError):
            FleetConfig(batch_size=0)
        with pytest.raises(ValidationError):
            FleetConfig(queue_depth=-1)

    def test_rejects_bad_cluster_names(self):
        trace = _trace(6)
        with pytest.raises(ValidationError):
            ClusterSpec(name="", trace=trace)
        with pytest.raises(ValidationError):
            ClusterSpec(name="a/b", trace=trace)

    def test_rejects_duplicate_names(self):
        trace = _trace(7)
        specs = [ClusterSpec(name="x", trace=trace), ClusterSpec(name="x", trace=trace)]
        with pytest.raises(ValidationError, match="unique"):
            FleetScheduler(specs)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValidationError, match="at least one"):
            FleetScheduler([])


class TestParity:
    def test_parallel_matches_serial_bit_for_bit(self):
        clusters = _clusters(3)
        cfg = FleetConfig(n_workers=N_WORKERS, **CFG)
        par = FleetScheduler(clusters, cfg).run()
        ser = FleetScheduler(clusters, cfg).run_serial()
        for name in sorted(par.clusters):
            p, s = par.clusters[name], ser.clusters[name]
            assert np.array_equal(p.constant_row, s.constant_row), name
            assert p.norm_ne == s.norm_ne
            assert p.verdict == s.verdict
            assert p.recalibrations == s.recalibrations

    def test_parallel_matches_plain_session(self):
        # The fleet path (shm views + capsule round-trips) against a plain
        # in-process session executing the same operations on the original
        # arrays: same P_D to the last bit.
        clusters = _clusters(2)
        cfg = FleetConfig(n_workers=N_WORKERS, **CFG)
        report = FleetScheduler(clusters, cfg).run()
        for spec in clusters:
            session = TraceSession(
                spec.trace, nbytes=cfg.nbytes, time_step=cfg.window,
                threshold=cfg.threshold, solver=cfg.solver,
            )
            for _ in range(cfg.operations):
                session.broadcast(root=0)
            assert np.array_equal(
                report.clusters[spec.name].constant_row,
                session.decomposition.constant.row,
            )

    def test_masked_cluster_round_trips(self):
        clusters = [ClusterSpec(name="m", trace=_trace(8, mask=True))]
        cfg = FleetConfig(n_workers=1, **CFG)
        par = FleetScheduler(clusters, cfg).run()
        ser = FleetScheduler(clusters, cfg).run_serial()
        assert np.array_equal(
            par.clusters["m"].constant_row, ser.clusters["m"].constant_row
        )


class TestScheduling:
    def test_per_cluster_operation_overrides(self):
        clusters = [
            ClusterSpec(name="short", trace=_trace(10), operations=4),
            ClusterSpec(name="long", trace=_trace(11), operations=20),
        ]
        report = FleetScheduler(
            clusters, FleetConfig(n_workers=2, operations=8, batch_size=4, window=6)
        ).run()
        assert report.clusters["short"].operations == 4
        assert report.clusters["long"].operations == 20
        assert report.total_operations == 24

    def test_straggler_does_not_starve_fleet(self):
        # One cluster has 10x the work; every other cluster must still
        # finish its own budget (single in-flight batch per cluster means
        # the straggler can hold at most one worker at a time).
        clusters = [ClusterSpec(name="straggler", trace=_trace(12), operations=40)]
        clusters += [
            ClusterSpec(name=f"quick{i}", trace=_trace(13 + i), operations=4)
            for i in range(3)
        ]
        report = FleetScheduler(
            clusters, FleetConfig(n_workers=2, operations=4, batch_size=4, window=6)
        ).run()
        assert report.clusters["straggler"].operations == 40
        for i in range(3):
            assert report.clusters[f"quick{i}"].operations == 4
        # Round-robin: the straggler's batches are interleaved, not front-
        # loaded — it needs 10 batches while the whole fleet needs 13.
        assert report.clusters["straggler"].worker_batches == 10
        assert report.total_batches == 13

    def test_worker_failure_surfaces_as_fleet_error(self):
        # A trace shorter than the window makes the worker-side session
        # constructor raise; the scheduler must convert that into a
        # FleetError naming the cluster and carrying the worker traceback.
        bad = ClusterSpec(name="bad", trace=_trace(20, n_snapshots=4))
        good = ClusterSpec(name="good", trace=_trace(21))
        with pytest.raises(FleetError) as exc_info:
            FleetScheduler(
                [good, bad], FleetConfig(n_workers=2, **CFG)
            ).run()
        assert exc_info.value.cluster == "bad"
        assert "trace too short" in exc_info.value.worker_traceback

    def test_instrumentation_aggregates_across_workers(self):
        sink = Instrumentation("fleet-test")
        clusters = _clusters(2)
        cfg = FleetConfig(n_workers=2, **CFG)
        FleetScheduler(clusters, cfg, instrumentation=sink).run()
        assert sink.counters["fleet.clusters"] == 2
        assert sink.counters["fleet.operations"] == 24
        assert sink.counters["fleet.workers"] == 2
        # Worker-side engine counters came home inside the capsules.
        assert sink.counters["fleet.worker.batches"] == 6
        assert sink.counters.get("engine.window.miss", 0) > 0
        assert sink.timers["fleet.elapsed"] > 0.0


class TestCheckpointing:
    def test_per_cluster_checkpoints_under_fleet_root(self, tmp_path):
        root = tmp_path / "fleet-root"
        clusters = _clusters(2)
        cfg = FleetConfig(n_workers=2, checkpoint_root=str(root), **CFG)
        report = FleetScheduler(clusters, cfg).run()
        assert sorted(os.listdir(root)) == ["c0", "c1", "fleet.json"]
        manifest = json.loads((root / "fleet.json").read_text(encoding="utf-8"))
        assert manifest["solver"] == cfg.solver
        # The SVD and elementwise kernels are no longer choices, so nothing
        # records one.
        assert "svd_backend" not in manifest
        assert "elementwise_backend" not in manifest
        for spec in clusters:
            store = CheckpointStore(str(root / spec.name))
            ckpt = store.load_latest()
            assert ckpt is not None
            assert "elementwise_backend" not in ckpt.meta["config"]
            assert int(ckpt.meta["stats"]["operations"]) == 12
            assert np.array_equal(
                ckpt.arrays["dec_row"], report.clusters[spec.name].constant_row
            )

    def test_unchanged_solver_state_is_written_once(self, tmp_path, calm_trace):
        # Each batch's capsule reaches the scheduler as new arrays; the
        # checkpoints of a cluster that never re-calibrates still all name
        # the first save's solver-state segment.
        from repro.persistence.checkpoint import read_checkpoint

        root = tmp_path / "root"
        cfg = FleetConfig(
            n_workers=1, checkpoint_root=str(root), operations=20, batch_size=4,
            window=6, threshold=50.0,
        )
        report = FleetScheduler([ClusterSpec(name="calm", trace=calm_trace)], cfg).run()
        assert report.clusters["calm"].recalibrations == 0
        ckpts = sorted((root / "calm").glob("ckpt-*.ckpt"))
        assert len(ckpts) == cfg.keep_checkpoints < 5  # five saves, oldest pruned
        names = {read_checkpoint(p).meta["segment"]["name"] for p in ckpts}
        assert names == {"seg-00000000"}
        assert sorted(p.name for p in (root / "calm").glob("seg-*")) == [
            "seg-00000000.a.seg", "seg-00000000.b.seg",
        ]
        ckpt = CheckpointStore(str(root / "calm")).load_latest()
        assert int(ckpt.meta["stats"]["operations"]) == 20
        assert np.array_equal(ckpt.arrays["dec_row"], report.clusters["calm"].constant_row)

    def test_checkpointed_cluster_resumable_as_session(self, tmp_path):
        # A fleet checkpoint is a full session capsule: from_capsule on its
        # payload yields a live session that continues where the fleet left
        # the cluster.
        from repro.runtime.session import SessionCapsule

        root = tmp_path / "root"
        clusters = _clusters(1)
        cfg = FleetConfig(n_workers=1, checkpoint_root=str(root), **CFG)
        FleetScheduler(clusters, cfg).run()
        ckpt = CheckpointStore(str(root / "c0")).load_latest()
        capsule = SessionCapsule(arrays=ckpt.arrays, meta=ckpt.meta)
        session = TraceSession.from_capsule(
            clusters[0].trace, capsule, verify_trace=True
        )
        assert session.stats.operations == 12
        session.broadcast(root=0)
        assert session.stats.operations == 13


class TestFleetRegime:
    """Detector choice ships to workers; regime stats come back merged."""

    @staticmethod
    def _step_cluster(name, seed, *, shifted):
        from repro.cloudsim.dynamics import DynamicsConfig, apply_step_regime

        trace = generate_trace(
            TraceConfig(
                n_machines=6,
                n_snapshots=18,
                dynamics=DynamicsConfig(
                    volatility_sigma=0.02,
                    spike_probability=0.0,
                    hotspot_probability=0.0,
                    migration_rate=0.0,
                ),
            ),
            seed=seed,
        )
        if shifted:
            trace = apply_step_regime(trace, start=12, factor=3.0)
        return ClusterSpec(name=name, trace=trace)

    def _config(self, **kwargs):
        # threshold=10 parks ordinary maintenance so every recalibration in
        # the report is detector-forced; warmup=4 fits the short trace.
        return FleetConfig(
            operations=12, batch_size=4, window=6, threshold=10.0,
            regime_detector="cusum", regime_params={"warmup": 4}, **kwargs
        )

    def test_serial_reports_per_cluster_regime_stats(self):
        clusters = [
            self._step_cluster("calm", 60, shifted=False),
            self._step_cluster("step", 61, shifted=True),
        ]
        report = FleetScheduler(clusters, self._config(n_workers=1)).run_serial()
        assert report.clusters["step"].regime_shifts >= 1
        assert report.clusters["calm"].regime_shifts == 0
        health = report.health()
        assert health["regime_shifts"] >= 1
        assert health["forced_recalibrations"] >= 1
        step_summary = report.clusters["step"].summary()
        assert step_summary["regime_shifts"] >= 1
        assert "regime_spikes" in step_summary

    def test_parallel_regime_stats_match_serial(self):
        clusters = [
            self._step_cluster("calm", 60, shifted=False),
            self._step_cluster("step", 61, shifted=True),
        ]
        ser = FleetScheduler(clusters, self._config(n_workers=1)).run_serial()
        par = FleetScheduler(clusters, self._config(n_workers=N_WORKERS)).run()
        for name in ("calm", "step"):
            assert (
                par.clusters[name].regime_shifts
                == ser.clusters[name].regime_shifts
            )
            assert (
                par.clusters[name].regime_spikes
                == ser.clusters[name].regime_spikes
            )
            assert np.array_equal(
                par.clusters[name].constant_row, ser.clusters[name].constant_row
            )
        assert par.health() == ser.health()

    def test_config_rejects_unknown_detector(self):
        with pytest.raises(ValidationError, match="registered detectors"):
            FleetConfig(regime_detector="kalman")
        with pytest.raises(ValidationError, match="regime_detector"):
            FleetConfig(regime_params={"warmup": 4})


class TestRunFleetFacade:
    def test_accepts_pairs_and_bare_traces(self):
        t0, t1 = _trace(30), _trace(31)
        report = run_fleet(
            [("named", t0), t1], n_workers=1, serial=True, **CFG
        )
        assert sorted(report.clusters) == ["cluster-1", "named"]

    def test_rejects_junk(self):
        with pytest.raises(ValidationError, match="clusters must be"):
            run_fleet([object()], serial=True)

    def test_serial_flag_matches_parallel(self):
        t = _trace(32)
        par = run_fleet([("x", t)], n_workers=1, **CFG)
        ser = run_fleet([("x", t)], serial=True, **CFG)
        assert np.array_equal(
            par.clusters["x"].constant_row, ser.clusters["x"].constant_row
        )


class TestBlasPool:
    """Each fleet worker runs a BLAS pool of its share of the CPUs."""

    @pytest.fixture
    def pool(self):
        from repro.utils import blas

        before = blas.blas_threads()
        if before is None:
            pytest.skip("numpy's BLAS exposes no thread-count control")
        yield blas
        blas.set_blas_threads(before)

    def test_unpinned_two_worker_fleet_runs_one_blas_thread_per_worker(
        self, pool, tmp_path, monkeypatch
    ):
        import multiprocessing as mp

        import repro.fleet.worker as worker_mod

        if mp.get_start_method() != "fork":
            pytest.skip("the worker probe relies on fork inheriting the patch")
        # Two CPUs, and a pool as large as them: BLAS left unpinned.
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        pool.set_blas_threads(2)
        if pool.blas_threads() != 2:
            pytest.skip("numpy's BLAS pool cannot grow to two threads here")
        log = tmp_path / "threads.log"
        real = worker_mod._run_batch

        def probe(task, traces):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {pool.blas_threads()}\n")
            return real(task, traces)

        monkeypatch.setattr(worker_mod, "_run_batch", probe)
        report = FleetScheduler(_clusters(4), FleetConfig(n_workers=2, **CFG)).run()
        assert report.total_operations == 4 * CFG["operations"]
        seen = {tuple(line.split()) for line in log.read_text().splitlines()}
        assert len({pid for pid, _ in seen}) == 2
        assert {threads for _, threads in seen} == {"1"}
        assert pool.blas_threads() == 2  # the scheduler's own pool is untouched

    def test_share_never_grows_a_pool(self, pool, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 8)
        pool.set_blas_threads(1)
        assert pool.share_blas_pool(2) == 1
        assert pool.blas_threads() == 1

    def test_share_without_blas_control_does_nothing(self, pool, monkeypatch):
        monkeypatch.setattr(pool, "openblas", lambda: None)
        assert pool.blas_threads() is None
        assert pool.share_blas_pool(2) is None
