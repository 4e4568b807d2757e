"""Fleet sweeps: stack-block transport, shard planning, parity, spans.

A sweep solves every cluster's trailing window once. The windows travel
to workers in shards through :class:`SharedStackBlock` segments, and each
worker solves its shard one window at a time, as a single ``decompose``
would.
These tests pin the transport round-trip, the deterministic shard plan,
bit parity of the parallel run, the serial oracle and a per-cluster
:func:`~repro.core.decompose.decompose`, worker-failure surfacing, and
that the workers' solve spans fold into the fleet sink
(``Instrumentation.merge``).
"""

import os
import pickle

import numpy as np
import pytest

from repro import sweep_fleet
from repro.cloudsim.trace import CalibrationTrace
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.errors import FleetError, ValidationError
from repro.fleet import (
    ClusterSpec,
    FleetConfig,
    FleetScheduler,
    SharedStackBlock,
)
from repro.fleet.worker import solve_shard
from repro.observability import Instrumentation, instrumented

pytestmark = pytest.mark.fleet

N_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "2"))

MB = 1024 * 1024

# The retired name "apg" runs through its alias to IALM
# (repro.core.solvers.resolve_solver), so this surface keeps taking it.
LEGACY_APG = pytest.param(
    "apg", marks=pytest.mark.filterwarnings("ignore:solver 'apg' has been retired")
)


def _trace(seed, *, n_machines=6, n_snapshots=16, mask=False):
    trace = generate_trace(
        TraceConfig(n_machines=n_machines, n_snapshots=n_snapshots), seed=seed
    )
    if not mask:
        return trace
    rng = np.random.default_rng(seed)
    m = rng.random(trace.alpha.shape) > 0.1
    return CalibrationTrace(
        alpha=trace.alpha, beta=trace.beta, timestamps=trace.timestamps, mask=m
    )


def _clusters(n, **kwargs):
    return [ClusterSpec(name=f"c{i}", trace=_trace(50 + i, **kwargs)) for i in range(n)]


def _tps(n, *, seed0=50, mask=False, **kwargs):
    return [
        _trace(seed0 + i, mask=mask, **kwargs).tp_matrix(8 * MB) for i in range(n)
    ]


CFG = dict(batch_size=3, window=6)


class TestSharedStackBlock:
    def test_round_trip_unmasked(self):
        tps = _tps(3)
        with SharedStackBlock.create(tps) as block:
            attached = SharedStackBlock.attach(block.descriptor)
            try:
                rebuilt = attached.tp_matrices()
                assert len(rebuilt) == 3
                for orig, back in zip(tps, rebuilt):
                    assert np.array_equal(back.data, orig.data)
                    assert np.array_equal(back.timestamps, orig.timestamps)
                    assert back.n_machines == orig.n_machines
                    assert back.mask is None
            finally:
                attached.close()

    def test_round_trip_mixed_masks(self):
        tps = _tps(2, mask=True) + _tps(1, seed0=90)
        assert tps[0].mask is not None and tps[2].mask is None
        with SharedStackBlock.create(tps) as block:
            rebuilt = block.tp_matrices()
            assert np.array_equal(rebuilt[0].mask, tps[0].mask)
            assert np.array_equal(rebuilt[1].mask, tps[1].mask)
            # The unmasked slice travels as all-ones and normalizes back.
            assert rebuilt[2].mask is None
            assert np.array_equal(rebuilt[2].data, tps[2].data)

    def test_views_are_zero_copy(self):
        tps = _tps(2)
        with SharedStackBlock.create(tps) as block:
            for tp in block.tp_matrices():
                assert not tp.data.flags.owndata
                assert not tp.timestamps.flags.owndata

    def test_descriptor_is_small_and_picklable(self):
        tps = _tps(4)
        with SharedStackBlock.create(tps) as block:
            blob = pickle.dumps(block.descriptor)
            # The whole point: descriptors ship over queues, matrices don't.
            assert len(blob) < 1024
            desc = pickle.loads(blob)
            assert desc.batch == 4
            assert desc.nbytes >= 4 * tps[0].data.nbytes

    def test_attach_after_unlink_raises(self):
        block = SharedStackBlock.create(_tps(1))
        desc = block.descriptor
        block.unlink()
        with pytest.raises(FleetError, match="gone"):
            SharedStackBlock.attach(desc)

    def test_only_owner_may_unlink(self):
        with SharedStackBlock.create(_tps(1)) as block:
            attached = SharedStackBlock.attach(block.descriptor)
            try:
                with pytest.raises(FleetError, match="owner|creating"):
                    attached.unlink()
            finally:
                attached.close()

    def test_heterogeneous_stack_rejected(self):
        tps = _tps(1) + _tps(1, n_machines=5)
        with pytest.raises(ValidationError, match="shape-homogeneous"):
            SharedStackBlock.create(tps)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            SharedStackBlock.create([])


class TestPlanSweep:
    def test_plan_is_deterministic_and_respects_batch_size(self):
        sched = FleetScheduler(_clusters(7), FleetConfig(**CFG))
        plan_a = sched.plan_sweep()
        plan_b = sched.plan_sweep()
        assert [s.names for s in plan_a] == [s.names for s in plan_b]
        assert [s.index for s in plan_a] == list(range(len(plan_a)))
        # 7 same-shape clusters at width 3 -> shards of 3, 3, 1.
        assert [len(s.names) for s in plan_a] == [3, 3, 1]
        assert sorted(n for s in plan_a for n in s.names) == [
            f"c{i}" for i in range(7)
        ]

    def test_plan_groups_by_shape(self):
        clusters = _clusters(3) + [
            ClusterSpec(name=f"w{i}", trace=_trace(80 + i, n_machines=8))
            for i in range(2)
        ]
        shards = FleetScheduler(clusters, FleetConfig(batch_size=4, window=6)).plan_sweep()
        for shard in shards:
            shapes = {tp.data.shape for tp in shard.tps}
            assert len(shapes) == 1  # a shard never mixes shapes
        assert {s.names for s in shards} == {("c0", "c1", "c2"), ("w0", "w1")}

    def test_plan_clamps_window_to_short_traces(self):
        clusters = [ClusterSpec(name="short", trace=_trace(9, n_snapshots=4))]
        shards = FleetScheduler(clusters, FleetConfig(**CFG)).plan_sweep()
        assert shards[0].tps[0].data.shape[0] == 4  # min(window=6, snapshots=4)


class TestSweepParity:
    def test_parallel_matches_serial_bitwise(self):
        clusters = _clusters(5) + [
            ClusterSpec(name="masked0", trace=_trace(70, mask=True)),
            ClusterSpec(name="masked1", trace=_trace(71, mask=True)),
        ]
        serial = sweep_fleet(clusters, serial=True, **CFG)
        parallel = sweep_fleet(clusters, n_workers=N_WORKERS, **CFG)
        assert parallel.n_workers == min(N_WORKERS, parallel.total_shards)
        assert set(serial.clusters) == set(parallel.clusters) == {
            c.name for c in clusters
        }
        for name, s in serial.clusters.items():
            p = parallel.clusters[name]
            assert np.array_equal(s.constant_row, p.constant_row)
            assert s.iterations == p.iterations
            assert s.rank == p.rank
            assert s.residual == p.residual
            assert s.norm_ne == p.norm_ne
            assert s.verdict == p.verdict

    def test_sweep_is_repeatable(self):
        clusters = _clusters(3)
        first = sweep_fleet(clusters, n_workers=N_WORKERS, **CFG)
        second = sweep_fleet(clusters, n_workers=N_WORKERS, **CFG)
        for name in first.clusters:
            assert np.array_equal(
                first.clusters[name].constant_row, second.clusters[name].constant_row
            )

    def test_worker_failure_surfaces_as_fleet_error(self):
        # FleetConfig rejects an unknown solver, so force one past it: it
        # blows up inside the worker's solve, and the scheduler must surface
        # it as a FleetError naming the shard and carrying the worker
        # traceback.
        cfg = FleetConfig(n_workers=N_WORKERS, **CFG)
        object.__setattr__(cfg, "solver", "no-such-solver")
        with pytest.raises(FleetError, match="sweep shard") as exc_info:
            FleetScheduler(_clusters(2), cfg).run_sweep()
        assert "no-such-solver" in exc_info.value.worker_traceback

    @pytest.mark.parametrize("solver", [LEGACY_APG, "ialm", "pca"])
    def test_each_cluster_matches_its_single_auto_solve(self, solver):
        # Mixed masked/unmasked windows plus one trace shorter than the
        # window, so the plan holds shards of two shapes. PCA cannot take a
        # mask or an SVD backend, so its fleet is fully observed.
        clusters = _clusters(4) + [
            ClusterSpec(name="short", trace=_trace(60, n_snapshots=4))
        ]
        if solver != "pca":
            clusters += [
                ClusterSpec(name="masked0", trace=_trace(70, mask=True)),
                ClusterSpec(name="masked1", trace=_trace(71, mask=True)),
            ]
        cfg = FleetConfig(n_workers=N_WORKERS, solver=solver, **CFG)
        sched = FleetScheduler(clusters, cfg)
        assert len({s.tps[0].data.shape for s in sched.plan_sweep()}) == 2
        reports = [sched.run_sweep(), sched.run_sweep_serial()]
        for spec in clusters:
            count = min(cfg.window, spec.trace.n_snapshots)
            tp = spec.trace.tp_matrix(
                cfg.nbytes, start=spec.trace.n_snapshots - count, count=count
            )
            assert (tp.mask is not None) == spec.name.startswith("masked")
            want = decompose(tp, solver=solver)
            for report in reports:
                got = report.clusters[spec.name]
                assert np.array_equal(got.constant_row, want.constant.row)
                assert got.iterations == want.solver_iterations


    @pytest.mark.parametrize("solver", [LEGACY_APG, "ialm"])
    def test_each_cluster_matches_its_single_gram_solve(self, solver):
        # Short sides here are at most 64, where auto is the Gram kernel:
        # the sweep's auto solves equal per-cluster gram solves bitwise.
        clusters = _clusters(3) + [
            ClusterSpec(name="masked0", trace=_trace(70, mask=True))
        ]
        cfg = FleetConfig(n_workers=N_WORKERS, solver=solver, **CFG)
        report = FleetScheduler(clusters, cfg).run_sweep()
        for spec in clusters:
            count = min(cfg.window, spec.trace.n_snapshots)
            tp = spec.trace.tp_matrix(
                cfg.nbytes, start=spec.trace.n_snapshots - count, count=count
            )
            want = decompose(tp, solver=solver, svd_backend="gram")
            got = report.clusters[spec.name]
            assert np.array_equal(got.constant_row, want.constant.row)
            assert got.iterations == want.solver_iterations


def _sweep_spans(sink):
    return [s for s in sink.spans if s.context == "fleet-sweep"]


class TestSweepInstrumentation:
    def test_merge_folds_worker_solve_spans(self):
        """A worker's state_dict carries one span per window; merging it
        into the fleet sink appends the spans and sums the counters."""
        worker = Instrumentation("sweep-worker")
        with instrumented(worker):
            solve_shard(["a", "b", "c"], _tps(3))
        state = worker.state_dict()
        assert len(_sweep_spans(worker)) == 3
        sink = Instrumentation("fleet")
        sink.merge(state)
        sink.merge(state)
        assert sink.spans == worker.spans * 2
        for name, value in worker.counters.items():
            assert sink.counters[name] == 2 * value
        assert sink.counters["kernel.svt.gram"] > 0

    @pytest.mark.parametrize("mode", ["parallel", "serial"])
    def test_one_solve_span_per_cluster(self, mode):
        sink = Instrumentation("fleet")
        cfg = FleetConfig(n_workers=N_WORKERS, **CFG)
        sched = FleetScheduler(_clusters(5), cfg, instrumentation=sink)
        report = sched.run_sweep() if mode == "parallel" else sched.run_sweep_serial()
        # 5 clusters at width 3 -> 2 shards; in parallel mode every span
        # was recorded in a worker process and merged into this sink.
        spans = _sweep_spans(sink)
        assert len(spans) == sink.solves == 5
        assert all(s.solver == "ialm" for s in spans)
        assert sink.counters["fleet.sweep.shards"] == 2
        assert sink.counters["fleet.clusters"] == 5
        expected_workers = 1 if mode == "serial" else min(N_WORKERS, 2)
        assert sink.counters["fleet.workers"] == expected_workers
        # The report snapshot carries the merged state too.
        assert [
            s["context"] for s in report.instrumentation["spans"]
        ] == ["fleet-sweep"] * 5
        assert sorted(r.iterations for r in report.clusters.values()) == sorted(
            s.iterations for s in spans
        )
