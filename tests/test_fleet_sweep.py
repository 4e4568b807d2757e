"""Fleet sweeps: parity, failure surfacing, spans.

A sweep solves every cluster's trailing window once. Each cluster is one
worker task whose window rides in the task, solved as a single
``decompose`` would. These tests pin bit parity of the parallel run, the
serial oracle and a per-cluster :func:`~repro.core.decompose.decompose`,
worker-failure surfacing, and that the workers' solve spans fold into the
fleet sink (``Instrumentation.merge``).
"""

import os

import numpy as np
import pytest

from repro import sweep_fleet
from repro.cloudsim.trace import CalibrationTrace
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.errors import FleetError
from repro.fleet import ClusterSpec, FleetConfig, FleetScheduler
from repro.fleet.worker import solve_window
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


CFG = dict(window=6)


class TestSweepParity:
    def test_parallel_matches_serial_bitwise(self):
        clusters = _clusters(5) + [
            ClusterSpec(name="masked0", trace=_trace(70, mask=True)),
            ClusterSpec(name="masked1", trace=_trace(71, mask=True)),
        ]
        serial = sweep_fleet(clusters, serial=True, **CFG)
        parallel = sweep_fleet(clusters, n_workers=N_WORKERS, **CFG)
        assert parallel.n_workers == min(N_WORKERS, len(clusters))
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
        # it as a FleetError naming the cluster and carrying the worker
        # traceback.
        cfg = FleetConfig(n_workers=N_WORKERS, **CFG)
        object.__setattr__(cfg, "solver", "no-such-solver")
        with pytest.raises(FleetError, match="cluster 'c[01]' failed") as exc_info:
            FleetScheduler(_clusters(2), cfg).run_sweep()
        assert exc_info.value.cluster in {"c0", "c1"}
        assert "no-such-solver" in exc_info.value.worker_traceback

    @pytest.mark.parametrize("solver", [LEGACY_APG, "ialm", "pca"])
    def test_each_cluster_matches_its_single_auto_solve(self, solver):
        # Mixed masked/unmasked windows plus one trace shorter than the
        # window, so the windows come in two shapes. PCA cannot take a
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
        reports = [sched.run_sweep(), sched.run_sweep_serial()]
        shapes = set()
        for spec in clusters:
            count = min(cfg.window, spec.trace.n_snapshots)
            tp = spec.trace.tp_matrix(
                cfg.nbytes, start=spec.trace.n_snapshots - count, count=count
            )
            shapes.add(tp.data.shape)
            assert (tp.mask is not None) == spec.name.startswith("masked")
            want = decompose(tp, solver=solver)
            for report in reports:
                got = report.clusters[spec.name]
                assert np.array_equal(got.constant_row, want.constant.row)
                assert got.iterations == want.solver_iterations
        assert len(shapes) == 2  # "short" is clamped to its 4 snapshots

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
            for i, name in enumerate("abc"):
                solve_window(name, _trace(50 + i).tp_matrix(8 * MB))
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
        # In parallel mode every span was recorded in a worker process and
        # merged into this sink.
        spans = _sweep_spans(sink)
        assert len(spans) == sink.solves == 5
        assert all(s.solver == "ialm" for s in spans)
        assert sink.counters["fleet.clusters"] == 5
        expected_workers = 1 if mode == "serial" else min(N_WORKERS, 5)
        assert sink.counters["fleet.workers"] == expected_workers
        # The report snapshot carries the merged state too.
        assert [
            s["context"] for s in report.instrumentation["spans"]
        ] == ["fleet-sweep"] * 5
        assert sorted(r.iterations for r in report.clusters.values()) == sorted(
            s.iterations for s in spans
        )
