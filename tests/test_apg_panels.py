"""The unmasked APG loop over column panels, with and without a helper thread.

A paper-scale solve (10 × 38416, 196 instances) runs each iteration over two
contiguous column panels; with a thread budget of two or more the second
panel runs on a helper thread. Which thread runs a panel must never change
the answer: every solve here is compared bitwise between budgets 1 and 2,
and against the block-by-block oracle at the oracle tolerance. The panel
count comes from the shape alone (one panel at the fleet's 10 × 4096).

Run under ``taskset -c 0`` the default budget is one, so the tests that use
the default take the no-helper branch.
"""

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core import panels
from repro.core.apg import rpca_apg
from repro.core.decompose import constant_row
from repro.fleet import ClusterSpec, FleetConfig, FleetScheduler
from repro.observability import Instrumentation, instrumented
from repro.runtime.session import TraceSession

from .oracles import apg_unmasked_reference

PAPER_N = 196  # 10 × 38416 windows: two panels
FLEET_N = 64  # 10 × 4096 windows: one panel
THREADED = "kernel.apg.threaded_steps"


@pytest.fixture(scope="module")
def paper_trace():
    return generate_trace(TraceConfig(n_machines=PAPER_N, n_snapshots=16), seed=3)


@pytest.fixture(scope="module")
def windows(paper_trace):
    return [paper_trace.tp_matrix(8 << 20, start=s, count=10).data for s in (0, 1)]


@pytest.fixture
def budget():
    """Set the solve thread budget for one test; the default is restored."""
    yield panels.set_thread_budget
    panels.set_thread_budget(None)


def _solve_with(budget, threads, a, **kwargs):
    budget(threads)
    sink = Instrumentation("t")
    with instrumented(sink):
        res = rpca_apg(a, **kwargs)
    return res, sink.counters


def _assert_bitwise(got, want):
    assert got.iterations == want.iterations
    assert got.rank == want.rank
    assert got.converged == want.converged
    assert got.residual == want.residual
    assert np.array_equal(got.low_rank, want.low_rank)
    assert np.array_equal(got.sparse, want.sparse)


class TestPanelRule:
    def test_panel_count_comes_from_the_shape(self):
        assert len(panels.panel_bounds(FLEET_N**2)) == 1
        assert panels.panel_bounds(PAPER_N**2) == ((0, 19208), (19208, 38416))

    def test_fleet_width_never_uses_the_helper(self, budget):
        a = generate_trace(
            TraceConfig(n_machines=FLEET_N, n_snapshots=10), seed=3
        ).tp_matrix(8 << 20, count=10).data
        res, counters = _solve_with(budget, 2, a)
        assert res.converged
        assert THREADED not in counters

    def test_bad_budget_is_rejected(self):
        with pytest.raises(ValueError, match="thread budget"):
            panels.set_thread_budget(0)


class TestRunPanels:
    def test_results_come_back_in_panel_order(self, budget):
        budget(2)
        ran = []

        def step(p):
            ran.append((p, threading.get_ident()))
            return p * 10

        parts, threaded = panels.run_panels(step, 2)
        assert parts == [0, 10] and threaded
        assert len({thread for _, thread in ran}) == 2
        ran.clear()
        budget(1)
        assert panels.run_panels(step, 2) == ([0, 10], False)
        assert {thread for _, thread in ran} == {threading.get_ident()}

    def test_a_helper_failure_reaches_the_caller(self, budget):
        budget(2)
        done = []

        def step(p):
            if p == 1:
                raise ZeroDivisionError("panel 1")
            done.append(p)
            return p

        with pytest.raises(ZeroDivisionError, match="panel 1"):
            panels.run_panels(step, 2)
        assert done == [0]
        # The helper survives and serves the next solve.
        assert panels.run_panels(lambda p: p, 2) == ([0, 1], True)

    def test_a_caller_failure_waits_for_the_helper(self, budget):
        budget(2)
        finished = threading.Event()

        def step(p):
            if p == 0:
                raise KeyError("panel 0")
            finished.wait(0.05)  # still running when panel 0 has failed
            finished.set()

        with pytest.raises(KeyError):
            panels.run_panels(step, 2)
        assert finished.is_set()

    def test_the_helper_keeps_no_solve_alive(self, budget, windows, monkeypatch):
        # A finished job must not pin its solve's workspace until the next
        # solve: that held a second 15 MB workspace alive at paper scale.
        from repro.core import kernels

        buffers = []
        real = kernels.SolveWorkspace.buf

        def tracked(self, name):
            arr = real(self, name)
            buffers.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr(kernels.SolveWorkspace, "buf", tracked)
        res, counters = _solve_with(budget, 2, windows[0])
        assert counters[THREADED] == res.iterations
        del res
        gc.collect()
        assert buffers and all(ref() is None for ref in buffers)

    def test_concurrent_solves_share_one_helper(self, budget, windows):
        # More solving threads than cores and a short switch interval: the
        # solves that find the helper busy run their panels themselves, and
        # every answer is still the one-thread answer.
        budget(1)
        want = rpca_apg(windows[0])
        budget(2)
        results, errors = [None] * 4, []

        def solve(i):
            try:
                results[i] = rpca_apg(windows[0])
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for got in results:
            _assert_bitwise(got, want)


class TestThreadCountInvariance:
    def test_cold_solve(self, budget, windows):
        one, c1 = _solve_with(budget, 1, windows[0])
        two, c2 = _solve_with(budget, 2, windows[0])
        _assert_bitwise(two, one)
        assert THREADED not in c1
        assert c2[THREADED] == two.iterations

    def test_warm_solve(self, budget, windows):
        seed = rpca_apg(windows[0])
        one, _ = _solve_with(budget, 1, windows[1], warm_start=seed)
        two, _ = _solve_with(budget, 2, windows[1], warm_start=seed)
        assert one.warm_started and two.warm_started
        _assert_bitwise(two, one)

    def test_recalibration_chain(self, budget, paper_trace):
        def run(threads):
            budget(threads)
            session = TraceSession(paper_trace, threshold=0.01)
            for root in range(6):
                session.broadcast(root=root)
            return session

        one, two = run(1), run(2)
        assert one.stats.recalibrations >= 5
        assert two.stats == one.stats
        assert np.array_equal(
            two.decomposition.constant.row, one.decomposition.constant.row
        )
        _assert_bitwise(two.decomposition.solver_result, one.decomposition.solver_result)


class TestAgainstTheOracle:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_paper_scale_matches_the_oracle(self, budget, windows, threads):
        budget(threads)
        got = rpca_apg(windows[0])
        want = apg_unmasked_reference(windows[0])
        assert want.converged
        assert got.iterations == want.iterations
        assert got.rank == want.rank
        for x, y in (
            (got.low_rank, want.low_rank),
            (got.sparse, want.sparse),
            (constant_row(got.low_rank), constant_row(want.low_rank)),
        ):
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_results_are_views_of_the_tall_carriers(self, windows):
        res = rpca_apg(windows[0])
        assert res.low_rank.shape == windows[0].shape
        # Transposed views: no m × n copy is made to hand them back.
        assert res.low_rank.base is not None and res.sparse.base is not None
        assert res.low_rank.flags.f_contiguous


class TestObservability:
    def test_default_budget_counts_one_per_iteration(self, windows):
        sink = Instrumentation("t")
        with instrumented(sink):
            res = rpca_apg(windows[0])
        expected = res.iterations if panels.thread_budget() >= 2 else 0
        assert sink.counters.get(THREADED, 0) == expected
        assert sink.counters["kernel.ew.steps"] == res.iterations
        assert sink.counters["kernel.svt.gram"] == res.iterations


def _fleet_clusters(n):
    calm = DynamicsConfig(spike_probability=0.0, hotspot_probability=0.0)
    return [
        ClusterSpec(
            name=f"c{i}",
            trace=generate_trace(
                TraceConfig(n_machines=PAPER_N, n_snapshots=12, dynamics=calm),
                seed=40 + i,
            ),
        )
        for i in range(n)
    ]


def _counters(report):
    sink = Instrumentation("t")
    sink.merge(report.instrumentation)
    return sink.counters


def _assert_fleet_parity(clusters, config):
    run = FleetScheduler(clusters, config).run()
    serial = FleetScheduler(clusters, config).run_serial()
    for name, want in serial.clusters.items():
        got = run.clusters[name]
        assert got.ok
        assert np.array_equal(got.constant_row, want.constant_row)
        assert got.recalibrations == want.recalibrations
    sweep = FleetScheduler(clusters, config).run_sweep()
    sweep_serial = FleetScheduler(clusters, config).run_sweep_serial()
    for name, want in sweep_serial.clusters.items():
        assert np.array_equal(sweep.clusters[name].constant_row, want.constant_row)
    return run, sweep


@pytest.mark.fleet
class TestForkSafety:
    """The parent's helper thread does not exist in a forked worker."""

    # One cluster per sweep shard, so that a 2-worker sweep runs 2 workers.
    CFG = dict(operations=3, batch_size=1, window=10, threshold=0.01)

    @pytest.fixture(scope="class")
    def clusters(self):
        return _fleet_clusters(2)

    @staticmethod
    def _start_parent_helper(windows):
        sink = Instrumentation("t")
        with instrumented(sink):
            rpca_apg(windows[0])
        return sink.counters.get(THREADED, 0)

    def test_two_workers_on_two_cpus_use_no_helper(self, windows, clusters):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("needs two CPUs")
        try:
            os.sched_setaffinity(0, cpus[:2])
            assert self._start_parent_helper(windows) > 0
            config = FleetConfig(n_workers=2, **self.CFG)
            run, sweep = _assert_fleet_parity(clusters, config)
        finally:
            os.sched_setaffinity(0, cpus)
        # One CPU per worker: every panel ran on the worker's own thread.
        for report in (run, sweep):
            counters = _counters(report)
            assert counters["kernel.svt.gram"] > 0
            assert counters.get(THREADED, 0) == 0

    def test_a_lone_worker_starts_its_own_helper(self, windows, clusters):
        # Budget 2 in the child: a helper inherited from the parent would
        # never answer, and the solve would hang.
        self._start_parent_helper(windows)
        config = FleetConfig(n_workers=1, **self.CFG)
        run, sweep = _assert_fleet_parity(clusters, config)
        threaded = panels.thread_budget() >= 2
        for report in (run, sweep):
            assert (_counters(report).get(THREADED, 0) > 0) == threaded
