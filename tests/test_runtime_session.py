"""Unit tests for the Algorithm-1 runtime session."""

import copy

import numpy as np
import pytest

from repro.cloudsim.bands import BandTiers
from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.trace import CalibrationTrace
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.collectives.exec_model import collective_time, weights_to_alphabeta
from repro.collectives.fnf import fnf_tree
from repro.core.engine import DecompositionEngine
from repro.core.maintenance import MaintenanceController, MaintenanceDecision
from repro.errors import ValidationError
from repro.mapping.evaluate import bandwidth_from_weights, mapping_total_time
from repro.mapping.greedy import greedy_mapping
from repro.mapping.taskgraph import random_task_graph
from repro.persistence import CheckpointStore, PersistenceConfig, SnapshotJournal
from repro.runtime import session as session_module
from repro.runtime.session import TraceSession
from tests.oracles import FreshTreeSession

MB = 1024 * 1024


class TestSessionBasics:
    def test_initial_calibration_charged(self, small_trace):
        s = TraceSession(small_trace, time_step=10, calibration_cost=33.0,
                         solver="row_constant")
        assert s.stats.overhead_seconds == 33.0
        assert s.stats.operations == 0
        assert 0.0 <= s.norm_ne < 1.0
        assert s.verdict in ("stable", "moderately-stable", "dynamic", "too-dynamic")

    def test_collectives_advance_and_account(self, small_trace):
        s = TraceSession(small_trace, time_step=10, calibration_cost=0.0,
                         solver="row_constant")
        r1 = s.broadcast(root=0)
        r2 = s.scatter(root=3, block_bytes=1 * MB)
        assert r1.snapshot == 10 and r2.snapshot == 11
        assert s.stats.operations == 2
        assert s.stats.communication_seconds == pytest.approx(
            r1.elapsed + r2.elapsed
        )
        assert r1.expected > 0 and r1.elapsed > 0

    def test_cursor_wraps(self, small_trace):
        s = TraceSession(small_trace, time_step=10, calibration_cost=0.0,
                         solver="row_constant", threshold=1e9)
        snaps = [s.broadcast().snapshot for _ in range(20)]
        assert max(snaps) == small_trace.n_snapshots - 1
        assert snaps.count(10) >= 2  # wrapped back to the window start

    def test_all_ops_supported(self, small_trace):
        s = TraceSession(small_trace, time_step=10, calibration_cost=0.0,
                         solver="row_constant", threshold=1e9)
        for record in (s.broadcast(), s.scatter(), s.reduce(), s.gather()):
            assert record.elapsed > 0

    def test_map_tasks(self, small_trace):
        s = TraceSession(small_trace, time_step=10, calibration_cost=0.0,
                         solver="row_constant", threshold=1e9)
        g = random_task_graph(8, seed=0)
        mapping, elapsed = s.map_tasks(g)
        assert len(set(mapping.tolist())) == 8
        assert elapsed > 0
        assert s.stats.history[-1].op == "mapping"

    def test_too_large_graph_rejected(self, small_trace):
        s = TraceSession(small_trace, time_step=10, solver="row_constant")
        with pytest.raises(ValidationError):
            s.map_tasks(random_task_graph(9, seed=0))

    def test_short_trace_rejected(self, tiny_trace):
        with pytest.raises(ValidationError):
            TraceSession(tiny_trace, time_step=10)

    def test_subcluster_operation(self, small_trace):
        # Algorithm 1 line 3: run the operation on C' ⊆ C with the full
        # cluster's constant component.
        s = TraceSession(small_trace, time_step=10, solver="row_constant",
                         calibration_cost=0.0, threshold=1e9)
        rec = s.run_collective("broadcast", root=0, machines=[0, 2, 4, 6])
        assert rec.elapsed > 0 and rec.expected > 0
        # A 4-machine broadcast is cheaper than the full 8-machine one.
        full = s.run_collective("broadcast", root=0)
        assert rec.elapsed < full.elapsed

    def test_subcluster_validation(self, small_trace):
        s = TraceSession(small_trace, time_step=10, solver="row_constant")
        with pytest.raises(ValidationError):
            s.run_collective("broadcast", machines=[0])
        with pytest.raises(ValidationError):
            s.run_collective("broadcast", machines=[0, 0, 1])
        with pytest.raises(ValidationError):
            s.run_collective("broadcast", machines=[0, 99])

    def test_communicator_bridges_to_mpisim(self, small_trace):
        s = TraceSession(small_trace, time_step=10, solver="row_constant",
                         calibration_cost=0.0)
        comm = s.communicator()
        assert comm.size == 8
        out = comm.bcast(np.arange(5), root=2)
        assert len(out) == 8 and comm.elapsed > 0
        # Snapshot override and bounds checking.
        comm2 = s.communicator(snapshot=12)
        assert comm2.size == 8
        with pytest.raises(ValidationError):
            s.communicator(snapshot=99)


class TestSessionMaintenance:
    def _two_regime_trace(self):
        dyn = DynamicsConfig(
            volatility_sigma=0.03, spike_probability=0.0, hotspot_probability=0.0
        )
        a = generate_trace(
            TraceConfig(n_machines=8, n_snapshots=15, dynamics=dyn), seed=1
        )
        b = generate_trace(
            TraceConfig(
                n_machines=8,
                n_snapshots=15,
                dynamics=dyn,
                tiers=BandTiers(
                    same_rack_bandwidth=125e6 / 4, cross_rack_bandwidth=50e6 / 4
                ),
            ),
            seed=2,
        )
        return CalibrationTrace(
            alpha=np.concatenate([a.alpha, b.alpha]),
            beta=np.concatenate([a.beta, b.beta]),
            timestamps=np.arange(30, dtype=float) * 1800.0,
        )

    def test_recalibrates_on_regime_change(self):
        trace = self._two_regime_trace()
        s = TraceSession(trace, time_step=10, threshold=1.0,
                         calibration_cost=10.0, solver="row_constant")
        decisions = [s.broadcast().decision for _ in range(12)]
        assert MaintenanceDecision.RECALIBRATE in decisions
        assert s.stats.recalibrations >= 1
        # The estimate adapts: post-recalibration expectations track reality.
        last = s.stats.history[-1]
        assert abs(last.elapsed - last.expected) / last.expected < 1.0

    def test_no_recalibration_on_stationary_trace(self, calm_trace):
        s = TraceSession(calm_trace, time_step=10, threshold=1.0,
                         calibration_cost=10.0, solver="row_constant")
        for _ in range(10):
            s.broadcast()
        assert s.stats.recalibrations == 0
        # Only the initial calibration was charged.
        assert s.stats.overhead_seconds == 10.0

    def test_average_total(self, calm_trace):
        s = TraceSession(calm_trace, time_step=10, threshold=1e9,
                         calibration_cost=5.0, solver="row_constant")
        for _ in range(5):
            s.broadcast()
        assert s.stats.average_total_seconds == pytest.approx(
            (s.stats.communication_seconds + 5.0) / 5
        )


# -- serving from the P_D in service ------------------------------------------
# The session memoizes trees, α-β pairs and expected times per constant
# component. Every record must equal pricing the same plan from scratch with
# the public building blocks, on the weights in service before each step.

N_SERVE = 10


@pytest.fixture(scope="module")
def serve_trace():
    return generate_trace(TraceConfig(n_machines=N_SERVE, n_snapshots=30), seed=99)


def _mixed_plan(seed, length):
    """Collectives with random roots and sizes, sub-cluster ops, mappings."""
    rng = np.random.default_rng(seed)
    kinds = ("broadcast", "scatter", "reduce", "gather")
    plan = []
    for i in range(length):
        if i % 7 == 6:
            plan.append(("map", random_task_graph(5, seed=int(rng.integers(2**31)))))
        elif i % 5 == 4:
            size = int(rng.integers(2, N_SERVE))
            machines = sorted(rng.choice(N_SERVE, size=size, replace=False).tolist())
            plan.append((kinds[i % 4], int(rng.integers(size)), None, machines))
        else:
            nbytes = (None, MB / 2)[int(rng.integers(2))]
            plan.append((kinds[i % 4], int(rng.integers(N_SERVE)), nbytes, None))
    return plan


def _serve_and_check(session, plan, controller):
    """Run *plan*; check each record against a from-scratch reference."""
    span = session.trace.n_snapshots - session.time_step
    for step in plan:
        k = session.time_step + session.stats.operations % span
        w = session.weight_matrix()
        live_a, live_b = session.trace.alpha[k], session.trace.beta[k]
        if step[0] == "map":
            graph = step[1]
            ea, eb = weights_to_alphabeta(w, session.nbytes)
            want_map = greedy_mapping(graph, bandwidth_from_weights(w))
            expected = mapping_total_time(graph, want_map, ea, eb)
            elapsed = mapping_total_time(graph, want_map, live_a, live_b)
            mapping, got_elapsed = session.map_tasks(graph)
            assert np.array_equal(mapping, want_map)
            assert got_elapsed == elapsed
        else:
            op, root, nbytes, machines = step
            size = session.nbytes if nbytes is None else nbytes
            if machines is not None:
                sel = np.ix_(machines, machines)
                w = w[sel]
                np.fill_diagonal(w, 0.0)
                live_a, live_b = live_a[sel], live_b[sel]
            tree = fnf_tree(w, root)
            ea, eb = weights_to_alphabeta(w, size)
            expected = collective_time(op, tree, ea, eb, size)
            elapsed = collective_time(op, tree, live_a, live_b, size)
            session.run_collective(op, root=root, nbytes=nbytes, machines=machines)
        record = session.stats.history[-1]
        assert record.snapshot == k
        assert (record.expected, record.elapsed) == (expected, elapsed)
        assert record.decision is controller.observe(expected, elapsed)


class TestServingMatchesReference:
    def test_batch_with_recalibrations(self, serve_trace):
        s = TraceSession(serve_trace, threshold=0.05, calibration_cost=0.0)
        _serve_and_check(s, _mixed_plan(1, 60), MaintenanceController(threshold=0.05))
        assert s.stats.recalibrations > 0

    def test_streaming(self, serve_trace):
        s = TraceSession(
            serve_trace, threshold=0.05, calibration_cost=0.0, mode="streaming"
        )
        _serve_and_check(s, _mixed_plan(2, 40), MaintenanceController(threshold=0.05))
        assert s.stats.stream_updates > 0

    @pytest.mark.parametrize("mode", ["batch", "streaming"])
    def test_after_from_capsule_and_resume(self, serve_trace, tmp_path, mode):
        s = TraceSession(
            serve_trace, threshold=0.05, calibration_cost=0.0, mode=mode,
            persistence=PersistenceConfig(directory=tmp_path, checkpoint_every=7),
        )
        controller = MaintenanceController(threshold=0.05)
        _serve_and_check(s, _mixed_plan(3, 25), controller)
        s.close()
        at_capture = copy.deepcopy(controller)
        rest = _mixed_plan(4, 25)

        moved = TraceSession.from_capsule(serve_trace, s.capture_capsule())
        _serve_and_check(moved, rest, controller)
        resumed = TraceSession.resume(tmp_path, trace=serve_trace)
        _serve_and_check(resumed, rest, at_capture)
        resumed.close()
        assert moved.stats.recalibrations > s.stats.recalibrations
        assert moved.stats.history == resumed.stats.history

    def test_serving_leaves_capsule_keys_unchanged(self, serve_trace):
        s = TraceSession(serve_trace, threshold=0.05, calibration_cost=0.0)
        before = s.capture_capsule()
        _serve_and_check(s, _mixed_plan(5, 20), MaintenanceController(threshold=0.05))
        after = s.capture_capsule()
        assert sorted(after.arrays) == sorted(before.arrays)
        assert sorted(after.meta) == sorted(before.meta)

    def test_weight_matrix_returns_an_isolated_copy(self, serve_trace):
        s = TraceSession(serve_trace, threshold=1e9, calibration_cost=0.0)
        w = s.weight_matrix()
        ea, eb = weights_to_alphabeta(w, s.nbytes)
        tree = fnf_tree(w, 3)
        want = {
            op: collective_time(op, tree, ea, eb, s.nbytes)
            for op in ("broadcast", "scatter")
        }
        assert s.broadcast(root=3).expected == want["broadcast"]
        w *= 100.0
        s.weight_matrix()[:] = 1.0
        # A memoized entry and one built after the mutations both ignore them.
        assert s.broadcast(root=3).expected == want["broadcast"]
        assert s.scatter(root=3).expected == want["scatter"]


# The call sites bench/tracing.py wraps by name (``Tracer.install`` and
# ``Tracer.watch_session``). A hook the program stops calling where the
# tracer looks it up reads zero in the benchmark's per-layer metrics.
TRACED_SESSION_GLOBALS = (
    "fnf_tree",
    "collective_time",
    "weights_to_alphabeta",
    "greedy_mapping",
    "mapping_total_time",
    "bandwidth_from_weights",
    "capture_session_state",
)
TRACED_ENGINE_METHODS = (
    "snapshot_residual", "calibrate", "window", "solve", "stream_fold",
)


class TestTracerHooks:
    def test_every_traced_hook_fires(self, serve_trace, tmp_path, monkeypatch):
        calls = {}

        def count(owner, attr):
            original = getattr(owner, attr)
            name = f"{owner.__name__}.{attr}"
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        for attr in TRACED_SESSION_GLOBALS:
            count(session_module, attr)
        count(TraceSession, "weight_matrix")
        count(MaintenanceController, "observe")
        for attr in TRACED_ENGINE_METHODS:
            count(DecompositionEngine, attr)
        count(SnapshotJournal, "append_json")
        count(CheckpointStore, "save")

        def persisted(name):
            return PersistenceConfig(directory=tmp_path / name, checkpoint_every=1000)

        batch = TraceSession(
            serve_trace, threshold=0.05, calibration_cost=0.0,
            persistence=persisted("batch"),
        )
        stream = TraceSession(
            serve_trace, threshold=0.05, calibration_cost=0.0, mode="streaming",
            regime="drift", persistence=persisted("stream"),
        )
        count(type(stream.regime_detector), "observe")
        for session in (batch, stream):
            for i in range(6):
                session.broadcast(root=i % N_SERVE)
                session.run_collective("reduce", root=1, machines=[0, 3, 4, 8])
                session.map_tasks(random_task_graph(5, seed=i))
            session.communicator()  # a live view: builds on weight_matrix()
            session.checkpoint()
            session.close()
        assert batch.stats.recalibrations > 0
        assert stream.stats.stream_updates > 0
        assert [name for name, n in calls.items() if n == 0] == []


# Paper scale: 196 instances, a fold per operation, one trace wrap (the
# window slides over 360 snapshots per pass).
REPLAN_N = 196
REPLAN_OPS = 720


def _record_key(r):
    return (
        r.op, r.snapshot, r.root, r.elapsed.hex(), r.expected.hex(),
        r.decision, r.health, r.regime,
    )


@pytest.fixture(scope="module")
def replanned_pair():
    """The same streamed run served with certified tree reuse and by the
    oracle session that builds every tree with ``fnf_tree``."""
    trace = generate_trace(
        TraceConfig(
            n_machines=REPLAN_N, n_snapshots=370,
            dynamics=DynamicsConfig(hotspot_probability=0.0),
        ),
        seed=21,
    )
    roots = np.random.default_rng(3).integers(REPLAN_N, size=REPLAN_OPS).tolist()
    ops = ("broadcast", "scatter", "reduce", "gather")
    built = []

    def run(cls):
        s = cls(
            trace, threshold=1.0, mode="streaming", regime="drift",
            svd_backend="auto", calibration_cost=0.0,
        )
        for i, root in enumerate(roots):
            s.run_collective(ops[i % 4], root=root)
        return s

    original = session_module.fnf_tree

    def counting(weights, root=0):
        built.append(root)
        return original(weights, root)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session_module, "fnf_tree", counting)
        certified = run(TraceSession)
    return certified, run(FreshTreeSession), roots, built


class TestCertifiedTreeReuse:
    def test_records_and_pd_bit_identical_to_fresh_trees(self, replanned_pair):
        certified, fresh, _, _ = replanned_pair
        assert certified.stats.epochs >= 1  # crossed a trace wrap
        assert certified.stats.stream_updates >= REPLAN_OPS - 10
        assert certified.stats.recalibrations >= 1  # the wrap re-solved
        assert [_record_key(r) for r in certified.stats.history] == [
            _record_key(r) for r in fresh.stats.history
        ]
        assert np.array_equal(certified.weight_matrix(), fresh.weight_matrix())

    def test_kept_trees_are_fnf_trees_of_the_pd_in_service(self, replanned_pair):
        certified, _, roots, _ = replanned_pair
        plan = certified._serving_plan()
        for root in sorted(set(roots))[::7]:
            want = fnf_tree(plan.weights, root)
            got = plan.tree(root)
            assert np.array_equal(got.parent, want.parent)
            assert got.children == want.children

    def test_most_replans_reuse_a_certified_tree(self, replanned_pair):
        _, _, roots, built = replanned_pair
        distinct = len(set(roots))
        # Without reuse, P_D moves on every fold: one build per operation.
        # With it: one per root in use, plus a rebuild where a pick changed
        # or tied (136 of the 529 later lookups when this was written).
        assert len(set(built)) == distinct
        assert len(built) - distinct < (REPLAN_OPS - distinct) / 2


class TestLiveSnapshotValidation:
    """The session checks each live snapshot finite once, then prices it
    with ``check_finite=False``; the check is moved, not dropped."""

    K = 11  # window 10 over 13 snapshots: operations visit 10, 11, 12, 10, ...
    BAD = (2, 2)  # a diagonal entry: no tree edge or mapped pair reads it

    @pytest.fixture()
    def poisoned(self):
        base = generate_trace(TraceConfig(n_machines=8, n_snapshots=13), seed=42)
        alpha = base.alpha.copy()
        alpha[(self.K, *self.BAD)] = np.nan
        return CalibrationTrace(
            alpha=alpha, beta=base.beta, timestamps=base.timestamps
        )

    def _session(self, trace):
        return TraceSession(
            trace, time_step=10, calibration_cost=0.0, solver="row_constant",
            threshold=1e9,
        )

    @pytest.mark.parametrize("first", ["collective", "mapping"])
    def test_every_visit_raises(self, poisoned, first):
        s = self._session(poisoned)
        graph = random_task_graph(5, seed=3)
        on_k = [s.reduce, lambda: s.map_tasks(graph)]
        if first == "mapping":
            on_k.reverse()
        for epoch in range(4):  # first visit, then after each wrap
            assert s.broadcast(root=1).snapshot == 10
            with pytest.raises(ValidationError, match="alpha contains non-finite"):
                on_k[epoch % 2]()
            assert s.gather(root=0).snapshot == 12
        assert s.stats.epochs == 4
        assert s.stats.operations == 8

    def test_the_price_itself_would_not_notice(self, poisoned):
        s = self._session(poisoned)
        tree = fnf_tree(s.weight_matrix(), 4)
        a, b = poisoned.alpha[self.K], poisoned.beta[self.K]
        with pytest.raises(ValidationError, match="alpha contains non-finite"):
            collective_time("reduce", tree, a, b, MB)
        assert np.isfinite(collective_time("reduce", tree, a, b, MB, check_finite=False))
        graph = random_task_graph(5, seed=3)
        mapping = greedy_mapping(graph, bandwidth_from_weights(s.weight_matrix()))
        with pytest.raises(ValidationError, match="alpha contains non-finite"):
            mapping_total_time(graph, mapping, a, b)
        assert np.isfinite(mapping_total_time(graph, mapping, a, b, check_finite=False))

    def test_subcluster_operation_checks_its_own_block(self, poisoned):
        s = self._session(poisoned)
        s.broadcast()
        with pytest.raises(ValidationError, match="alpha contains non-finite"):
            s.run_collective("broadcast", machines=[0, 2, 5])
        # A block without the bad entry prices as before.
        s.broadcast()
        s.broadcast()
        assert s.run_collective("broadcast", machines=[0, 1, 5]).snapshot == self.K

    def test_a_clean_snapshot_is_checked_once(self, small_trace, monkeypatch):
        import repro.runtime.session as session_mod

        calls = []
        real = session_mod.as_square_matrix
        monkeypatch.setattr(
            session_mod, "as_square_matrix",
            lambda a, name: calls.append(name) or real(a, name),
        )
        s = self._session(small_trace)
        span = small_trace.n_snapshots - 10
        for i in range(3 * span):
            s.run_collective(("broadcast", "gather")[i % 2], root=i % 8)
        assert calls == ["alpha"] * span
