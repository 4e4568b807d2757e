"""The solve knobs live in one value, :class:`~repro.core.options.SolveOptions`.

Pins the rules it checks, that every config and entry point rejects a bad
combination at construction (before a fleet starts a worker), that the
knobs reach the session, the engine and checkpoints through it alone, and
that its checkpoint form reads every release's ``config`` block.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro
from repro import cli
from repro.cloudsim.io import save_trace
from repro.core.engine import DecompositionEngine
from repro.core.options import SolveOptions
from repro.errors import ValidationError
from repro.fleet import FleetConfig, FleetScheduler
from repro.persistence import CheckpointStore, PersistenceConfig
from repro.persistence.state import capture_session_state
from repro.runtime import SessionCapsule, SessionConfig, TraceSession

OPTION_FIELDS = [f.name for f in dataclasses.fields(SolveOptions)]

#: A streaming configuration with every knob off its default.
STREAMING = dict(
    solver="ialm",
    svd_backend="auto",
    warm_start=False,
    mode="streaming",
    stream_tolerance=0.3,
    stream_refresh_every=5,
)

BAD_COMBINATIONS = [
    (dict(solver="nope"), "unknown RPCA solver 'nope'"),
    (dict(solver="pca", svd_backend="auto"), "does not take an SVD backend"),
    (dict(solver="row_constant", svd_backend="gram"), "does not take an SVD backend"),
    (dict(svd_backend="randomized"), "unknown SVD backend"),
    (dict(mode="online"), "unknown engine mode"),
    (dict(stream_tolerance=0.3), "require mode='streaming'"),
    (dict(stream_refresh_every=4), "require mode='streaming'"),
    (dict(mode="streaming", stream_tolerance=0.0), "tolerance must be > 0"),
    (dict(mode="streaming", stream_refresh_every=0), "refresh_every must be >= 1"),
]


class TestRules:
    def test_defaults_are_the_historical_path(self):
        opts = SolveOptions()
        assert (opts.solver, opts.svd_backend, opts.warm_start, opts.mode) == (
            "apg", "exact", True, "batch"
        )
        assert opts.solver_kwargs() == {}
        assert opts.stream_config == repro.StreamingConfig()

    @pytest.mark.parametrize("kwargs,message", BAD_COMBINATIONS)
    def test_bad_combination_raises_at_construction(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            SolveOptions(**kwargs)

    @pytest.mark.parametrize("cls", [SessionConfig, FleetConfig])
    @pytest.mark.parametrize("kwargs,message", BAD_COMBINATIONS)
    def test_session_and_fleet_configs_apply_the_same_rules(
        self, cls, kwargs, message
    ):
        with pytest.raises(ValidationError, match=message):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(solver="nope"), "unknown RPCA solver"),
            (dict(solver="pca", svd_backend="auto"), "does not take an SVD backend"),
        ],
    )
    def test_solve_config_checks_solver_and_backend(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            repro.SolveConfig(**kwargs)

    def test_exact_backend_works_for_every_solver(self, small_trace):
        tp = small_trace.tp_matrix(8 << 20, count=10)
        for solver in repro.available_solvers():
            dec = repro.decompose(tp, solver=solver, svd_backend="exact")
            assert dec.solver == solver

    def test_streaming_knobs_resolve_through_streaming_config(self):
        opts = SolveOptions(mode="streaming", stream_refresh_every=4)
        assert opts.stream_config.refresh_every == 4
        assert opts.stream_config.tolerance == repro.StreamingConfig().tolerance

    def test_engine_rejects_a_knob_passed_beside_options(self, small_trace):
        with pytest.raises(TypeError, match="options=SolveOptions"):
            DecompositionEngine(small_trace, nbytes=8 << 20, svd_backend="auto")


class TestOnePlace:
    def test_every_option_is_a_config_field_and_a_session_keyword(self):
        session_params = inspect.signature(TraceSession).parameters
        for cls in (SessionConfig, FleetConfig):
            assert [f.name for f in dataclasses.fields(cls)][:6] == OPTION_FIELDS
        for name in OPTION_FIELDS:
            assert session_params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert session_params[name].default == getattr(SolveOptions(), name)

    def test_solver_and_backend_stay_flat_keywords(self):
        # The benchmark picks its configuration by reading these signatures
        # (bench/workloads.py, fastest_config): a knob it cannot see there
        # silently falls back to the default exact path.
        for target in (repro.decompose, TraceSession, FleetConfig):
            params = inspect.signature(target).parameters
            assert "solver" in params and "svd_backend" in params
        assert "mode" in inspect.signature(TraceSession).parameters

    def test_session_config_maps_onto_the_session(self, small_trace):
        cfg = SessionConfig(
            window=6, threshold=0.5, regime_detector="drift", **STREAMING
        )
        session = TraceSession(small_trace, **cfg.session_kwargs())
        assert session.options == SolveOptions(**STREAMING)
        assert session.time_step == 6
        assert session.controller.threshold == 0.5
        assert session.regime_detector.name == "drift"

    def test_fleet_config_is_a_session_config(self):
        cfg = FleetConfig(n_workers=1, window=6, **STREAMING)
        assert isinstance(cfg, SessionConfig) and isinstance(cfg, SolveOptions)
        session_cfg = SessionConfig(window=6, **STREAMING)
        assert cfg.session_kwargs() == session_cfg.session_kwargs()


class TestMeta:
    def test_to_meta_round_trips_every_field(self):
        opts = SolveOptions(**STREAMING)
        meta = opts.to_meta()
        assert sorted(meta) == sorted(OPTION_FIELDS)
        assert SolveOptions.from_meta(meta) == opts

    def test_batch_meta_round_trips(self):
        opts = SolveOptions(solver="pca", warm_start=False)
        assert SolveOptions.from_meta(opts.to_meta()) == opts

    def test_streaming_defaults_are_recorded_resolved(self):
        meta = SolveOptions(mode="streaming").to_meta()
        assert meta["stream_tolerance"] == repro.StreamingConfig().tolerance
        assert meta["stream_refresh_every"] == repro.StreamingConfig().refresh_every

    def test_captured_config_blocks_are_unchanged(self, small_trace):
        # Literal blocks written by the release before SolveOptions existed.
        common = {
            "nbytes": 8388608.0, "time_step": 6, "threshold": 1.0,
            "consecutive": 1, "calibration_cost": 0.5, "faults_spec": None,
            "fault_seed": None, "resilience": None,
        }
        batch = TraceSession(small_trace, time_step=6, calibration_cost=0.5)
        assert capture_session_state(batch)[1]["config"] == dict(
            common, solver="apg", warm_start=True, svd_backend="exact",
            mode="batch", stream_tolerance=None, stream_refresh_every=None,
            regime=None,
        )
        streaming = TraceSession(
            small_trace, time_step=6, calibration_cost=0.5, mode="streaming",
            svd_backend="auto", warm_start=False, stream_tolerance=0.3,
            regime="drift",
        )
        assert capture_session_state(streaming)[1]["config"] == dict(
            common, solver="apg", warm_start=False, svd_backend="auto",
            mode="streaming", stream_tolerance=0.3, stream_refresh_every=16,
            regime={
                "name": "drift",
                "params": {"window": 4, "decision": 2.0, "warmup": 6,
                           "spike_z": 4.0, "min_rel_sigma": 0.1},
            },
        )

    @pytest.mark.parametrize(
        "legacy,expected",
        [
            # Before the kernel layer: no backend key.
            ({"solver": "apg", "warm_start": True}, SolveOptions()),
            # Before streaming: no mode or stream keys.
            (
                {"solver": "ialm", "warm_start": False, "svd_backend": "gram"},
                SolveOptions(solver="ialm", warm_start=False, svd_backend="gram"),
            ),
            # Selectable elementwise kernels: the key is ignored.
            (
                {"solver": "apg", "warm_start": True, "svd_backend": "auto",
                 "elementwise_backend": "jit", "mode": "batch",
                 "stream_tolerance": None, "stream_refresh_every": None},
                SolveOptions(svd_backend="auto"),
            ),
        ],
        ids=["no-backend", "no-mode", "elementwise"],
    )
    def test_legacy_blocks_resolve(self, legacy, expected):
        assert SolveOptions.from_meta(legacy) == expected

    def test_randomized_backend_resumes_as_auto_with_warning(self):
        with pytest.warns(RuntimeWarning, match="randomized.*'auto'"):
            opts = SolveOptions.from_meta(
                {"solver": "apg", "warm_start": True, "svd_backend": "randomized"}
            )
        assert opts.svd_backend == "auto"


class TestRoundTrips:
    def test_checkpoint_resumes_a_streaming_configuration(
        self, small_trace, tmp_path
    ):
        persistence = PersistenceConfig(directory=str(tmp_path / "s"))
        session = TraceSession(
            small_trace, time_step=8, persistence=persistence, **STREAMING
        )
        for _ in range(5):
            session.broadcast(root=0)
        session.close()
        resumed = TraceSession.resume(persistence.directory, trace=small_trace)
        assert resumed.options == SolveOptions(**STREAMING)
        assert resumed.stats.operations == 5
        resumed.close()

    def test_fleet_capsule_keeps_a_streaming_configuration(
        self, small_trace, tmp_path
    ):
        root = tmp_path / "fleet"
        cfg = FleetConfig(
            n_workers=1, window=8, operations=6, batch_size=3,
            checkpoint_root=str(root), **STREAMING,
        )
        FleetScheduler([repro.ClusterSpec("a", small_trace)], cfg).run()
        ckpt = CheckpointStore(str(root / "a")).load_latest()
        capsule = SessionCapsule(arrays=ckpt.arrays, meta=ckpt.meta)
        resumed = TraceSession.from_capsule(small_trace, capsule)
        assert resumed.options == SolveOptions(**STREAMING)
        manifest = (root / "fleet.json").read_text(encoding="utf-8")
        assert '"stream_refresh_every": 5' in manifest


class TestFleetCli:
    @pytest.mark.parametrize(
        "flags,fleet_only",
        [
            (["--solver", "pca", "--svd-backend", "auto"], []),
            (["--solver", "nope"], ["--on-error", "degrade"]),
        ],
        ids=["pca-auto", "unknown-solver"],
    )
    def test_invalid_solve_flags_fail_before_any_worker(
        self, flags, fleet_only, small_trace, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "t.npz"
        save_trace(small_trace, str(path))
        assert cli.main(["replay", str(path), "--operations", "2", *flags]) == 1
        replay_error = capsys.readouterr().err

        def no_scheduler(*args, **kwargs):
            raise AssertionError("the fleet started despite an invalid config")

        monkeypatch.setattr(repro.fleet, "FleetScheduler", no_scheduler)
        assert cli.main(["fleet", "--synthesize", "2", *flags, *fleet_only]) == 1
        fleet_error = capsys.readouterr().err
        assert fleet_error == replay_error
        assert fleet_error.startswith("error: ")
        assert "attempt" not in fleet_error
