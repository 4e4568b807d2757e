"""The solve knobs live in one value, :class:`~repro.core.options.SolveOptions`.

Pins the rules it checks, that every config and entry point rejects a bad
combination at construction (before a fleet starts a worker), that the
knobs reach the session, the engine and checkpoints through it alone, and
that its checkpoint form reads every release's ``config`` block.
"""

from __future__ import annotations

import dataclasses
import inspect
import warnings

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

#: A streaming configuration with every knob but the solver off its default.
STREAMING = dict(
    solver="ialm",
    mode="streaming",
    stream_tolerance=0.3,
    stream_refresh_every=5,
)

# Ids are pinned, not positional, so each case keeps its established test
# name when rows are added or retired.
BAD_COMBINATIONS = [
    pytest.param(dict(solver="nope"), "unknown RPCA solver 'nope'",
                 id="kwargs0-unknown RPCA solver 'nope'"),
    pytest.param(dict(mode="online"), "unknown engine mode",
                 id="kwargs4-unknown engine mode"),
    pytest.param(dict(stream_tolerance=0.3), "require mode='streaming'",
                 id="kwargs5-require mode='streaming'"),
    pytest.param(dict(stream_refresh_every=4), "require mode='streaming'",
                 id="kwargs6-require mode='streaming'"),
    pytest.param(dict(mode="streaming", stream_tolerance=0.0),
                 "tolerance must be > 0", id="kwargs7-tolerance must be > 0"),
    pytest.param(dict(mode="streaming", stream_refresh_every=0),
                 "refresh_every must be >= 1", id="kwargs8-refresh_every must be >= 1"),
]


class TestRules:
    def test_defaults_are_the_historical_path(self):
        opts = SolveOptions()
        assert (opts.solver, opts.mode) == ("ialm", "batch")
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
        ],
    )
    def test_solve_config_checks_solver_and_backend(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            repro.SolveConfig(**kwargs)

    def test_exact_backend_works_for_every_solver(self, small_trace):
        # Every solver decomposes with its defaults; the SVT solvers also
        # take ``svd_backend="exact"``, which forces the full-SVD kernel.
        tp = small_trace.tp_matrix(8 << 20, count=10)
        for solver in repro.available_solvers():
            forced = {"svd_backend": "exact"} if solver == "ialm" else {}
            dec = repro.decompose(tp, solver=solver, **forced)
            assert dec.solver == solver

    def test_streaming_knobs_resolve_through_streaming_config(self):
        opts = SolveOptions(mode="streaming", stream_refresh_every=4)
        assert opts.stream_config.refresh_every == 4
        assert opts.stream_config.tolerance == repro.StreamingConfig().tolerance

    def test_engine_rejects_a_knob_passed_beside_options(self, small_trace):
        with pytest.raises(TypeError, match="options=SolveOptions"):
            DecompositionEngine(small_trace, nbytes=8 << 20, mode="streaming")


class TestOnePlace:
    def test_every_option_is_a_config_field_and_a_session_keyword(self):
        session_params = inspect.signature(TraceSession).parameters
        for cls in (SessionConfig, FleetConfig):
            fields = [f.name for f in dataclasses.fields(cls)]
            assert fields[: len(OPTION_FIELDS)] == OPTION_FIELDS
        for name in OPTION_FIELDS:
            assert session_params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert session_params[name].default == getattr(SolveOptions(), name)

    def test_solver_and_backend_stay_flat_keywords(self):
        # The benchmark picks its configuration by reading these signatures
        # (bench/workloads.py, fastest_config): the solver stays a flat
        # keyword, and no entry point takes an SVD backend any more, so the
        # one solver loop with its shape-chosen kernel is what runs.
        for target in (repro.decompose, TraceSession, FleetConfig):
            params = inspect.signature(target).parameters
            assert "solver" in params and "svd_backend" not in params
        assert "mode" in inspect.signature(TraceSession).parameters
        assert len(OPTION_FIELDS) == 4

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
        opts = SolveOptions(solver="pca")
        assert SolveOptions.from_meta(opts.to_meta()) == opts

    def test_streaming_defaults_are_recorded_resolved(self):
        meta = SolveOptions(mode="streaming").to_meta()
        assert meta["stream_tolerance"] == repro.StreamingConfig().tolerance
        assert meta["stream_refresh_every"] == repro.StreamingConfig().refresh_every

    def test_captured_config_blocks_are_unchanged(self, small_trace):
        # Literal blocks written by the release before SolveOptions existed,
        # less the retired ``svd_backend`` and ``warm_start`` keys and with
        # the default solver now IALM.
        common = {
            "nbytes": 8388608.0, "time_step": 6, "threshold": 1.0,
            "consecutive": 1, "calibration_cost": 0.5, "faults_spec": None,
            "fault_seed": None, "resilience": None,
        }
        batch = TraceSession(small_trace, time_step=6, calibration_cost=0.5)
        assert capture_session_state(batch)[1]["config"] == dict(
            common, solver="ialm", mode="batch",
            stream_tolerance=None, stream_refresh_every=None,
            regime=None,
        )
        streaming = TraceSession(
            small_trace, time_step=6, calibration_cost=0.5, mode="streaming",
            stream_tolerance=0.3, regime="drift",
        )
        assert capture_session_state(streaming)[1]["config"] == dict(
            common, solver="ialm", mode="streaming",
            stream_tolerance=0.3, stream_refresh_every=16,
            regime={
                "name": "drift",
                "params": {"window": 4, "decision": 2.0, "warmup": 6,
                           "spike_z": 4.0, "min_rel_sigma": 0.1},
            },
        )

    @pytest.mark.parametrize(
        "legacy,expected",
        [
            # Before the kernel layer: no backend key. A recorded
            # ``warm_start`` is ignored: every solve is cold now.
            ({"solver": "ialm", "warm_start": True}, SolveOptions()),
            # Before streaming: no mode or stream keys.
            (
                {"solver": "ialm", "warm_start": False, "svd_backend": "gram"},
                SolveOptions(solver="ialm"),
            ),
            # Selectable elementwise kernels: the key is ignored.
            (
                {"solver": "ialm", "warm_start": True, "svd_backend": "auto",
                 "elementwise_backend": "jit", "mode": "batch",
                 "stream_tolerance": None, "stream_refresh_every": None},
                SolveOptions(),
            ),
        ],
        ids=["no-backend", "no-mode", "elementwise"],
    )
    def test_legacy_blocks_resolve(self, legacy, expected):
        # "auto" and "gram" sessions ran today's loop: they resume silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SolveOptions.from_meta(legacy) == expected

    def test_apg_block_resumes_on_ialm_with_one_warning(self):
        legacy = {"solver": "apg", "warm_start": True, "svd_backend": "auto",
                  "mode": "batch", "stream_tolerance": None,
                  "stream_refresh_every": None}
        with pytest.warns(RuntimeWarning, match="'apg' has been retired") as record:
            opts = SolveOptions.from_meta(legacy)
        assert len(record) == 1
        assert opts == SolveOptions()
        assert opts.to_meta()["solver"] == "ialm"

    @pytest.mark.parametrize(
        "cls", [SolveOptions, SessionConfig, FleetConfig, repro.SolveConfig]
    )
    def test_apg_name_resolves_to_ialm_on_every_config(self, cls):
        with pytest.warns(RuntimeWarning, match="retired") as record:
            cfg = cls(solver="apg")
        assert len(record) == 1
        assert cfg.solver == "ialm"

    def test_randomized_backend_resumes_as_auto_with_warning(self):
        with pytest.warns(RuntimeWarning, match="randomized.*'auto'"):
            opts = SolveOptions.from_meta(
                {"solver": "ialm", "warm_start": True, "svd_backend": "randomized"}
            )
        assert opts == SolveOptions()

    def test_exact_backend_resumes_with_warning(self):
        # "exact" was the default, so most checkpoints written before the
        # one-loop solvers record it; they ran the plain loop.
        with pytest.warns(RuntimeWarning, match="'exact'.*'auto'"):
            opts = SolveOptions.from_meta(
                {"solver": "ialm", "warm_start": False, "svd_backend": "exact"}
            )
        assert opts == SolveOptions(solver="ialm")


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
            (["--stream-tolerance", "0.3"], []),
            (["--solver", "nope"], ["--on-error", "degrade"]),
        ],
        ids=["stream-knob-in-batch", "unknown-solver"],
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
