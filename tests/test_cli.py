"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.cloudsim.io import load_trace, save_trace
from repro.cloudsim.tracegen import TraceConfig, generate_trace


@pytest.fixture()
def trace_file(tmp_path):
    trace = generate_trace(TraceConfig(n_machines=6, n_snapshots=16), seed=4)
    path = tmp_path / "trace.npz"
    save_trace(trace, path)
    return str(path)


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        assert {"generate", "info", "decompose", "compare", "changepoints",
                "replay"} <= set(sub.choices)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        assert main(["generate", out, "--machines", "5", "--snapshots", "8",
                     "--seed", "3"]) == 0
        trace = load_trace(out)
        assert trace.n_machines == 5 and trace.n_snapshots == 8
        assert "wrote" in capsys.readouterr().out

    def test_generate_with_overrides(self, tmp_path):
        out = str(tmp_path / "t.npz")
        assert main(["generate", out, "--machines", "4", "--snapshots", "6",
                     "--volatility", "0.0", "--migration-rate", "0.0"]) == 0
        trace = load_trace(out)
        # Volatility disabled: consecutive snapshots share most values
        # (spikes/hotspots may still fire).
        same = trace.beta[0] == trace.beta[1]
        assert same.mean() > 0.5

    def test_info(self, trace_file, capsys):
        assert main(["info", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Norm(N_E)" in out and "verdict" in out

    def test_decompose(self, trace_file, capsys):
        assert main(["decompose", trace_file, "--solver", "row_constant"]) == 0
        out = capsys.readouterr().out
        assert "row_constant" in out and "Norm(N_E)" in out

    def test_decompose_svd_backend(self, trace_file, capsys):
        # No flag picks the kernel: the window's shape selects the Gram one.
        assert main(["decompose", trace_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "apg" in out and "Norm(N_E)" in out
        assert "kernel.svt.gram" in out and "kernel.svt.full_width" not in out

    def test_decompose_svd_backend_rejected_for_non_svt_solver(
        self, trace_file, capsys
    ):
        # The flag is retired on every command, SVT solver or not.
        for solver in ("pca", "apg"):
            with pytest.raises(SystemExit) as exc:
                main(["decompose", trace_file, "--solver", solver,
                      "--svd-backend", "auto"])
            assert exc.value.code == 2
            assert "--svd-backend" in capsys.readouterr().err

    def test_compare(self, trace_file, capsys):
        assert main(["compare", trace_file, "--repetitions", "8",
                     "--solver", "row_constant"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "RPCA" in out and "Heuristics" in out

    def test_compare_scatter_uses_blocks(self, trace_file, capsys):
        assert main(["compare", trace_file, "--op", "scatter",
                     "--repetitions", "4", "--solver", "row_constant"]) == 0
        assert "scatter" in capsys.readouterr().out

    def test_decompose_profile(self, trace_file, capsys):
        assert main(["decompose", trace_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "instrumentation report [decompose]" in out
        assert "iters" in out and "residual" in out and "ms" in out
        assert "cold" in out

    def test_compare_profile(self, trace_file, capsys):
        assert main(["compare", trace_file, "--repetitions", "4",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "instrumentation report [compare]" in out
        assert "harness.repetitions" in out
        assert "harness.fit.RPCA" in out

    def test_no_profile_no_report(self, trace_file, capsys):
        assert main(["decompose", trace_file]) == 0
        assert "instrumentation report" not in capsys.readouterr().out

    def test_changepoints_none(self, trace_file, capsys):
        assert main(["changepoints", trace_file, "--threshold", "0.9"]) == 0
        assert "no regime changes" in capsys.readouterr().out

    def test_replay(self, trace_file, capsys):
        assert main(["replay", trace_file, "--operations", "20",
                     "--threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "operations" in out and "recalibrations" in out
        assert "Norm(N_E)" in out and "verdict" in out
        assert "health" not in out  # fault-free replays skip the health block

    def test_replay_with_faults_reports_health(self, trace_file, capsys):
        assert main(["replay", trace_file, "--operations", "40",
                     "--threshold", "0.01",
                     "--faults", "probe_loss=0.1,vm_outage=2:12:3",
                     "--fault-seed", "11",
                     "--min-snapshot-observed", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "fault events" in out
        assert "final health" in out
        assert "health transitions" in out
        assert "degraded" in out or "holdover" in out

    def test_replay_with_fault_profile(self, trace_file, capsys):
        assert main(["replay", trace_file, "--operations", "10",
                     "--faults", "mild", "--fault-seed", "2"]) == 0
        assert "final health" in capsys.readouterr().out

    def test_replay_bad_fault_spec_rejected(self, trace_file, capsys):
        assert main(["replay", trace_file, "--faults", "bogus=1"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_fleet_healthy_run_exits_zero(self, capsys):
        assert main(["fleet", "--synthesize", "2", "--machines", "6",
                     "--snapshots", "12", "--operations", "8",
                     "--batch-size", "4", "--window", "6"]) == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "DEGRADED" not in out

    @pytest.fixture()
    def degraded_fleet_files(self, tmp_path):
        good = generate_trace(TraceConfig(n_machines=6, n_snapshots=16), seed=7)
        # Shorter than the calibration window: every session attempt raises.
        sick = generate_trace(TraceConfig(n_machines=6, n_snapshots=3), seed=8)
        good_path, sick_path = tmp_path / "good.npz", tmp_path / "sick.npz"
        save_trace(good, good_path)
        save_trace(sick, sick_path)
        return str(good_path), str(sick_path)

    def test_fleet_degraded_exits_nonzero_with_partial_report(
        self, degraded_fleet_files, capsys
    ):
        good_path, sick_path = degraded_fleet_files
        code = main(["fleet", good_path, sick_path,
                     "--operations", "8", "--batch-size", "4",
                     "--window", "6", "--n-workers", "2",
                     "--on-error", "degrade", "--max-task-retries", "0"])
        assert code == 3
        out = capsys.readouterr().out
        # Partial report still prints: the healthy cluster in full, the sick
        # one flagged, plus the health line and the degraded warning.
        assert "00-good" in out and "verdict" in out
        assert "01-sick" in out and "status=quarantined" in out
        assert "health:" in out
        assert "DEGRADED" in out and "01-sick" in out.split("DEGRADED")[1]

    def test_fleet_degraded_json_reports_health(
        self, degraded_fleet_files, capsys
    ):
        good_path, sick_path = degraded_fleet_files
        code = main(["fleet", good_path, sick_path,
                     "--operations", "8", "--batch-size", "4",
                     "--window", "6", "--n-workers", "2", "--json",
                     "--on-error", "degrade", "--max-task-retries", "0"])
        assert code == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["degraded"] is True
        assert summary["health"]["clusters_quarantined"] == 1
        statuses = {c["name"]: c["status"] for c in summary["clusters"]}
        assert statuses["01-sick"] == "quarantined"
        assert statuses["00-good"] == "ok"

    def test_regime_detector_named_choice(self, trace_file, capsys):
        assert main(["replay", trace_file, "--operations", "12",
                     "--threshold", "10.0", "--regime", "drift"]) == 0
        assert "regime detector:   drift" in capsys.readouterr().out

    def test_regime_params_threaded_through(self, trace_file, capsys):
        assert main(["replay", trace_file, "--operations", "12",
                     "--threshold", "10.0", "--regime", "noise-robust",
                     "--regime-params", "window=3,shift_score=5.0",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["regime_detector"] == "noise-robust"

    def test_bare_regime_flag_is_a_hard_error(self, trace_file, capsys):
        """The v1-era bare ``--regime`` alias for cusum is retired in v1.1."""
        assert main(["replay", trace_file, "--operations", "12",
                     "--threshold", "10.0", "--regime"]) == 1
        err = capsys.readouterr().err
        assert "--regime requires a detector name" in err
        for name in ("cusum", "drift", "noise-robust", "signature"):
            assert name in err

    def test_unknown_detector_lists_registry(self, trace_file, capsys):
        assert main(["replay", trace_file, "--regime", "kalman"]) == 1
        err = capsys.readouterr().err
        assert "registered detectors" in err and "cusum" in err

    def test_bad_regime_params_rejected(self, trace_file, capsys):
        assert main(["replay", trace_file, "--regime", "cusum",
                     "--regime-params", "decision=high"]) == 1
        assert "expected a number" in capsys.readouterr().err
        assert main(["replay", trace_file, "--regime", "cusum",
                     "--regime-params", "no_such_knob=1"]) == 1
        assert "cusum" in capsys.readouterr().err

    def test_regime_params_require_a_detector(self, trace_file, capsys):
        assert main(["replay", trace_file,
                     "--regime-params", "decision=6.0"]) == 1
        assert "regime" in capsys.readouterr().err

    def test_fleet_accepts_regime_flags(self, capsys):
        assert main(["fleet", "--synthesize", "2", "--machines", "6",
                     "--snapshots", "12", "--operations", "8",
                     "--batch-size", "4", "--window", "6", "--serial",
                     "--regime", "cusum",
                     "--regime-params", "warmup=4"]) == 0
        assert "health:" in capsys.readouterr().out

    def test_fleet_rejects_unknown_detector(self, capsys):
        assert main(["fleet", "--synthesize", "2", "--machines", "6",
                     "--snapshots", "12", "--operations", "8",
                     "--regime", "kalman"]) == 1
        assert "registered detectors" in capsys.readouterr().err

    def test_csv_trace_accepted(self, tmp_path, capsys):
        rows = ["snapshot,src,dst,alpha_s,beta_Bps"]
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    if i != j:
                        rows.append(f"{k},{i},{j},0.001,{1e8 * (1 + i + j)}")
        path = tmp_path / "measurements.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["info", str(path)]) == 0
        assert "verdict" in capsys.readouterr().out
        assert main(["decompose", str(path), "--solver", "row_constant"]) == 0
