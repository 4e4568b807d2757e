"""Tests of the benchmark itself (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import workloads
from repro.persistence import PersistenceConfig, journal_path
from repro.runtime.session import TraceSession

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def toy(monkeypatch):
    """Shrink every workload to a few machines and one set-up."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "PAPER_N", 16)
    monkeypatch.setattr(workloads, "RECAL_SNAPSHOTS", 20)
    monkeypatch.setattr(workloads, "WEEK_SNAPSHOTS", 30)
    monkeypatch.setattr(workloads, "FLEET_N", 8)
    monkeypatch.setattr(workloads, "FLEET_CLUSTERS", 3)
    monkeypatch.setattr(workloads, "FLEET_SNAPSHOTS", 16)
    monkeypatch.setattr(workloads, "FLEET_OPERATIONS", 2)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_toy_size(toy, name, trace):
    outcome, metrics, _ = run.measure(name, seed=3, seconds=0.2, trace=trace)
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in section}
    assert all(np.isfinite(v["value"]) for v in metrics.values())
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())


def test_inputs_depend_only_on_seed(toy):
    a = workloads.make_trace(8, 12, 5)
    b = workloads.make_trace(8, 12, 5)
    c = workloads.make_trace(8, 12, 6)
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)


def test_close_check_fails_on_perturbed_pd():
    row = np.linspace(1.0, 2.0, 50)
    assert workloads.check_close(row, row.copy(), workloads.RECAL_RTOL, "t") == []
    assert workloads.check_close(row * 1.2, row, workloads.RECAL_RTOL, "t")


def test_stream_check_fails_on_perturbed_pd():
    row = np.linspace(1.0, 2.0, 50)
    assert workloads.check_stream_drift(row * 1.01, row, 0.25) == []
    assert workloads.check_stream_drift(row * 1.5, row, 0.25)


def test_bitwise_check_fails_on_one_ulp():
    row = np.linspace(1.0, 2.0, 50)
    assert workloads.check_bitwise("c", row, row.copy(), "P_D") == []
    assert workloads.check_bitwise("c", np.nextafter(row, 3.0), row, "P_D")


@pytest.fixture
def durable_dir(tmp_path):
    """A closed persistent session 12 operations in, checkpointed every 5."""
    trace = workloads.make_trace(8, 30, 11)
    directory = tmp_path / "session"
    session = TraceSession(
        trace, threshold=0.1,
        persistence=PersistenceConfig(directory=str(directory), checkpoint_every=5),
    )
    for i in range(12):
        session.broadcast(root=i % 8)
    session.close()
    return directory, trace, session.stats.operations, session.decomposition.constant.row


def test_resume_check_passes_on_intact_directory(durable_dir):
    directory, trace, ops, row = durable_dir
    assert workloads.check_resume(str(directory), trace, ops, row) == []


def test_resume_check_fails_without_journal_tail(durable_dir):
    directory, trace, ops, row = durable_dir
    os.remove(journal_path(str(directory)))
    assert workloads.check_resume(str(directory), trace, ops, row)


def test_resume_check_fails_on_corrupted_checkpoints(durable_dir):
    directory, trace, ops, row = durable_dir
    for path in directory.glob("*.ckpt"):
        path.write_bytes(b"\0" * 64)
    assert workloads.check_resume(str(directory), trace, ops, row)


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(a, [v * 1.02 for v in a], "lower", 0.1) == "within bound"
    assert compare.verdict(a, [v * 1.2 for v in a], "lower", 0.1) == "worse"
    assert compare.verdict(a, [v * 1.2 for v in a], "higher", 0.1) == "within bound"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [1.0] * 5, "lower", 0.1) == "within bound"


def test_run_exits_nonzero_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in Path(run.BENCH_DIR).glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
