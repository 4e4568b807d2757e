"""Direct unit tests for the fleet report objects.

The schedulers exercise these end-to-end; this module pins the report
layer itself — construction, aggregation properties, and that every
``summary()`` is plain-JSON serializable and round-trips losslessly.
"""

import json

import numpy as np
import pytest

from repro.fleet.report import (
    ClusterReport,
    FleetReport,
    FleetSweepReport,
    SweepClusterResult,
)


def _cluster_report(name, ops=12, batches=3):
    return ClusterReport(
        name=name,
        operations=ops,
        constant_row=np.full(16, 2.5),
        norm_ne=0.0123456789,
        verdict="stable",
        recalibrations=2,
        worker_batches=batches,
    )


def _sweep_result(name, *, iterations=140):
    return SweepClusterResult(
        name=name,
        constant_row=np.arange(9, dtype=np.float64),
        norm_ne=0.25,
        verdict="moderate",
        rank=np.int64(1),
        iterations=np.int64(iterations),
        converged=np.bool_(True),
        residual=3.2e-8,
    )


class TestClusterReport:
    def test_summary_contents(self):
        rep = _cluster_report("c0")
        s = rep.summary()
        assert s == {
            "name": "c0",
            "operations": 12,
            "norm_ne": 0.012346,  # rounded to 6 places
            "verdict": "stable",
            "recalibrations": 2,
            "worker_batches": 3,
            "status": "ok",
            "retries": 0,
            "regime_shifts": 0,
            "regime_spikes": 0,
            "stream_updates": 0,
            "stream_fallbacks": 0,
        }

    def test_quarantined_summary_is_json_safe(self):
        rep = ClusterReport(
            name="sick",
            operations=0,
            constant_row=np.empty(0),
            norm_ne=float("nan"),
            verdict="unavailable",
            recalibrations=0,
            worker_batches=0,
            status="quarantined",
            error="Traceback ...",
            retries=2,
        )
        assert not rep.ok
        s = rep.summary()
        decoded = json.loads(json.dumps(s))  # nan would not survive this
        assert decoded["norm_ne"] is None
        assert decoded["status"] == "quarantined"
        assert decoded["error"] == "Traceback ..."
        assert decoded["retries"] == 2

    def test_frozen(self):
        rep = _cluster_report("c0")
        with pytest.raises(AttributeError):
            rep.name = "other"


class TestFleetReport:
    def _report(self, elapsed=2.0):
        clusters = {f"c{i}": _cluster_report(f"c{i}", ops=10 + i) for i in range(3)}
        return FleetReport(
            clusters=clusters,
            n_workers=2,
            elapsed_s=elapsed,
            total_operations=33,
            total_batches=9,
            instrumentation={"counters": {"fleet.batches": 9}},
        )

    def test_throughput_aggregation(self):
        assert self._report().throughput_ops_s == pytest.approx(16.5)
        assert self._report(elapsed=0.0).throughput_ops_s == 0.0

    def test_constant_rows_alias_cluster_arrays(self):
        rep = self._report()
        rows = rep.constant_rows()
        assert set(rows) == {"c0", "c1", "c2"}
        assert rows["c1"] is rep.clusters["c1"].constant_row

    def test_summary_json_round_trip(self):
        s = self._report().summary()
        decoded = json.loads(json.dumps(s))
        assert decoded == s
        assert [c["name"] for c in decoded["clusters"]] == ["c0", "c1", "c2"]
        assert decoded["throughput_ops_s"] == 16.5

    def test_health_and_degraded(self):
        rep = self._report()
        assert not rep.degraded
        assert rep.statuses() == {"c0": "ok", "c1": "ok", "c2": "ok"}
        assert rep.health() == {
            "worker_restarts": 0,
            "task_retries": 0,
            "task_timeouts": 0,
            "clusters_quarantined": 0,
            "regime_shifts": 0,
            "regime_spikes": 0,
            "forced_recalibrations": 0,
            "stream_updates": 0,
            "stream_fallbacks": 0,
        }
        clusters = dict(rep.clusters)
        clusters["sick"] = ClusterReport(
            name="sick", operations=0, constant_row=np.empty(0),
            norm_ne=float("nan"), verdict="unavailable", recalibrations=0,
            worker_batches=0, status="quarantined", error="boom",
        )
        degraded = FleetReport(
            clusters=clusters, n_workers=2, elapsed_s=1.0,
            total_operations=33, total_batches=9,
            instrumentation={
                "counters": {
                    "fleet.worker.restarts": 1,
                    "fleet.task.retries": 3,
                    "fleet.cluster.quarantined": 1,
                }
            },
        )
        assert degraded.degraded
        assert degraded.statuses()["sick"] == "quarantined"
        health = degraded.health()
        assert health["worker_restarts"] == 1
        assert health["task_retries"] == 3
        assert health["clusters_quarantined"] == 1
        s = json.loads(json.dumps(degraded.summary()))
        assert s["degraded"] is True
        assert s["health"]["worker_restarts"] == 1


class TestSweepClusterResult:
    def test_summary_coerces_numpy_scalars(self):
        s = _sweep_result("west").summary()
        # numpy scalar fields must come back as plain JSON types.
        assert type(s["rank"]) is int and type(s["iterations"]) is int
        assert type(s["converged"]) is bool
        decoded = json.loads(json.dumps(s))
        assert decoded == {
            "name": "west",
            "norm_ne": 0.25,
            "verdict": "moderate",
            "rank": 1,
            "iterations": 140,
            "converged": True,
            "status": "ok",
        }


class TestFleetSweepReport:
    def _report(self, n=4, elapsed=2.0):
        clusters = {f"c{i}": _sweep_result(f"c{i}") for i in range(n)}
        return FleetSweepReport(
            clusters=clusters,
            n_workers=3,
            elapsed_s=elapsed,
            instrumentation={"counters": {"fleet.clusters": n}},
        )

    def test_throughput_is_windows_per_second(self):
        assert self._report().throughput_solves_s == pytest.approx(2.0)
        assert self._report(elapsed=0.0).throughput_solves_s == 0.0

    def test_constant_rows(self):
        rep = self._report(n=2)
        rows = rep.constant_rows()
        assert set(rows) == {"c0", "c1"}
        assert np.array_equal(rows["c0"], np.arange(9, dtype=np.float64))

    def test_summary_json_round_trip(self):
        rep = self._report()
        s = rep.summary()
        decoded = json.loads(json.dumps(s))
        assert decoded == s
        assert decoded["n_workers"] == 3
        assert [c["name"] for c in decoded["clusters"]] == ["c0", "c1", "c2", "c3"]

    def test_instrumentation_payload_preserved(self):
        rep = self._report()
        assert rep.instrumentation["counters"]["fleet.clusters"] == 4
        assert FleetSweepReport(
            clusters={}, n_workers=1, elapsed_s=0.0,
        ).instrumentation == {}
