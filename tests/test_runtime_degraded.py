"""Degraded-mode maintenance: health state machine and faulty replays."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloudsim.dynamics import DynamicsConfig, apply_step_regime
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.detectors import detector_names
from repro.core.maintenance import (
    DegradedModeController,
    HealthState,
    ResilienceConfig,
)
from repro.errors import CalibrationError
from repro.runtime import TraceSession

pytestmark = pytest.mark.faults

FAULTS = "probe_loss=0.1,vm_outage=3:12:3"


@pytest.fixture(scope="module")
def replay_trace():
    return generate_trace(TraceConfig(n_machines=16, n_snapshots=40), seed=3)


class TestDegradedModeController:
    def test_failure_path_reaches_holdover(self):
        ctl = DegradedModeController(ResilienceConfig(holdover_after=2))
        assert ctl.state is HealthState.HEALTHY
        ctl.record_failure("no probes")
        assert ctl.state is HealthState.DEGRADED
        ctl.record_failure("still no probes")
        assert ctl.state is HealthState.HOLDOVER
        ctl.record_success()
        assert ctl.state is HealthState.HEALTHY
        assert [
            (t.previous.value, t.state.value) for t in ctl.transitions
        ] == [
            ("healthy", "degraded"),
            ("degraded", "holdover"),
            ("holdover", "healthy"),
        ]

    def test_backoff_doubles_and_caps(self):
        cfg = ResilienceConfig(
            recal_backoff_operations=1, recal_backoff_factor=2.0,
            recal_backoff_max=4,
        )
        assert [cfg.backoff_operations(k) for k in range(6)] == [0, 1, 2, 4, 4, 4]

    def test_cooldown_paces_attempts(self):
        ctl = DegradedModeController(
            ResilienceConfig(recal_backoff_operations=2, recal_backoff_max=8)
        )
        ctl.record_failure("x")
        assert not ctl.should_attempt()
        ctl.tick()
        assert not ctl.should_attempt()
        ctl.tick()
        assert ctl.should_attempt()

    def test_staleness_accounting(self):
        ctl = DegradedModeController()
        for _ in range(5):
            ctl.tick()
        assert ctl.staleness == 5
        ctl.record_success()
        assert ctl.staleness == 0
        assert ctl.max_staleness == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"holdover_after": 0},
            {"recal_backoff_factor": 0.5},
            {"recal_backoff_operations": 4, "recal_backoff_max": 2},
            {"min_snapshot_observed": 1.5},
            {"max_probe_retries": -1},
            {"retry_backoff_seconds": -0.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(Exception):
            ResilienceConfig(**kwargs)


class TestFaultySession:
    def test_degrades_recovers_and_stays_close_to_fault_free(self, replay_trace):
        # The acceptance scenario: 10% probe loss plus one VM outage. The
        # session must pass through DEGRADED and HOLDOVER, recover, and cost
        # at most 10% more communication time than the fault-free run. It
        # may cost less: the fault-free P_D serving snapshot 29 (a solve of
        # its window at tol 1e-11 gives the same tree) puts an FNF edge on a
        # link that spikes 18x there, for 4.7 s instead of 1.2 s, on both
        # visits; the faulty run's P_D, from other windows, misses it.
        base = TraceSession(replay_trace, time_step=10, threshold=0.1)
        for _ in range(60):
            base.run_collective("broadcast", root=0)

        sess = TraceSession(
            replay_trace, time_step=10, threshold=0.1,
            faults=FAULTS, fault_seed=11,
        )
        seen = set()
        for _ in range(60):
            seen.add(sess.run_collective("broadcast", root=0).health)
        assert seen == {"healthy", "degraded", "holdover"}
        assert sess.health_state is HealthState.HEALTHY  # recovered
        assert sess.stats.failed_recalibrations > 0
        assert sess.stats.deferred_recalibrations > 0
        assert sess.stats.holdover_operations > 0
        rel = (
            sess.stats.communication_seconds - base.stats.communication_seconds
        ) / base.stats.communication_seconds
        assert rel < 0.10

    def test_pooled_cost_is_close_to_fault_free_both_ways(self):
        # The one-sided bound above compares two single runs on a spiky
        # trace, where which FNF tree a P_D picks around an 18x spike
        # decides the sign. Pooled over fault seeds on a spike-free trace,
        # the faulty runs must cost neither more nor less than 10% off the
        # fault-free run in the median.
        trace = generate_trace(
            TraceConfig(
                n_machines=16, n_snapshots=40,
                dynamics=DynamicsConfig(spike_probability=0.0, hotspot_probability=0.0),
            ),
            seed=3,
        )

        def cost(**faults):
            sess = TraceSession(trace, time_step=10, threshold=0.1, **faults)
            for _ in range(60):
                sess.run_collective("broadcast", root=0)
            return sess.stats.communication_seconds

        base = cost()
        rel = {
            seed: cost(faults=FAULTS, fault_seed=seed) / base - 1.0
            for seed in range(5, 17)
        }
        median = float(np.median(list(rel.values())))
        assert abs(median) <= 0.10, (
            f"median {median:+.1%}; per seed: "
            + ", ".join(f"{seed}: {r:+.1%}" for seed, r in rel.items())
        )

    def test_transitions_cite_the_failure(self, replay_trace):
        sess = TraceSession(
            replay_trace, time_step=10, threshold=0.1,
            faults=FAULTS, fault_seed=11,
        )
        for _ in range(60):
            sess.run_collective("broadcast", root=0)
        transitions = sess.health_transitions
        assert any(t.state is HealthState.DEGRADED for t in transitions)
        degraded = next(t for t in transitions if t.state is HealthState.DEGRADED)
        assert "observed" in degraded.reason

    def test_faulty_replay_is_seed_deterministic(self, replay_trace):
        def run():
            sess = TraceSession(
                replay_trace, time_step=10, threshold=0.1,
                faults=FAULTS, fault_seed=11,
            )
            for _ in range(30):
                sess.run_collective("broadcast", root=0)
            return sess.stats

        a, b = run(), run()
        assert a.communication_seconds == b.communication_seconds
        assert a.failed_recalibrations == b.failed_recalibrations
        assert [r.health for r in a.history] == [r.health for r in b.history]

    def test_operations_priced_on_ground_truth(self, replay_trace):
        # Faults hit what calibration observes, not the network itself: the
        # live elapsed time of an operation must match a fault-free session
        # at the same cursor whenever both use the same constant component.
        base = TraceSession(replay_trace, time_step=10)
        faulty = TraceSession(
            replay_trace, time_step=10, faults="straggler=0.0", fault_seed=1
        )
        rb = base.run_collective("broadcast", root=0)
        rf = faulty.run_collective("broadcast", root=0)
        assert rf.elapsed == rb.elapsed

    def test_initial_calibration_failure_propagates(self, replay_trace):
        # The session cannot boot without one good calibration window.
        with pytest.raises(CalibrationError):
            TraceSession(
                replay_trace, time_step=10,
                faults="vm_outage=3:0:10", fault_seed=1,
                resilience=ResilienceConfig(min_snapshot_observed=0.9),
            )

    def test_holdover_serves_last_good_component(self, replay_trace):
        sess = TraceSession(
            replay_trace, time_step=10, threshold=0.05,
            faults=FAULTS, fault_seed=11,
        )
        good_row = sess.decomposition.constant.row.copy()
        while sess.health_state is HealthState.HEALTHY:
            sess.run_collective("broadcast", root=0)
            if sess.stats.operations > 100:
                pytest.fail("session never degraded")
            if sess.health_state is HealthState.HEALTHY:
                good_row = sess.decomposition.constant.row.copy()
        # while degraded the constant component is the last good one
        assert np.array_equal(sess.decomposition.constant.row, good_row)
        assert sess.staleness >= 1


class TestRegimeDetectorIntegration:
    """Detector fires → forced cold re-calibration → health machinery reset.

    The same contract for every registered detector: a SHIFT verdict must
    bypass the parked maintenance loop, re-solve cold, clear the
    degraded-mode staleness clock, and leave the detector re-warming for
    the new regime.
    """

    @pytest.fixture(scope="class")
    def step_trace(self):
        base = generate_trace(
            TraceConfig(
                n_machines=6,
                n_snapshots=44,
                dynamics=DynamicsConfig(
                    volatility_sigma=0.02,
                    spike_probability=0.0,
                    hotspot_probability=0.0,
                    migration_rate=0.0,
                ),
            ),
            seed=5,
        )
        return apply_step_regime(base, start=26, factor=3.0)

    @pytest.mark.parametrize("detector", detector_names())
    def test_shift_forces_cold_recalibration_and_resets_health(
        self, step_trace, detector
    ):
        # threshold=10 parks Algorithm 1's own loop; the probe-loss faults
        # attach a DegradedModeController so the reset contract is live.
        sess = TraceSession(
            step_trace, time_step=8, threshold=10.0, regime=detector,
            faults="probe_loss=0.02", fault_seed=3,
        )
        assert isinstance(sess.health, DegradedModeController)
        for i in range(36):
            if sess.run_collective("broadcast", root=i % 6).regime == "shift":
                break
        else:
            pytest.fail(f"{detector} never classified the step as a shift")

        counters = sess.instrumentation.counters
        assert sess.stats.regime_shifts == 1
        assert sess.stats.recalibrations == 1  # the forced cold one
        assert counters["session.regime.cold_recalibration"] == 1
        assert counters["regime.forced_recalibrations"] == 1
        assert counters["regime.shift"] == 1
        assert counters.get("engine.solve.cold", 0) >= 2  # boot + forced
        # The cold path records a success with the health controller, so
        # the staleness clock restarts at the new component.
        assert sess.health_state is HealthState.HEALTHY
        assert sess.health.staleness == 0
        # And the detector re-warms: the residual level changed meaning.
        assert not sess.regime_detector.warmed_up


class TestBackwardCompatibility:
    def test_fault_free_session_has_no_resilience_machinery(self, replay_trace):
        sess = TraceSession(replay_trace, time_step=10)
        assert sess.health is None
        assert sess.health_state is HealthState.HEALTHY
        assert sess.health_transitions == []
        assert sess.staleness == 0
        assert sess.fault_events == ()
        rec = sess.run_collective("broadcast", root=0)
        assert rec.health == "healthy"
        assert sess.stats.failed_recalibrations == 0
        assert sess.stats.deferred_recalibrations == 0
        assert sess.stats.holdover_operations == 0

    def test_fault_free_results_unchanged_by_resilience_config(self, replay_trace):
        plain = TraceSession(replay_trace, time_step=10, threshold=0.1)
        resilient = TraceSession(
            replay_trace, time_step=10, threshold=0.1,
            resilience=ResilienceConfig(),
        )
        for _ in range(20):
            plain.run_collective("broadcast", root=0)
            resilient.run_collective("broadcast", root=0)
        assert (
            plain.stats.communication_seconds
            == resilient.stats.communication_seconds
        )
        assert plain.stats.recalibrations == resilient.stats.recalibrations
