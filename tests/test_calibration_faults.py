"""Resilient calibration: retries, masked measurements, completeness floors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration.calibrator import (
    Calibrator,
    CalibratorWindowSource,
    TraceSubstrate,
)
from repro.core.options import SolveOptions
from repro.errors import CalibrationError
from repro.faults import FaultySubstrate, ProbeLoss, VMOutage

pytestmark = pytest.mark.faults

MB = 1024 * 1024


def _faulty(trace, models, seed=0):
    return FaultySubstrate(TraceSubstrate(trace), models, seed=seed)


class TestMeasureSnapshot:
    def test_clean_substrate_matches_strict_path(self, tiny_trace):
        cal = Calibrator(TraceSubstrate(tiny_trace), resilient=True)
        strict_a, strict_b = cal.calibrate_snapshot(0)
        m = cal.measure_snapshot(0)
        assert m.complete and m.retry_waves == 0 and m.backoff_seconds == 0.0
        assert np.array_equal(m.alpha, strict_a)
        assert np.array_equal(m.beta, strict_b)

    def test_losses_become_masked_entries(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [ProbeLoss(0.3)]),
            resilient=True, max_retries=0,
        )
        m = cal.measure_snapshot(0)
        assert not m.complete
        assert m.observed_fraction < 1.0
        # placeholders are benign: zero weight under the alpha-beta model
        assert np.all(m.alpha[~m.mask] == 0.0)
        assert np.all(np.isinf(m.beta[~m.mask]))

    def test_retries_recover_transient_losses(self, small_trace):
        no_retry = Calibrator(
            _faulty(small_trace, [ProbeLoss(0.3)], seed=1),
            resilient=True, max_retries=0,
        )
        with_retry = Calibrator(
            _faulty(small_trace, [ProbeLoss(0.3)], seed=1),
            resilient=True, max_retries=4,
        )
        f0 = no_retry.measure_snapshot(0).observed_fraction
        f4 = with_retry.measure_snapshot(0).observed_fraction
        assert f4 > f0

    def test_retries_cannot_recover_outage(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [VMOutage(machine=1, start=0, duration=1)]),
            resilient=True, max_retries=5,
        )
        m = cal.measure_snapshot(0)
        assert not m.mask[1, 2] and not m.mask[2, 1]

    def test_backoff_grows_exponentially(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [VMOutage(machine=1, start=0, duration=1)]),
            resilient=True, max_retries=3, retry_backoff=0.5,
        )
        m = cal.measure_snapshot(0)
        assert m.retry_waves == 3
        assert m.backoff_seconds == pytest.approx(0.5 + 1.0 + 2.0)
        assert cal.retry_seconds == pytest.approx(m.backoff_seconds)

    def test_min_observed_rejects_dark_snapshot(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [VMOutage(machine=1, start=0, duration=1)]),
            resilient=True, max_retries=1, min_observed=0.9,
        )
        with pytest.raises(CalibrationError, match="only"):
            cal.measure_snapshot(0)
        assert cal.measure_snapshot(1).complete  # outage over

    def test_cache_pins_the_measurement(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [ProbeLoss(0.3)]),
            resilient=True, max_retries=0, cache_snapshots=True,
        )
        a = cal.measure_snapshot(0)
        b = cal.measure_snapshot(0)
        assert a is b

    def test_strict_path_still_raises_on_nan(self, small_trace):
        cal = Calibrator(_faulty(small_trace, [ProbeLoss(0.5)]))
        with pytest.raises(CalibrationError, match="invalid measurement"):
            cal.calibrate_snapshot(0)


class TestResilientWindowSource:
    def test_row_and_mask_come_from_one_measurement(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [ProbeLoss(0.3)]),
            resilient=True, max_retries=0,
        )
        src = CalibratorWindowSource(cal)
        row = src.snapshot_row(0, 8 * MB)
        mask = src.snapshot_mask(0)
        assert mask is not None
        # unobserved entries carry the zero-weight placeholder of the same draw
        assert np.all(row[~mask] == 0.0)

    def test_non_resilient_source_reports_no_mask(self, tiny_trace):
        cal = Calibrator(TraceSubstrate(tiny_trace))
        src = CalibratorWindowSource(cal)
        assert src.snapshot_mask(0) is None

    def test_engine_over_faulty_calibrator_solves_masked_windows(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [ProbeLoss(0.15)], seed=2),
            resilient=True, max_retries=1, min_observed=0.5,
        )
        eng = cal.engine(nbytes=8 * MB, time_step=8, options=SolveOptions(solver="ialm"))
        dec = eng.calibrate(8)
        assert dec.solver_converged
        assert eng.instrumentation.counters.get("engine.solve.masked", 0) >= 1

    def test_engine_threshold_raises_through_calibrator(self, small_trace):
        cal = Calibrator(
            _faulty(small_trace, [VMOutage(machine=0, start=2, duration=2)], seed=2),
            resilient=True, max_retries=1,
        )
        eng = cal.engine(
            nbytes=8 * MB, time_step=8, min_snapshot_observed=0.9
        )
        with pytest.raises(CalibrationError):
            eng.calibrate(8)


class TestValidation:
    def test_bad_parameters_rejected(self, tiny_trace):
        sub = TraceSubstrate(tiny_trace)
        with pytest.raises(CalibrationError):
            Calibrator(sub, max_retries=-1)
        with pytest.raises(Exception):
            Calibrator(sub, min_observed=1.5)
        with pytest.raises(Exception):
            Calibrator(sub, retry_backoff=-1.0)
