"""Unit tests for trace persistence and CSV import."""

import numpy as np
import pytest

from repro.cloudsim.io import (
    TRACE_FORMAT_VERSION,
    load_trace,
    load_trace_csv,
    save_trace,
)
from repro.errors import ValidationError


class TestRoundtrip:
    def test_save_load_identity(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(tiny_trace, path)
        back = load_trace(path)
        np.testing.assert_array_equal(back.alpha, tiny_trace.alpha)
        np.testing.assert_array_equal(back.beta, tiny_trace.beta)
        np.testing.assert_array_equal(back.timestamps, tiny_trace.timestamps)

    def test_loaded_trace_usable(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(tiny_trace, path)
        back = load_trace(path)
        tp = back.tp_matrix(8 << 20)
        assert tp.n_machines == tiny_trace.n_machines

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, alpha=np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError, match="missing"):
            load_trace(path)

    def test_wrong_version_rejected(self, tiny_trace, tmp_path):
        path = tmp_path / "v99.npz"
        np.savez(
            path,
            format_version=np.int64(99),
            alpha=tiny_trace.alpha,
            beta=tiny_trace.beta,
            timestamps=tiny_trace.timestamps,
        )
        with pytest.raises(ValidationError, match="version"):
            load_trace(path)

    def test_format_version_constant(self):
        assert TRACE_FORMAT_VERSION == 1


def write_csv(path, rows, header="snapshot,src,dst,alpha_s,beta_Bps"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def full_csv_rows(t=2, n=3, beta=1e8):
    rows = []
    for k in range(t):
        for i in range(n):
            for j in range(n):
                if i != j:
                    rows.append(f"{k},{i},{j},0.001,{beta * (1 + i + j + k)}")
    return rows


class TestCsvImport:
    def test_complete_log_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", full_csv_rows())
        trace = load_trace_csv(path)
        assert trace.n_machines == 3 and trace.n_snapshots == 2
        assert trace.beta[0, 0, 1] == pytest.approx(2e8)
        assert trace.beta[1, 2, 1] == pytest.approx(4e8 + 1e8)
        assert np.all(np.isinf(np.diagonal(trace.beta, axis1=1, axis2=2)))

    def test_pipeline_runs_on_imported_trace(self, tmp_path):
        from repro.core.decompose import decompose

        path = write_csv(tmp_path / "m.csv", full_csv_rows(t=5, n=4))
        trace = load_trace_csv(path)
        dec = decompose(trace.tp_matrix(8 << 20), solver="row_constant")
        assert 0.0 <= dec.norm_ne < 1.0

    def test_timestamp_column_used(self, tmp_path):
        rows = []
        for k, ts in ((0, 100.0), (1, 400.0)):
            for i in range(2):
                for j in range(2):
                    if i != j:
                        rows.append(f"{k},{i},{j},0.001,1e8,{ts}")
        path = write_csv(
            tmp_path / "m.csv", rows,
            header="snapshot,src,dst,alpha_s,beta_Bps,timestamp",
        )
        trace = load_trace_csv(path)
        np.testing.assert_array_equal(trace.timestamps, [100.0, 400.0])

    def test_missing_pair_rejected(self, tmp_path):
        rows = full_csv_rows()[:-1]  # drop one measurement
        path = write_csv(tmp_path / "m.csv", rows)
        with pytest.raises(ValidationError, match="missing"):
            load_trace_csv(path)

    def test_self_measurement_rejected(self, tmp_path):
        rows = full_csv_rows() + ["0,1,1,0.001,1e8"]
        path = write_csv(tmp_path / "m.csv", rows)
        with pytest.raises(ValidationError, match="self"):
            load_trace_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["0,0,1,0.001"], header="a,b,c,d")
        with pytest.raises(ValidationError, match="columns"):
            load_trace_csv(path)

    def test_nonpositive_bandwidth_rejected(self, tmp_path):
        rows = full_csv_rows()
        rows[0] = "0,0,1,0.001,0"
        path = write_csv(tmp_path / "m.csv", rows)
        with pytest.raises(ValidationError, match="beta"):
            load_trace_csv(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("snapshot,src,dst,alpha_s,beta_Bps\n")
        with pytest.raises(ValidationError, match="no measurements"):
            load_trace_csv(str(path))


class TestRobustLoading:
    def test_corrupted_file_raises_validation_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is definitely not a zip archive")
        with pytest.raises(ValidationError, match="unreadable"):
            load_trace(path)

    def test_truncated_file_raises_validation_error(self, tiny_trace, tmp_path):
        path = tmp_path / "ok.npz"
        save_trace(tiny_trace, path)
        blob = path.read_bytes()
        trunc = tmp_path / "trunc.npz"
        trunc.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValidationError, match="unreadable"):
            load_trace(trunc)

    def test_missing_file_keeps_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.npz")

    def test_nonfinite_values_rejected_by_default(self, tiny_trace, tmp_path):
        alpha = tiny_trace.alpha.copy()
        alpha[0, 1, 2] = np.nan
        path = tmp_path / "nf.npz"
        np.savez_compressed(
            path,
            format_version=np.int64(TRACE_FORMAT_VERSION),
            alpha=alpha,
            beta=tiny_trace.beta,
            timestamps=tiny_trace.timestamps,
        )
        with pytest.raises(ValidationError, match="non-finite"):
            load_trace(path)

    def test_allow_missing_masks_nonfinite_values(self, tiny_trace, tmp_path):
        alpha = tiny_trace.alpha.copy()
        beta = tiny_trace.beta.copy()
        alpha[0, 1, 2] = np.nan
        beta[1, 0, 3] = -5.0
        path = tmp_path / "nf.npz"
        np.savez_compressed(
            path,
            format_version=np.int64(TRACE_FORMAT_VERSION),
            alpha=alpha,
            beta=beta,
            timestamps=tiny_trace.timestamps,
        )
        back = load_trace(path, allow_missing=True)
        assert back.mask is not None
        assert not back.mask[0, 1, 2]
        assert not back.mask[1, 0, 3]
        assert back.alpha[0, 1, 2] == 0.0  # benign placeholder
        assert np.isinf(back.beta[1, 0, 3])

    def test_mask_round_trips(self, tiny_trace, tmp_path):
        mask = np.ones(tiny_trace.alpha.shape, dtype=bool)
        mask[2, 0, 1] = False
        masked = type(tiny_trace)(
            alpha=tiny_trace.alpha,
            beta=tiny_trace.beta,
            timestamps=tiny_trace.timestamps,
            mask=mask,
        )
        path = tmp_path / "masked.npz"
        save_trace(masked, path)
        back = load_trace(path)
        assert back.mask is not None
        np.testing.assert_array_equal(back.mask, masked.mask)

    def test_full_trace_archive_has_no_mask_array(self, tiny_trace, tmp_path):
        path = tmp_path / "full.npz"
        save_trace(tiny_trace, path)
        with np.load(path) as data:
            assert "mask" not in data.files


class TestSchemaHardening:
    """Malformed archives must fail loud with ValidationError, not load."""

    def _write(self, path, tiny_trace, **overrides):
        arrays = dict(
            format_version=np.int64(TRACE_FORMAT_VERSION),
            alpha=tiny_trace.alpha,
            beta=tiny_trace.beta,
            timestamps=tiny_trace.timestamps,
        )
        arrays.update(overrides)
        np.savez_compressed(path, **arrays)
        return path

    def test_mask_shape_mismatch_rejected(self, tiny_trace, tmp_path):
        bad_mask = np.ones(
            (tiny_trace.n_snapshots + 1,) + tiny_trace.alpha.shape[1:], dtype=bool
        )
        path = self._write(tmp_path / "badmask.npz", tiny_trace, mask=bad_mask)
        with pytest.raises(ValidationError, match="mask shape"):
            load_trace(path)

    def test_alpha_beta_shape_mismatch_rejected(self, tiny_trace, tmp_path):
        path = self._write(
            tmp_path / "badbeta.npz", tiny_trace, beta=tiny_trace.beta[:-1]
        )
        with pytest.raises(ValidationError, match="shape mismatch"):
            load_trace(path)

    def test_future_schema_version_rejected(self, tiny_trace, tmp_path):
        path = self._write(
            tmp_path / "v2.npz",
            tiny_trace,
            format_version=np.int64(TRACE_FORMAT_VERSION + 1),
        )
        with pytest.raises(ValidationError, match="unsupported trace format"):
            load_trace(path)

    def test_fractional_version_rejected_not_truncated(self, tiny_trace, tmp_path):
        # int(1.5) == 1 would silently accept a file written by nobody.
        path = self._write(
            tmp_path / "v15.npz", tiny_trace, format_version=np.float64(1.5)
        )
        with pytest.raises(ValidationError, match="malformed trace format"):
            load_trace(path)

    def test_non_scalar_version_rejected(self, tiny_trace, tmp_path):
        path = self._write(
            tmp_path / "varr.npz",
            tiny_trace,
            format_version=np.array([1, 1], dtype=np.int64),
        )
        with pytest.raises(ValidationError, match="malformed trace format"):
            load_trace(path)

    def test_non_numeric_version_rejected(self, tiny_trace, tmp_path):
        path = self._write(
            tmp_path / "vstr.npz", tiny_trace, format_version=np.str_("one")
        )
        with pytest.raises(ValidationError, match="malformed trace format"):
            load_trace(path)


class TestCsvPartialLogs:
    def test_missing_pair_allowed_when_opted_in(self, tmp_path):
        rows = full_csv_rows()[:-1]  # drop one measurement
        path = write_csv(tmp_path / "m.csv", rows)
        trace = load_trace_csv(path, allow_missing=True)
        assert trace.mask is not None
        assert (~trace.mask).sum() == 1

    def test_nan_reading_rejected_by_default(self, tmp_path):
        rows = full_csv_rows()
        rows[0] = "0,0,1,nan,1e8"
        path = write_csv(tmp_path / "m.csv", rows)
        with pytest.raises(ValidationError, match="non-finite"):
            load_trace_csv(path)

    def test_nan_reading_masked_when_opted_in(self, tmp_path):
        rows = full_csv_rows()
        rows[0] = "0,0,1,nan,1e8"
        path = write_csv(tmp_path / "m.csv", rows)
        trace = load_trace_csv(path, allow_missing=True)
        assert trace.mask is not None
        assert not trace.mask[0, 0, 1]
        assert trace.observed_fraction < 1.0

    def test_partial_log_decomposes(self, tmp_path):
        rows = [r for r in full_csv_rows(t=8, n=4) if not r.startswith("3,0,1")]
        path = write_csv(tmp_path / "m.csv", rows)
        trace = load_trace_csv(path, allow_missing=True)
        from repro.core.decompose import decompose

        dec = decompose(trace.tp_matrix(8 << 20), solver="ialm")
        assert dec.solver_converged
