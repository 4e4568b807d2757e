"""Unit tests for the journal / checkpoint / recovery persistence layer."""

import gc
import json
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.errors import CheckpointCorruption, PersistenceError
from repro.persistence import (
    CheckpointStore,
    PersistenceConfig,
    SnapshotJournal,
    read_checkpoint,
    recover,
    trace_from_arrays,
    trace_sha256,
    trace_to_arrays,
    write_checkpoint,
)
from repro.persistence.checkpoint import CHECKPOINT_MAGIC, join_blocks
from repro.persistence.journal import JOURNAL_MAGIC, pack_float64, unpack_float64
from repro.persistence.recovery import journal_path
from repro.persistence.state import STATE_SCHEMA_VERSION


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "j.journal"
        with SnapshotJournal(path) as j:
            assert j.append_json({"op": "broadcast", "root": 0}) == 0
            assert j.append_json({"op": "reduce", "root": 3}) == 1
            assert j.seq == 2
        records = list(SnapshotJournal.replay(path))
        assert records == [{"op": "broadcast", "root": 0}, {"op": "reduce", "root": 3}]

    def test_scan_empty_journal(self, tmp_path):
        path = tmp_path / "j.journal"
        SnapshotJournal(path).close()
        scan = SnapshotJournal.scan(path)
        assert scan.records == () and scan.discarded_bytes == 0

    def test_torn_tail_is_amputated_not_fatal(self, tmp_path):
        path = tmp_path / "j.journal"
        with SnapshotJournal(path) as j:
            j.append(b"first record")
            j.append(b"second record")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])  # tear the last frame mid-payload
        scan = SnapshotJournal.scan(path)
        assert scan.records == (b"first record",)
        assert scan.discarded_bytes > 0

    def test_reopen_truncates_torn_tail_and_continues(self, tmp_path):
        path = tmp_path / "j.journal"
        with SnapshotJournal(path) as j:
            j.append(b"alpha")
            j.append(b"beta")
        path.write_bytes(path.read_bytes()[:-3])
        with SnapshotJournal(path) as j:
            assert j.seq == 1  # torn record gone
            j.append(b"gamma")
        assert SnapshotJournal.scan(path).records == (b"alpha", b"gamma")

    def test_corrupted_frame_ends_the_stream(self, tmp_path):
        path = tmp_path / "j.journal"
        with SnapshotJournal(path) as j:
            j.append(b"good")
            j.append(b"flipped")
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(blob))
        assert SnapshotJournal.scan(path).records == (b"good",)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"definitely not " + JOURNAL_MAGIC + b" framed data")
        with pytest.raises(PersistenceError, match="not a journal"):
            SnapshotJournal.scan(path)

    def test_fsync_mode_appends(self, tmp_path):
        path = tmp_path / "j.journal"
        with SnapshotJournal(path, fsync=True) as j:
            j.append(b"durable")
        assert SnapshotJournal.scan(path).records == (b"durable",)


class TestCheckpointFile:
    def _payload(self):
        arrays = {
            "row": np.arange(16, dtype=np.float64),
            "mask": np.array([True, False, True]),
        }
        meta = {"schema": STATE_SCHEMA_VERSION, "cursor": 12, "note": "x"}
        return arrays, meta

    def test_round_trip(self, tmp_path):
        arrays, meta = self._payload()
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, arrays, meta)
        ckpt = read_checkpoint(path)
        assert ckpt.meta == meta
        np.testing.assert_array_equal(ckpt.arrays["row"], arrays["row"])
        np.testing.assert_array_equal(ckpt.arrays["mask"], arrays["mask"])

    @pytest.mark.parametrize("offset", [0, 4, 8, 17, -1])
    def test_flipped_byte_detected(self, tmp_path, offset):
        arrays, meta = self._payload()
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, arrays, meta)
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruption):
            read_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        arrays, meta = self._payload()
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, arrays, meta)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointCorruption):
            read_checkpoint(path)

    def test_foreign_magic_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        assert CHECKPOINT_MAGIC != b"XXXX"
        with pytest.raises(CheckpointCorruption):
            read_checkpoint(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        arrays, meta = self._payload()
        write_checkpoint(tmp_path / "c.ckpt", arrays, meta)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]


class TestCheckpointStore:
    def _save(self, store, n):
        paths = []
        for i in range(n):
            paths.append(
                store.save(
                    {"x": np.full(4, float(i))},
                    {"schema": STATE_SCHEMA_VERSION, "journal_seq": i},
                )
            )
        return paths

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        self._save(store, 5)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "ckpt-00000002.ckpt", "ckpt-00000003.ckpt", "ckpt-00000004.ckpt",
        ]

    def test_load_latest_returns_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        self._save(store, 4)
        ckpt = store.load_latest()
        assert ckpt is not None and ckpt.meta["journal_seq"] == 3

    def test_load_latest_skips_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        paths = self._save(store, 3)
        blob = bytearray(open(paths[-1], "rb").read())
        blob[10] ^= 0xFF
        open(paths[-1], "wb").write(bytes(blob))
        ckpt = store.load_latest()
        assert ckpt is not None and ckpt.meta["journal_seq"] == 1

    def test_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None


def _frozen(value):
    arr = np.array(value, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _flip(path, offset=-1):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


class TestCheckpointSegments:
    """The store keeps segment arrays (``dec_*``, ``sr_*``, ``cache_*``) in
    a mirrored segment pair that later checkpoints name again while those
    arrays are the same read-only objects."""

    META = {"schema": STATE_SCHEMA_VERSION, "journal_seq": 0}

    def _segment(self, fill):
        return {"dec_row": _frozen(np.full(6, fill)), "cache_rows": _frozen(np.eye(3))}

    def _segments_on_disk(self, directory):
        return sorted(p.name for p in directory.glob("seg-*"))

    def test_save_without_segment_arrays_writes_todays_file(self, tmp_path):
        arrays = {"x": np.arange(5.0), "hist_root": np.arange(3)}
        path = CheckpointStore(tmp_path / "s").save(arrays, self.META)
        write_checkpoint(tmp_path / "plain.ckpt", arrays, self.META)
        with open(path, "rb") as fh:
            assert fh.read() == (tmp_path / "plain.ckpt").read_bytes()
        assert "segment" not in read_checkpoint(path).meta
        assert self._segments_on_disk(tmp_path / "s") == []

    def test_segment_written_once_and_named_again(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        segment = self._segment(1.0)
        for i in range(5):
            store.save({"x": np.full(2, float(i)), **segment}, self.META)
            assert store.segment_written is (i == 0)
        assert self._segments_on_disk(tmp_path) == [
            "seg-00000000.a.seg", "seg-00000000.b.seg",
        ]
        # Segments never match the checkpoint glob.
        assert len(list(tmp_path.glob("*.ckpt"))) == 3
        newest = read_checkpoint(sorted(tmp_path.glob("*.ckpt"))[-1])
        assert newest.meta["segment"]["name"] == "seg-00000000"
        assert "dec_row" not in newest.arrays

        ckpt = store.load_latest()
        assert "segment" not in ckpt.meta
        np.testing.assert_array_equal(ckpt.arrays["x"], np.full(2, 4.0))
        for name, arr in segment.items():
            np.testing.assert_array_equal(ckpt.arrays[name], arr)

    def test_writeable_or_new_arrays_are_written_again(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1)
        writeable = {"dec_row": np.zeros(4)}
        store.save(dict(writeable), self.META)
        store.save(dict(writeable), self.META)
        assert store.segment_written is True  # not frozen: cannot be trusted
        frozen = self._segment(2.0)
        store.save(frozen, self.META)
        store.save({**frozen, "dec_row": _frozen(frozen["dec_row"])}, self.META)
        assert store.segment_written is True  # equal content, other object
        store.save({"dec_row": frozen["dec_row"]}, self.META)
        assert store.segment_written is True  # different key set
        store.save({"dec_row": frozen["dec_row"]}, self.META)
        assert store.segment_written is False
        (tmp_path / "seg-00000004.b.seg").unlink()
        store.save({"dec_row": frozen["dec_row"]}, self.META)
        assert store.segment_written is True  # a mirror went missing

    def test_unnamed_segments_are_pruned(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        first, second = self._segment(1.0), self._segment(2.0)
        store.save(first, self.META)      # ckpt 0, seg 0
        store.save(second, self.META)     # ckpt 1, seg 1
        assert len(self._segments_on_disk(tmp_path)) == 4
        store.save(second, self.META)     # ckpt 2 names seg 1; ckpt 0 pruned
        assert self._segments_on_disk(tmp_path) == [
            "seg-00000001.a.seg", "seg-00000001.b.seg",
        ]

    def test_segment_is_not_named_again_after_pruning(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1)
        segment = self._segment(1.0)
        store.save(segment, self.META)
        store.save({"x": np.zeros(1)}, self.META)  # seg 0 no longer named
        assert self._segments_on_disk(tmp_path) == []
        store.save(segment, self.META)
        assert store.segment_written is True
        np.testing.assert_array_equal(
            store.load_latest().arrays["dec_row"], segment["dec_row"]
        )

    def test_one_corrupt_mirror_is_survived(self, tmp_path):
        store = CheckpointStore(tmp_path)
        segment = self._segment(3.0)
        store.save(segment, self.META)
        _flip(tmp_path / "seg-00000000.a.seg")
        ckpt, fallbacks = store.find_latest()
        assert fallbacks == 0
        np.testing.assert_array_equal(ckpt.arrays["dec_row"], segment["dec_row"])

    def test_mirror_of_another_segment_is_rejected(self, tmp_path):
        """A mirror that verifies on its own but is not the segment the
        checkpoint recorded (CRC and length in its meta) does not count."""
        store = CheckpointStore(tmp_path, keep=2)
        store.save(self._segment(1.0), self.META)
        store.save(self._segment(2.0), self.META)
        for mirror in "ab":
            os.replace(
                tmp_path / f"seg-00000000.{mirror}.seg",
                tmp_path / f"seg-00000001.{mirror}.seg",
            )
        ckpt, fallbacks = store.find_latest()
        assert ckpt is None and fallbacks == 2

    def test_both_mirrors_corrupt_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save({"x": np.zeros(1), **self._segment(1.0)}, self.META)
        store.save({"x": np.ones(1), **self._segment(2.0)}, self.META)
        for mirror in "ab":
            _flip(tmp_path / f"seg-00000001.{mirror}.seg")
        ckpt, fallbacks = store.find_latest()
        assert fallbacks == 1
        np.testing.assert_array_equal(ckpt.arrays["dec_row"], np.full(6, 1.0))
        (tmp_path / "seg-00000000.b.seg").unlink()
        _flip(tmp_path / "seg-00000000.a.seg", 30)
        assert store.find_latest() == (None, 2)
        with pytest.raises(PersistenceError, match="no valid checkpoint"):
            recover(tmp_path)

    def test_orphan_segment_is_pruned_at_next_save(self, tmp_path):
        """A segment whose checkpoint was never written (the writer died in
        between) is not reused by number and goes at the next save."""
        CheckpointStore(tmp_path).save(self._segment(1.0), self.META)
        for mirror in "ab":
            (tmp_path / f"seg-00000001.{mirror}.seg").write_bytes(
                (tmp_path / f"seg-00000000.{mirror}.seg").read_bytes()
            )
        store = CheckpointStore(tmp_path)
        assert store.next_seq == 2
        path = store.save(self._segment(2.0), self.META)
        assert path.endswith("ckpt-00000002.ckpt")
        assert self._segments_on_disk(tmp_path) == [
            "seg-00000000.a.seg", "seg-00000000.b.seg",
            "seg-00000002.a.seg", "seg-00000002.b.seg",
        ]

    def test_recover_reports_fallbacks_from_the_same_walk(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        for i in range(3):
            store.save({"x": np.full(1, float(i))},
                       {"schema": STATE_SCHEMA_VERSION, "journal_seq": 0})
        _flip(tmp_path / "ckpt-00000002.ckpt")
        ckpt, fallbacks = store.find_latest()
        state = recover(tmp_path)
        assert (fallbacks, state.fallbacks) == (1, 1)
        assert state.checkpoint_path == ckpt.path


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), np.asarray(b, dtype=np.float64).view(np.uint64)
    )


class TestPackedFloats:
    """Journal records carry float arrays as base64 of their bytes."""

    EDGE = np.array([[0.0, -0.0, 5e-324], [2.2250738585072014e-308, 1e300, -1e300]])

    @settings(max_examples=60, deadline=None)
    @given(
        npst.arrays(
            np.float64,
            npst.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
            elements=st.floats(width=64, allow_nan=True, allow_infinity=True),
        )
    )
    def test_round_trip_is_bit_exact(self, values):
        packed = json.loads(json.dumps(pack_float64(values)))
        assert _same_bits(unpack_float64(packed), values)

    def test_edge_values_through_a_journal(self, tmp_path):
        path = tmp_path / "j.journal"
        with SnapshotJournal(path) as j:
            j.append_json({"kind": "mapping", "volumes": pack_float64(self.EDGE)})
        (record,) = SnapshotJournal.replay(path)
        got = unpack_float64(record["volumes"])
        assert _same_bits(got, self.EDGE)
        assert got.dtype == np.float64 and got.flags.writeable
        assert np.signbit(got[0, 1]) and got[0, 2] == 5e-324

    def test_legacy_nested_list_is_read(self):
        got = unpack_float64(self.EDGE.tolist())
        assert _same_bits(got, self.EDGE)

    def test_bytes_are_little_endian(self):
        big = np.array([1.5, -2.0], dtype=">f8")
        packed = pack_float64(big)
        assert _same_bits(unpack_float64(packed), big.astype(np.float64))
        assert packed["shape"] == [2]


class TestHistoryBlocks:
    """Arrays named ``<block>/<column>`` are write-once segments of their own."""

    META = {"schema": STATE_SCHEMA_VERSION, "journal_seq": 0}

    @staticmethod
    def _blocks(start, n_blocks, rows=4):
        arrays = {}
        for b in range(start, start + n_blocks):
            base = float(b * rows)
            arrays[f"hist-{b:06d}/hist_x"] = _frozen(np.arange(base, base + rows))
            arrays[f"dev-{b:06d}/dev_y"] = _frozen(-np.arange(base, base + rows))
        return arrays

    def test_join_blocks_orders_blocks_then_tail(self):
        arrays = {
            "hist-000001/c": np.array([2.0, 3.0]),
            "hist-000000/c": np.array([0.0, 1.0]),
            "c": np.array([4.0]),
            "other": np.array([9]),
        }
        joined = join_blocks(arrays)
        assert sorted(joined) == ["c", "other"]
        np.testing.assert_array_equal(joined["c"], np.arange(5.0))
        assert joined["other"] is arrays["other"]
        assert join_blocks({"c": arrays["c"]})["c"] is arrays["c"]
        np.testing.assert_array_equal(
            join_blocks({"hist-000000/c": np.ones(2)})["c"], np.ones(2)
        )

    def test_each_block_written_once_and_loaded_joined(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        blocks = self._blocks(0, 2)
        for i in range(4):
            tail = {"hist_x": np.array([8.0 + i]), "dev_y": np.array([-8.0 - i])}
            store.save({**blocks, **tail}, self.META)
            assert store.blocks_written == (4 if i == 0 else 0)
            assert store.segment_written is None
        newest = read_checkpoint(sorted(tmp_path.glob("*.ckpt"))[-1])
        assert sorted(newest.arrays) == ["dev_y", "hist_x"]
        assert sorted(newest.meta["segments"]) == [
            "dev-000000", "dev-000001", "hist-000000", "hist-000001",
        ]
        assert newest.meta["segments"]["hist-000001"]["name"] == (
            "seg-00000000-hist-000001"
        )
        assert len(list(tmp_path.glob("seg-*.seg"))) == 8
        ckpt = store.load_latest()
        assert "segments" not in ckpt.meta and "segment" not in ckpt.meta
        np.testing.assert_array_equal(ckpt.arrays["hist_x"], np.r_[np.arange(8.0), 11.0])
        np.testing.assert_array_equal(ckpt.arrays["dev_y"], -np.r_[np.arange(8.0), 11.0])

    def test_a_new_block_is_written_and_old_ones_named_again(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1)
        first = self._blocks(0, 1)
        store.save(first, self.META)
        store.save({**first, **self._blocks(1, 1)}, self.META)
        assert store.blocks_written == 2
        names = read_checkpoint(sorted(tmp_path.glob("*.ckpt"))[-1]).meta["segments"]
        assert names["hist-000000"]["name"] == "seg-00000000-hist-000000"
        assert names["hist-000001"]["name"] == "seg-00000001-hist-000001"
        assert len(list(tmp_path.glob("seg-*.seg"))) == 8

    def test_writeable_or_replaced_blocks_are_written_again(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1)
        store.save({"hist-000000/hist_x": np.zeros(3)}, self.META)
        store.save({"hist-000000/hist_x": np.zeros(3)}, self.META)
        assert store.blocks_written == 1  # writeable: cannot be trusted
        blocks = self._blocks(0, 1)
        store.save(blocks, self.META)
        store.save(blocks, self.META)
        assert store.blocks_written == 0
        replaced = {**blocks, "hist-000000/hist_x": _frozen(np.zeros(4))}
        store.save(replaced, self.META)
        assert store.blocks_written == 1  # same name, other object
        np.testing.assert_array_equal(store.load_latest().arrays["hist_x"], np.zeros(4))
        # Only the pairs the newest checkpoint names are left.
        assert len(list(tmp_path.glob("seg-*.seg"))) == 4

    def test_a_block_whose_members_change_is_written_again(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1)
        a, b = _frozen(np.zeros(2)), _frozen(np.ones(2))
        store.save({"hist-000000/a": a}, self.META)
        store.save({"hist-000000/a": a, "hist-000000/b": b}, self.META)
        assert store.blocks_written == 1  # a member joined
        store.save({"hist-000000/a": a, "hist-000000/b": b}, self.META)
        assert store.blocks_written == 0
        store.save({"hist-000000/b": b}, self.META)
        assert store.blocks_written == 1  # a member left
        assert sorted(store.load_latest().arrays) == ["b"]
        (segment,) = {p.name.split(".")[0] for p in tmp_path.glob("seg-*.seg")}
        for mirror in "ab":
            (tmp_path / f"{segment}.{mirror}.seg").unlink()
        store.save({"hist-000000/b": b}, self.META)
        assert store.blocks_written == 1  # its files went missing
        np.testing.assert_array_equal(store.load_latest().arrays["b"], b)
        b.setflags(write=True)
        b[0] = 7.0
        store.save({"hist-000000/b": b}, self.META)
        assert store.blocks_written == 1  # writeable again: cannot be trusted
        assert store.load_latest().arrays["b"][0] == 7.0

    def test_arrays_of_segments_no_longer_named_are_let_go(self, tmp_path):
        store = CheckpointStore(tmp_path)
        blocks = self._blocks(0, 1)
        watch = weakref.ref(blocks["hist-000000/hist_x"])
        store.save({**blocks, "hist_x": np.ones(1)}, self.META)
        store.save({"hist_x": np.ones(1)}, self.META)
        del blocks
        gc.collect()
        assert watch() is None

    def test_invalid_block_name_is_refused(self, tmp_path):
        with pytest.raises(PersistenceError, match="invalid block name"):
            CheckpointStore(tmp_path).save({"a.b/x": np.zeros(1)}, self.META)

    def test_one_corrupt_block_mirror_is_survived(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({**self._blocks(0, 1), "hist_x": np.ones(1)}, self.META)
        _flip(tmp_path / "seg-00000000-hist-000000.a.seg")
        ckpt, fallbacks = store.find_latest()
        assert fallbacks == 0
        np.testing.assert_array_equal(ckpt.arrays["hist_x"], [0.0, 1.0, 2.0, 3.0, 1.0])

    def test_both_block_mirrors_corrupt_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save({"hist_x": np.zeros(2)}, self.META)
        store.save({**self._blocks(0, 1), "hist_x": np.ones(1)}, self.META)
        for mirror in "ab":
            _flip(tmp_path / f"seg-00000001-hist-000000.{mirror}.seg", 40)
        ckpt, fallbacks = store.find_latest()
        assert fallbacks == 1
        np.testing.assert_array_equal(ckpt.arrays["hist_x"], np.zeros(2))


class TestRecovery:
    def _populate(self, directory, n_ckpts=2, extra_records=2):
        store = CheckpointStore(directory, keep=4)
        for i in range(n_ckpts):
            store.save(
                {"x": np.full(3, float(i))},
                {"schema": STATE_SCHEMA_VERSION, "journal_seq": i * 2},
            )
        with SnapshotJournal(journal_path(directory)) as j:
            for k in range((n_ckpts - 1) * 2 + extra_records):
                j.append_json({"op": "broadcast", "root": k})
        return store

    def test_happy_path(self, tmp_path):
        self._populate(tmp_path, n_ckpts=2, extra_records=2)
        state = recover(tmp_path)
        assert state.meta["journal_seq"] == 2
        assert state.fallbacks == 0
        assert [r["root"] for r in state.pending] == [2, 3]

    def test_fallback_past_flipped_byte(self, tmp_path):
        """The acceptance criterion: corrupt the newest checkpoint, recover
        from the previous one, and the journal tail just gets longer."""
        self._populate(tmp_path, n_ckpts=2, extra_records=2)
        newest = sorted(tmp_path.glob("ckpt-*.ckpt"))[-1]
        blob = bytearray(newest.read_bytes())
        blob[25] ^= 0x01
        newest.write_bytes(bytes(blob))
        state = recover(tmp_path)
        assert state.fallbacks == 1
        assert state.meta["journal_seq"] == 0
        assert [r["root"] for r in state.pending] == [0, 1, 2, 3]

    def test_all_checkpoints_corrupt_raises(self, tmp_path):
        self._populate(tmp_path, n_ckpts=2)
        for p in tmp_path.glob("ckpt-*.ckpt"):
            blob = bytearray(p.read_bytes())
            blob[6] ^= 0xFF
            p.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="no valid checkpoint"):
            recover(tmp_path)

    def test_wrong_schema_version_is_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": np.zeros(2)}, {"schema": STATE_SCHEMA_VERSION + 7,
                                        "journal_seq": 0})
        with pytest.raises(PersistenceError, match="no valid checkpoint"):
            recover(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="no persistence directory"):
            recover(tmp_path / "nope")

    def test_torn_journal_tail_tolerated(self, tmp_path):
        self._populate(tmp_path, n_ckpts=1, extra_records=3)
        jpath = journal_path(tmp_path)
        blob = open(jpath, "rb").read()
        open(jpath, "wb").write(blob[:-4])
        state = recover(tmp_path)
        assert state.discarded_tail_bytes > 0
        assert [r["root"] for r in state.pending] == [0, 1]


class TestTraceStateHelpers:
    def test_trace_round_trip(self, tiny_trace):
        arrays = trace_to_arrays(tiny_trace)
        back = trace_from_arrays(arrays)
        np.testing.assert_array_equal(back.alpha, tiny_trace.alpha)
        np.testing.assert_array_equal(back.beta, tiny_trace.beta)
        assert trace_sha256(back) == trace_sha256(tiny_trace)

    def test_sha_changes_with_content(self, tiny_trace):
        other = type(tiny_trace)(
            alpha=tiny_trace.alpha * 1.000001,
            beta=tiny_trace.beta,
            timestamps=tiny_trace.timestamps,
        )
        assert trace_sha256(other) != trace_sha256(tiny_trace)


class TestPersistenceConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(PersistenceError):
            PersistenceConfig(directory=tmp_path, checkpoint_every=0)
        with pytest.raises(PersistenceError):
            PersistenceConfig(directory=tmp_path, keep_checkpoints=0)

    def test_defaults(self, tmp_path):
        cfg = PersistenceConfig(directory=tmp_path)
        assert cfg.checkpoint_every == 100 and cfg.keep_checkpoints == 3
        assert cfg.fsync is False and cfg.trace_path is None
        assert os.fspath(cfg.directory) == os.fspath(tmp_path)
