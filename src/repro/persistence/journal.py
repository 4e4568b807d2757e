"""Write-ahead snapshot journal: append-only, CRC32-framed, torn-tail tolerant.

A :class:`SnapshotJournal` is the WAL half of the crash-safety story: every
session operation is appended *before* it executes, so a recovery can replay
everything the dead process had committed to. The file format is deliberately
dumb — no index, no compaction, no mmap:

``RPJL`` magic + ``uint32`` format version, then zero or more frames of
``uint32`` payload length + ``uint32`` CRC32(payload) + payload bytes
(all little-endian).

The only interesting property is what happens when a process dies mid-append:
the file ends in a *torn* frame — a partial header or a payload shorter than
its declared length — or, on real hardware, a frame whose bytes were only
partially flushed (CRC mismatch). :meth:`SnapshotJournal.replay` treats any
such frame as the end of the journal: it never raises on a truncated file and
never yields a partially-applied record, which is exactly the atomicity unit
recovery needs (an operation either replays fully or never happened).

A session's records are JSON objects (:meth:`SnapshotJournal.append_json`).
A float array in a record — a mapping's task-graph volumes — travels as
:func:`pack_float64`: its shape plus base64 of its little-endian float64
bytes, a bit-exact round trip that encodes several times faster than a
JSON list of numbers. :func:`unpack_float64` also reads the nested list
that records written before that carry.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..errors import PersistenceError

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "JournalScan",
    "SnapshotJournal",
    "pack_float64",
    "unpack_float64",
]

JOURNAL_MAGIC = b"RPJL"
JOURNAL_VERSION = 1

_HEADER = struct.Struct("<4sI")  # magic, version
_FRAME = struct.Struct("<II")  # payload length, crc32


@dataclass(frozen=True)
class JournalScan:
    """Result of reading a journal: the intact records plus tail accounting.

    ``discarded_bytes`` counts trailing bytes that did not form a complete,
    checksum-valid frame (0 for a cleanly closed journal). ``valid_bytes`` is
    the offset up to which the file is known good — an appender resuming an
    existing journal continues from there, amputating the torn tail.
    """

    records: tuple[bytes, ...]
    valid_bytes: int
    discarded_bytes: int


def _scan(blob: bytes) -> JournalScan:
    """Parse *blob* into frames, stopping at the first torn/corrupt one."""
    if len(blob) < _HEADER.size:
        return JournalScan(records=(), valid_bytes=0, discarded_bytes=len(blob))
    magic, version = _HEADER.unpack_from(blob, 0)
    if magic != JOURNAL_MAGIC or version != JOURNAL_VERSION:
        raise PersistenceError(
            f"not a journal file (magic {magic!r}, version {version})"
        )
    records: list[bytes] = []
    offset = _HEADER.size
    while True:
        if offset + _FRAME.size > len(blob):
            break  # torn frame header (or clean EOF)
        length, crc = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(blob):
            break  # torn payload
        payload = blob[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break  # partially-flushed or corrupted frame
        records.append(payload)
        offset = end
    return JournalScan(
        records=tuple(records),
        valid_bytes=offset,
        discarded_bytes=len(blob) - offset,
    )


class SnapshotJournal:
    """Append-only journal of one session's operation records.

    Parameters
    ----------
    path:
        Journal file; created (with its header) if absent. An existing file
        is scanned first and any torn tail is truncated away, so appends
        always extend a checksum-valid prefix.
    fsync:
        Flush-and-fsync after every append. SIGKILL safety does not need it
        (the page cache survives the process); power-loss safety does.
        Default off — the chaos harness kills processes, not machines.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        if os.path.exists(self.path):
            scan = _scan(_read_file(self.path))  # raises on foreign files
            self._seq = len(scan.records)
            if scan.valid_bytes == 0:
                # Empty or torn mid-header-write: start the journal fresh.
                self._write_header()
            elif scan.discarded_bytes:
                with open(self.path, "r+b") as fh:
                    fh.truncate(scan.valid_bytes)
        else:
            self._seq = 0
            self._write_header()
        self._fh = open(self.path, "ab")

    def _write_header(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(_HEADER.pack(JOURNAL_MAGIC, JOURNAL_VERSION))
            fh.flush()
            os.fsync(fh.fileno())

    # -- writing ----------------------------------------------------------
    @property
    def seq(self) -> int:
        """Number of records committed so far (next record's index)."""
        return self._seq

    def append(self, payload: bytes) -> int:
        """Commit one record; returns its sequence index."""
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        self._fh.write(frame)
        self._fh.write(payload)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        seq = self._seq
        self._seq += 1
        return seq

    def append_json(self, record: dict[str, Any]) -> int:
        """Commit one JSON-encoded record (the session's record format)."""
        return self.append(
            json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "SnapshotJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- reading ----------------------------------------------------------
    @classmethod
    def scan(cls, path: str | os.PathLike) -> JournalScan:
        """Read every intact record of the journal at *path*.

        Never raises on truncation: a torn tail simply ends the record
        stream (see module docstring). Raises :class:`PersistenceError`
        only when the file is not a journal at all.
        """
        return _scan(_read_file(os.fspath(path)))

    @classmethod
    def replay(cls, path: str | os.PathLike) -> Iterator[dict[str, Any]]:
        """Iterate the journal's records decoded as JSON objects."""
        for payload in cls.scan(path).records:
            yield json.loads(payload.decode("utf-8"))


def pack_float64(values: np.ndarray) -> dict[str, Any]:
    """*values* as JSON-ready fields: ``shape`` and ``le64``, the base64 of
    its little-endian float64 bytes (inverse: :func:`unpack_float64`)."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "le64": base64.b64encode(arr.data).decode("ascii"),
    }


def unpack_float64(packed: dict[str, Any] | list) -> np.ndarray:
    """A float64 array from :func:`pack_float64` fields or a nested list."""
    if isinstance(packed, dict):
        raw = base64.b64decode(packed["le64"], validate=True)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(
            packed["shape"]
        )
    return np.asarray(packed, dtype=np.float64)


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
