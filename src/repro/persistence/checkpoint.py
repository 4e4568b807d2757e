"""Versioned, checksummed checkpoints with atomic writes and fallback loading.

A checkpoint file holds a dict of numpy arrays plus a JSON metadata dict
(the session's scalars: cursor, counters, config, schema version). On disk:

``RPCK`` magic + ``uint32`` format version + ``uint64`` payload length +
``uint32`` CRC32(payload) (little-endian), followed by the payload: the
JSON metadata block, then a flat directory of raw C-order numpy arrays
(name, dtype string, shape, bytes — all length-prefixed). The flat layout
is deliberate: checkpoints sit on the session's hot path, and a zip
container (``.npz``) costs more than the arrays themselves at this size.

A :class:`CheckpointStore` directory holds, next to the journal::

    ckpt-<seq>.ckpt     history, controller deviations, stream state, meta
    seg-<seq>.a.seg     the solver-state segment (SEGMENT_ARRAYS + cache_*)
    seg-<seq>.b.seg     its mirror: the same bytes, written second

Both are RPCK files. The segment holds what the decomposition in service
and the engine's row cache fix — ~12 MB at paper scale — and is written
once per decomposition: a checkpoint's ``segment`` metadata entry records
the segment's name, CRC and length, and later checkpoints name the same
pair while its arrays are the same read-only objects. Loading takes the
first mirror that verifies and matches the recorded CRC, so one corrupted
file never strands every checkpoint sharing the segment. A save with no
segment arrays, and every checkpoint written before segments existed, is
one self-contained file.

Writes go through a temp file in the same directory followed by
``os.replace``, so a reader (including a recovery racing a dying writer)
only ever sees a complete old file or a complete new file; a segment pair
is complete before the checkpoint naming it is written. Any mismatch —
magic, version, length, checksum, unreadable archive, no valid segment
mirror — raises :class:`~repro.errors.CheckpointCorruption`, which
:meth:`CheckpointStore.find_latest` treats as "try the next-older one".
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import CheckpointCorruption, PersistenceError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "SEGMENT_ARRAYS",
    "SEGMENT_PREFIX",
    "Checkpoint",
    "write_checkpoint",
    "read_checkpoint",
    "CheckpointStore",
]

CHECKPOINT_MAGIC = b"RPCK"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIQI")  # magic, version, payload length, crc32
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_NAME_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.[ab]\.seg$")

#: Arrays a store keeps in a checkpoint's segment rather than in the
#: checkpoint itself: those fixed by the decomposition in service, plus
#: every array named with :data:`SEGMENT_PREFIX` (the engine's row cache).
SEGMENT_ARRAYS = ("dec_row", "dec_error", "sr_low_rank", "sr_sparse", "sr_constant_row")
SEGMENT_PREFIX = "cache_"
SEGMENT_MIRRORS = ("a", "b")


@dataclass(frozen=True)
class Checkpoint:
    """One loaded checkpoint: arrays + metadata + where it came from."""

    arrays: dict[str, np.ndarray]
    meta: dict[str, Any]
    path: str


def _encode_payload(arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> list:
    """The payload as a list of buffers (joined, they are the payload bytes).

    Array data is referenced, not copied: a checkpoint's arrays are
    checksummed and written straight from memory.
    """
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    pieces: list = [_U32.pack(len(meta_blob)), meta_blob, _U32.pack(len(arrays))]
    for name, value in arrays.items():
        arr = np.ascontiguousarray(value)
        if arr.dtype.hasobject:
            raise PersistenceError(
                f"array {name!r} has an object dtype and cannot be checkpointed"
            )
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        pieces += [
            _U32.pack(len(name_b)), name_b,
            _U32.pack(len(dtype_b)), dtype_b,
            _U32.pack(arr.ndim),
            *(_U64.pack(dim) for dim in arr.shape),
            _U64.pack(arr.nbytes), arr.reshape(-1).view(np.uint8),
        ]
    return pieces


def _atomic_write(target: str, pieces: list, fsync: bool) -> tuple[int, int]:
    """Write a file of header + *pieces* (the payload) via a temp file and
    ``os.replace``; return the payload's length and CRC32.

    Each piece is checksummed right after it is written, while it is still
    in cache, and the header is filled in last.
    """
    directory = os.path.dirname(target) or "."
    # Fixed temp name rather than mkstemp: the store is single-writer by
    # design, and os.replace keeps the swap atomic either way.
    tmp = target + ".tmp"
    length = crc = 0
    try:
        with open(tmp, "wb") as fh:
            fh.seek(_HEADER.size)
            for piece in pieces:
                fh.write(piece)
                crc = zlib.crc32(piece, crc)
                length += len(piece)
            fh.seek(0)
            fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, length, crc))
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return length, crc


def _decode_payload(payload: bytes, path: str) -> tuple[dict[str, np.ndarray], dict]:
    def bad(why: str) -> CheckpointCorruption:
        return CheckpointCorruption(f"{path}: unreadable payload: {why}")

    try:
        offset = 0

        def take_u32() -> int:
            nonlocal offset
            (value,) = _U32.unpack_from(payload, offset)
            offset += _U32.size
            return value

        def take_u64() -> int:
            nonlocal offset
            (value,) = _U64.unpack_from(payload, offset)
            offset += _U64.size
            return value

        def take_bytes(length: int) -> bytes:
            nonlocal offset
            if offset + length > len(payload):
                raise bad("truncated block")
            block = payload[offset : offset + length]
            offset += length
            return block

        meta = json.loads(take_bytes(take_u32()).decode("utf-8"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(take_u32()):
            name = take_bytes(take_u32()).decode("utf-8")
            dtype = np.dtype(take_bytes(take_u32()).decode("ascii"))
            shape = tuple(take_u64() for _ in range(take_u32()))
            raw = take_bytes(take_u64())
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if offset != len(payload):
            raise bad(f"{len(payload) - offset} trailing bytes")
    except CheckpointCorruption:
        raise
    except Exception as exc:  # struct/json/dtype/reshape failures
        raise bad(str(exc)) from exc
    return arrays, meta


def write_checkpoint(
    path: str | os.PathLike,
    arrays: dict[str, np.ndarray],
    meta: dict[str, Any],
    *,
    fsync: bool = False,
) -> None:
    """Atomically write a checkpoint file (temp file + rename)."""
    _atomic_write(os.fspath(path), _encode_payload(arrays, meta), fsync)


def _read_payload(target: str) -> tuple[bytes, int]:
    """A file's verified payload and its CRC32 (header checks included)."""
    with open(target, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CheckpointCorruption(f"{target}: truncated header")
    magic, version, length, crc = _HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointCorruption(f"{target}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointCorruption(
            f"{target}: unsupported checkpoint version {version} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointCorruption(
            f"{target}: payload is {len(payload)} bytes, header says {length}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointCorruption(f"{target}: checksum mismatch")
    return payload, crc


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Read and verify one checkpoint file.

    The file is returned as stored: a store checkpoint that names a segment
    keeps its ``segment`` entry in ``meta`` and lacks the segment's arrays
    (:meth:`CheckpointStore.load_latest` resolves them).

    Raises
    ------
    CheckpointCorruption
        On any integrity failure: wrong magic, unsupported version,
        truncated payload, CRC mismatch, or an unreadable archive. A single
        flipped byte anywhere in the payload is caught by the CRC.
    """
    target = os.fspath(path)
    payload, _ = _read_payload(target)
    arrays, meta = _decode_payload(payload, target)
    return Checkpoint(arrays=arrays, meta=meta, path=target)


class CheckpointStore:
    """A directory of numbered checkpoints with retention and fallback.

    Files are named ``ckpt-<seq>.ckpt`` with a monotonically increasing
    sequence number. When the saved arrays include segment arrays (see
    :data:`SEGMENT_ARRAYS`), :meth:`save` moves them into a mirrored
    segment pair ``seg-<seq>.a.seg`` / ``seg-<seq>.b.seg`` and the
    checkpoint's metadata names it; a later save whose segment arrays are
    the same read-only objects names that pair again instead of writing a
    new one. :meth:`save` keeps the newest *keep* checkpoints and the
    segments they name, and :meth:`find_latest` walks newest → oldest
    skipping anything that fails verification — the fallback path recovery
    relies on.
    """

    def __init__(
        self, directory: str | os.PathLike, *, keep: int = 3, fsync: bool = False
    ) -> None:
        if int(keep) < 1:
            raise PersistenceError("keep must be >= 1")
        self.directory = os.fspath(directory)
        self.keep = int(keep)
        self.fsync = bool(fsync)
        #: Whether the last :meth:`save` wrote its segment (False: it named
        #: an existing one; None: it had no segment arrays).
        self.segment_written: bool | None = None
        # The last segment written: its arrays (held so their ids cannot be
        # recycled) and the reference checkpoints record. None when unsafe
        # to name again.
        self._segment: tuple[dict[str, np.ndarray], dict[str, Any]] | None = None
        # Checkpoint path -> name of the segment it names (None: none).
        self._names: dict[str, str | None] = {}
        os.makedirs(self.directory, exist_ok=True)

    def _files(self) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
        """(seq, path) pairs of present checkpoints and segment files,
        oldest first."""
        ckpts, segments = [], []
        for name in os.listdir(self.directory):
            for pattern, found in ((_NAME_RE, ckpts), (_SEGMENT_RE, segments)):
                m = pattern.match(name)
                if m:
                    found.append((int(m.group(1)), os.path.join(self.directory, name)))
        return sorted(ckpts), sorted(segments)

    def _paths(self) -> list[tuple[int, str]]:
        """(seq, path) pairs of present checkpoint files, oldest first."""
        return self._files()[0]

    @property
    def next_seq(self) -> int:
        """One past the highest sequence number of any checkpoint or segment."""
        ckpts, segments = self._files()
        seqs = [seq for seq, _ in ckpts + segments]
        return max(seqs) + 1 if seqs else 0

    def save(self, arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> str:
        """Write the next checkpoint (and its segment, unless already written);
        prune checkpoints beyond the retention limit and unnamed segments."""
        seq = self.next_seq
        path = os.path.join(self.directory, f"ckpt-{seq:08d}.ckpt")
        segment = {
            k: v
            for k, v in arrays.items()
            if k in SEGMENT_ARRAYS or k.startswith(SEGMENT_PREFIX)
        }
        if segment:
            ref = self._reusable(segment)
            self.segment_written = ref is None
            if ref is None:
                ref = self._write_segment(seq, segment)
            arrays = {k: v for k, v in arrays.items() if k not in segment}
            meta = {**meta, "segment": ref}
        else:
            self.segment_written = None
        write_checkpoint(path, arrays, meta, fsync=self.fsync)
        self._names[path] = meta["segment"]["name"] if segment else None
        self._prune()
        return path

    def _reusable(self, segment: dict[str, np.ndarray]) -> dict[str, Any] | None:
        """The last segment's reference if *segment* is that very segment."""
        if self._segment is None:
            return None
        written, ref = self._segment
        if written.keys() != segment.keys():
            return None
        for name, arr in segment.items():
            if arr is not written[name] or arr.flags.writeable:
                return None
        for mirror in SEGMENT_MIRRORS:
            if not os.path.exists(self._segment_path(ref["name"], mirror)):
                return None  # removed behind the store's back: write anew
        return ref

    def _segment_path(self, name: str, mirror: str) -> str:
        return os.path.join(self.directory, f"{name}.{mirror}.seg")

    def _write_segment(
        self, seq: int, segment: dict[str, np.ndarray]
    ) -> dict[str, Any]:
        name = f"seg-{seq:08d}"
        pieces = _encode_payload(segment, {"segment": name})
        for mirror in SEGMENT_MIRRORS:
            length, crc = _atomic_write(
                self._segment_path(name, mirror), pieces, self.fsync
            )
        ref = {"name": name, "crc": crc, "length": length}
        # Only arrays read-only since they were written can be named again.
        frozen = not any(arr.flags.writeable for arr in segment.values())
        self._segment = (segment, ref) if frozen else None
        return ref

    def _segment_name(self, path: str) -> str | None:
        """Name of the segment *path* names (None: none, or unreadable)."""
        if path not in self._names:
            try:
                ref = read_checkpoint(path).meta.get("segment")
            except (CheckpointCorruption, OSError):
                ref = None
            self._names[path] = None if ref is None else ref["name"]
        return self._names[path]

    def _prune(self) -> None:
        paths, segments = self._files()
        for _, old in paths[: -self.keep]:
            self._names.pop(old, None)
            try:
                os.unlink(old)
            except OSError:
                pass
        named = {self._segment_name(p) for _, p in paths[-self.keep :]}
        for _, seg in segments:
            if os.path.basename(seg).split(".", 1)[0] not in named:
                try:
                    os.unlink(seg)
                except OSError:
                    pass

    def _load(self, path: str, check: Callable[[dict, str], None] | None) -> Checkpoint:
        """Read *path*, run *check* on its metadata, resolve its segment."""
        ckpt = read_checkpoint(path)
        if check is not None:
            check(ckpt.meta, path)
        ref = ckpt.meta.get("segment")
        if ref is None:
            return ckpt
        meta = {k: v for k, v in ckpt.meta.items() if k != "segment"}
        problems = []
        for mirror in SEGMENT_MIRRORS:
            seg_path = self._segment_path(ref["name"], mirror)
            try:
                payload, crc = _read_payload(seg_path)
                if crc != ref["crc"] or len(payload) != ref["length"]:
                    raise CheckpointCorruption(
                        f"{seg_path}: not the segment {path} names"
                    )
                seg_arrays, _ = _decode_payload(payload, seg_path)
            except (CheckpointCorruption, OSError) as exc:
                problems.append(str(exc))
                continue
            return Checkpoint(arrays={**ckpt.arrays, **seg_arrays}, meta=meta, path=path)
        raise CheckpointCorruption(
            f"{path}: no valid copy of segment {ref['name']}: " + "; ".join(problems)
        )

    def find_latest(
        self, check: Callable[[dict, str], None] | None = None
    ) -> tuple[Checkpoint | None, int]:
        """Newest checkpoint that verifies, segment resolved, plus how many
        newer ones were skipped as corrupt.

        *check* may reject a checkpoint's metadata by raising
        :class:`~repro.errors.CheckpointCorruption` (recovery checks the
        state schema this way). Returns ``(None, n)`` when none verifies.
        """
        fallbacks = 0
        for _, path in reversed(self._paths()):
            try:
                return self._load(path, check), fallbacks
            except (CheckpointCorruption, OSError):
                fallbacks += 1
        return None, fallbacks

    def load_latest(self) -> Checkpoint | None:
        """Newest checkpoint that passes verification; None if none does."""
        return self.find_latest()[0]
