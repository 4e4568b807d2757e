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

    ckpt-<seq>.ckpt                 open history tail, stream state, meta
    seg-<seq>.a.seg                 the solver-state segment (SEGMENT_ARRAYS + cache_*)
    seg-<seq>.b.seg                 its mirror: the same bytes, written second
    seg-<seq>-<block>.a.seg/.b.seg  one sealed history block, mirrored likewise

All are RPCK files. A segment holds arrays that stay fixed across many
checkpoints and is written once: a checkpoint's metadata records each
segment's name, CRC and length (``segment`` for the solver state,
``segments`` mapping block name to reference for the blocks), and later
checkpoints name the same pair while its arrays are the same read-only
objects. The solver-state segment holds what the decomposition in service
and the engine's row cache fix — ~12 MB at paper scale — and changes once
per decomposition. A block array is named ``<block>/<column>``
(:data:`BLOCK_SEPARATOR`): a sealed leading chunk of the column
``<column>``, whose open tail stays in the checkpoint under the plain
name. Sealed blocks never change, so a checkpoint writes only the tail
and its metadata however old the session is. Loading takes the first
mirror of each segment that verifies and matches the recorded CRC and
length, so one corrupted file never strands every checkpoint sharing the
segment, then joins each column's blocks and tail back into one array
(:func:`join_blocks`). A save with no segment arrays, and every checkpoint
written before segments or blocks existed, is one self-contained file.

Writes go through a temp file in the same directory followed by
``os.replace``, so a reader (including a recovery racing a dying writer)
only ever sees a complete old file or a complete new file; a segment pair
is complete before the checkpoint naming it is written. Any mismatch —
magic, version, length, checksum, unreadable archive, a segment with no
valid mirror — raises :class:`~repro.errors.CheckpointCorruption`, which
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
    "BLOCK_SEPARATOR",
    "Checkpoint",
    "join_blocks",
    "write_checkpoint",
    "read_checkpoint",
    "CheckpointStore",
]

CHECKPOINT_MAGIC = b"RPCK"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIQI")  # magic, version, payload length, crc32
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
# Arrays smaller than this are copied into the framing around them, so a
# checkpoint of many small arrays is a few writes, not a few per array.
_INLINE_BYTES = 16384
_NAME_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")
_SEGMENT_RE = re.compile(r"^seg-(\d{8})(?:-[A-Za-z0-9_-]+)?\.[ab]\.seg$")
_BLOCK_RE = re.compile(r"^[A-Za-z0-9_-]+$")

#: Arrays a store keeps in a checkpoint's segment rather than in the
#: checkpoint itself: those fixed by the decomposition in service, plus
#: every array named with :data:`SEGMENT_PREFIX` (the engine's row cache).
SEGMENT_ARRAYS = ("dec_row", "dec_error")
SEGMENT_PREFIX = "cache_"
SEGMENT_MIRRORS = ("a", "b")

#: ``<block>/<column>`` names a sealed leading chunk of ``<column>``; a store
#: keeps each block in a mirrored segment of its own.
BLOCK_SEPARATOR = "/"


@dataclass(frozen=True)
class Checkpoint:
    """One loaded checkpoint: arrays + metadata + where it came from."""

    arrays: dict[str, np.ndarray]
    meta: dict[str, Any]
    path: str


def _encode_payload(arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> list:
    """The payload as a list of buffers (joined, they are the payload bytes).

    Framing and arrays under :data:`_INLINE_BYTES` are gathered into one
    buffer per run; larger array data is referenced, not copied, so it is
    checksummed and written straight from memory.
    """
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    run = bytearray(_U32.pack(len(meta_blob)))
    run += meta_blob
    run += _U32.pack(len(arrays))
    pieces: list = []
    for name, value in arrays.items():
        arr = np.ascontiguousarray(value)
        if arr.dtype.hasobject:
            raise PersistenceError(
                f"array {name!r} has an object dtype and cannot be checkpointed"
            )
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        run += _U32.pack(len(name_b))
        run += name_b
        run += _U32.pack(len(dtype_b))
        run += dtype_b
        run += _U32.pack(arr.ndim)
        for dim in arr.shape:
            run += _U64.pack(dim)
        run += _U64.pack(arr.nbytes)
        data = arr.reshape(-1).view(np.uint8)
        if arr.nbytes < _INLINE_BYTES:
            run += memoryview(data)
        else:
            pieces += [run, data]
            run = bytearray()
    if run:
        pieces.append(run)
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

    The file is returned as stored: a store checkpoint that names segments
    keeps its ``segment`` and ``segments`` entries in ``meta`` and lacks
    the segments' arrays (:meth:`CheckpointStore.load_latest` resolves
    them and joins the blocks).

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


def join_blocks(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """*arrays* with every column's blocks and tail joined into one array.

    The blocks ``<block>/<column>`` of a column are its leading chunks in
    order of block name; the array named ``<column>``, if present, is the
    open tail that follows them. Arrays without blocks pass through as
    they are, so a layout that never had blocks loads unchanged.
    """
    blocked = sorted(
        (tuple(name.split(BLOCK_SEPARATOR, 1)), name)
        for name in arrays
        if BLOCK_SEPARATOR in name
    )
    if not blocked:
        return arrays
    out = {k: v for k, v in arrays.items() if BLOCK_SEPARATOR not in k}
    chunks: dict[str, list[np.ndarray]] = {}
    for (_, column), name in blocked:
        chunks.setdefault(column, []).append(arrays[name])
    for column, parts in chunks.items():
        if column in out:
            parts.append(out[column])
        out[column] = np.concatenate(parts)
    return out


def _segment_refs(meta: dict[str, Any]) -> list[dict[str, Any]]:
    """References of every segment a checkpoint's metadata names."""
    refs = [meta["segment"]] if meta.get("segment") is not None else []
    return refs + list(meta.get("segments", {}).values())


# The group of the solver-state segment; block groups are named by the
# part of their arrays' names before BLOCK_SEPARATOR.
_STATE = ""


def _group(name: str) -> str | None:
    """Segment group of the array *name* (None: it stays in the checkpoint)."""
    if BLOCK_SEPARATOR in name:
        block = name.split(BLOCK_SEPARATOR, 1)[0]
        if not _BLOCK_RE.match(block):
            raise PersistenceError(f"array {name!r}: invalid block name {block!r}")
        return block
    if name in SEGMENT_ARRAYS or name.startswith(SEGMENT_PREFIX):
        return _STATE
    return None


def _split(
    arrays: dict[str, np.ndarray],
) -> tuple[dict[str, dict[str, np.ndarray]], dict[str, np.ndarray]]:
    """*arrays* sorted into segment groups, and those left for the checkpoint."""
    groups: dict[str, dict[str, np.ndarray]] = {}
    kept: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        group = _group(name)
        if group is None:
            kept[name] = arr
        elif group in groups:
            groups[group][name] = arr
        else:
            groups[group] = {name: arr}
    return groups, kept


def _mirror_files(name: str) -> frozenset[str]:
    return frozenset(f"{name}.{mirror}.seg" for mirror in SEGMENT_MIRRORS)


class CheckpointStore:
    """A directory of numbered checkpoints with retention and fallback.

    Files are named ``ckpt-<seq>.ckpt`` with a monotonically increasing
    sequence number. :meth:`save` moves segment arrays out of the
    checkpoint: the solver-state arrays (see :data:`SEGMENT_ARRAYS`) into a
    mirrored pair ``seg-<seq>.a.seg`` / ``seg-<seq>.b.seg``, and each
    block (arrays named ``<block>/<column>``) into a pair
    ``seg-<seq>-<block>.a.seg`` / ``.b.seg``. The checkpoint's metadata
    names them; a later save whose arrays for a segment are the same
    read-only objects names that pair again instead of writing a new one.
    :meth:`save` keeps the newest *keep* checkpoints and the segments they
    name, and :meth:`find_latest` walks newest → oldest skipping anything
    that fails verification — the fallback path recovery relies on.

    The store is the directory's single writer: its first :meth:`save`
    reads the directory's files and numbers, later ones keep track of the
    files they write and delete, and list the directory only to check that
    the segments they name again are still there.
    """

    def __init__(
        self, directory: str | os.PathLike, *, keep: int = 3, fsync: bool = False
    ) -> None:
        if int(keep) < 1:
            raise PersistenceError("keep must be >= 1")
        self.directory = os.fspath(directory)
        self.keep = int(keep)
        self.fsync = bool(fsync)
        #: Whether the last :meth:`save` wrote its solver-state segment
        #: (False: it named an existing one; None: it had no such arrays).
        self.segment_written: bool | None = None
        #: How many block segments the last :meth:`save` wrote.
        self.blocks_written = 0
        # Group -> (arrays, reference, file names) of the segments the last
        # save named that may be named again: their arrays are held so
        # their ids cannot be recycled. _named maps each of those arrays'
        # names to the array.
        self._written: dict[
            str, tuple[dict[str, np.ndarray], dict[str, Any], frozenset[str]]
        ] = {}
        self._named: dict[str, np.ndarray] = {}
        # Checkpoint path -> file names of the segments it names.
        self._names: dict[str, frozenset[str]] = {}
        # What the directory holds, from the first save on: checkpoint
        # paths (oldest first), segment file names, and the next sequence
        # number.
        self._ckpts: list[str] | None = None
        self._segment_files: set[str] = set()
        self._seq = 0
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
        return max((seq for seq, _ in ckpts + segments), default=-1) + 1

    def save(self, arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> str:
        """Write the next checkpoint (and its segments, unless already
        written); prune checkpoints beyond the retention limit and unnamed
        segments."""
        if self._ckpts is None:
            ckpts, segments = self._files()
            self._ckpts = [path for _, path in ckpts]
            self._segment_files = {os.path.basename(path) for _, path in segments}
            self._seq = max((seq for seq, _ in ckpts + segments), default=-1) + 1
        seq = self._seq
        self._seq += 1
        path = os.path.join(self.directory, f"ckpt-{seq:08d}.ckpt")
        present = set(os.listdir(self.directory)) if self._written else set()
        # A segment written before is named again while every one of its
        # arrays comes again as the same read-only object and both its
        # files are there. Only arrays that are not such an object are
        # sorted into segments, so a save does not look again at each
        # array of each sealed block.
        named = self._named
        rest = {
            name: arr
            for name, arr in arrays.items()
            if named.get(name) is not arr or arr.flags.writeable
        }
        fresh, kept = _split(rest)
        stale = set(fresh)
        if len(arrays) - len(rest) != len(named):  # a named array is gone
            stale.update(
                group
                for group, (members, _, _) in self._written.items()
                if any(arrays.get(name) is not arr for name, arr in members.items())
            )
        refs: dict[str, dict[str, Any]] = {}
        files: list[frozenset[str]] = []
        for group, (_, ref, group_files) in self._written.items():
            if group in stale or not group_files <= present:
                stale.add(group)  # changed, or removed behind the store's back
            else:
                refs[group] = ref
                files.append(group_files)
        written: set[str] = set()
        for group in stale:
            old = self._written.get(group, ({}, None, None))[0]
            members = {name: arrays[name] for name in old if name in arrays}
            members.update(fresh.get(group, {}))
            if members:
                refs[group], group_files = self._write_segment(seq, group, members)
                files.append(group_files)
                written.add(group)
        if written or self._written.keys() - refs.keys():
            self._written = {g: w for g, w in self._written.items() if g in refs}
            self._named = {
                name: arr
                for members, _, _ in self._written.values()
                for name, arr in members.items()
            }
        self.segment_written = (_STATE in written) if _STATE in refs else None
        self.blocks_written = len(written - {_STATE})
        meta = dict(meta)
        if _STATE in refs:
            meta["segment"] = refs[_STATE]
        blocks = {g: ref for g, ref in refs.items() if g != _STATE}
        if blocks:
            meta["segments"] = blocks
        write_checkpoint(path, kept, meta, fsync=self.fsync)
        self._ckpts.append(path)
        self._names[path] = frozenset().union(*files)
        self._prune()
        return path

    def _segment_path(self, name: str, mirror: str) -> str:
        return os.path.join(self.directory, f"{name}.{mirror}.seg")

    def _write_segment(
        self, seq: int, group: str, members: dict[str, np.ndarray]
    ) -> tuple[dict[str, Any], frozenset[str]]:
        name = f"seg-{seq:08d}" + (f"-{group}" if group != _STATE else "")
        pieces = _encode_payload(members, {"segment": name})
        for mirror in SEGMENT_MIRRORS:
            length, crc = _atomic_write(
                self._segment_path(name, mirror), pieces, self.fsync
            )
        ref = {"name": name, "crc": crc, "length": length}
        files = _mirror_files(name)
        self._segment_files |= files
        # Only arrays read-only since they were written can be named again.
        if any(arr.flags.writeable for arr in members.values()):
            self._written.pop(group, None)
        else:
            self._written[group] = (members, ref, files)
        return ref, files

    def _segment_names(self, path: str) -> frozenset[str]:
        """File names of the segments *path* names (none if it is unreadable)."""
        if path not in self._names:
            try:
                refs = _segment_refs(read_checkpoint(path).meta)
            except (CheckpointCorruption, OSError):
                refs = []
            self._names[path] = frozenset().union(
                *(_mirror_files(ref["name"]) for ref in refs)
            )
        return self._names[path]

    def _prune(self) -> None:
        """Delete all but the newest *keep* checkpoints, then every segment
        file that no remaining checkpoint names."""
        for old in self._ckpts[: -self.keep]:
            self._names.pop(old, None)
            try:
                os.unlink(old)
            except OSError:
                pass
        del self._ckpts[: -self.keep]
        named = frozenset().union(*(self._segment_names(p) for p in self._ckpts))
        for stale in self._segment_files - named:
            self._segment_files.discard(stale)
            try:
                os.unlink(os.path.join(self.directory, stale))
            except OSError:
                pass

    def _read_segment(self, ref: dict[str, Any], path: str) -> dict[str, np.ndarray]:
        """Arrays of the first mirror of *ref* that verifies against it."""
        problems = []
        for mirror in SEGMENT_MIRRORS:
            seg_path = self._segment_path(ref["name"], mirror)
            try:
                payload, crc = _read_payload(seg_path)
                if crc != ref["crc"] or len(payload) != ref["length"]:
                    raise CheckpointCorruption(
                        f"{seg_path}: not the segment {path} names"
                    )
                return _decode_payload(payload, seg_path)[0]
            except (CheckpointCorruption, OSError) as exc:
                problems.append(str(exc))
        raise CheckpointCorruption(
            f"{path}: no valid copy of segment {ref['name']}: " + "; ".join(problems)
        )

    def _load(self, path: str, check: Callable[[dict, str], None] | None) -> Checkpoint:
        """Read *path*, run *check* on its metadata, resolve its segments
        and join its blocks."""
        ckpt = read_checkpoint(path)
        if check is not None:
            check(ckpt.meta, path)
        arrays = dict(ckpt.arrays)
        for ref in _segment_refs(ckpt.meta):
            arrays.update(self._read_segment(ref, path))
        meta = {k: v for k, v in ckpt.meta.items() if k not in ("segment", "segments")}
        return Checkpoint(arrays=join_blocks(arrays), meta=meta, path=path)

    def find_latest(
        self, check: Callable[[dict, str], None] | None = None
    ) -> tuple[Checkpoint | None, int]:
        """Newest checkpoint that verifies, segments resolved, plus how many
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
