"""Zero-copy trace transport between the fleet scheduler and its workers.

Shipping a :class:`~repro.cloudsim.trace.CalibrationTrace` to a worker by
pickling it copies ``2 * T * N * N`` float64s per batch — the dominant IPC
cost for realistic traces. Instead the scheduler writes each cluster's trace
into one :class:`multiprocessing.shared_memory.SharedMemory` segment *once*
and passes workers a tiny :class:`TraceBlockDescriptor` (name, shape and
the trace's SHA-256). Workers map the segment and hand the engine read-only
numpy views of it; no trace bytes ever cross a pipe, and no worker hashes
a trace.

Layout of a block (single contiguous segment)::

    [ alpha: T*N*N float64 | beta: T*N*N float64 | timestamps: T float64
      | mask: T*N*N uint8 (only when the trace has one) ]

``alpha``/``beta``/``timestamps`` views are genuinely zero-copy:
``CalibrationTrace.__post_init__`` calls ``np.ascontiguousarray`` which is a
no-op for these already-contiguous float64 views, then marks them read-only
— exactly the aliasing we want. The boolean mask is copied on construction
by the trace itself (it normalizes and re-diagonalizes), which is fine: the
mask is 1/16 the size of the measurement payload.
"""

from __future__ import annotations

from dataclasses import dataclass
import multiprocessing
from multiprocessing import resource_tracker, shared_memory
import os

import numpy as np

from ..cloudsim.trace import CalibrationTrace
from ..core.matrices import TPMatrix
from ..errors import FleetError, ValidationError

__all__ = [
    "SharedStackBlock",
    "SharedTraceBlock",
    "StackBlockDescriptor",
    "TraceBlockDescriptor",
]


def _unregister_attached(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    """Deregister a worker-side attach from the resource tracker.

    CPython's SharedMemory registers *every* handle with a resource
    tracker. Under spawn the attaching child runs its *own* tracker,
    which at child exit "cleans up" — i.e. destroys — a segment the
    scheduler still owns, so the attach must be deregistered. Under
    fork the tracker process is shared with the creator: registration
    is idempotent there, and unregistering would strip the *owner's*
    entry instead. The same holds for an attach in the creating process
    itself, whatever the start method (``None`` until a process picks
    one). Ownership is strictly creator-side either way.
    """
    if creator_pid == os.getpid():
        return
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass


@dataclass(frozen=True, slots=True)
class TraceBlockDescriptor:
    """Pickle-cheap handle for a shared trace block (name + geometry + digest).

    ``sha256`` is the trace's
    :attr:`~repro.cloudsim.trace.CalibrationTrace.sha256`, handed to every
    view of the block so that no attaching process hashes it again.
    ``creator_pid`` is the owner's process id.
    """

    name: str
    n_snapshots: int
    n_machines: int
    has_mask: bool
    sha256: str
    creator_pid: int = 0

    @property
    def nbytes(self) -> int:
        cube = self.n_snapshots * self.n_machines * self.n_machines
        total = (2 * cube + self.n_snapshots) * 8
        if self.has_mask:
            total += cube
        return total


class SharedTraceBlock:
    """A calibration trace resident in one shared-memory segment.

    The creating process (the scheduler) owns the segment and must call
    :meth:`unlink` when the fleet run ends; attaching processes (workers)
    only :meth:`close` their mapping. Use as a context manager for the
    owner side.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        descriptor: TraceBlockDescriptor,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self._owner = owner
        self._closed = False

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, trace: CalibrationTrace) -> "SharedTraceBlock":
        """Copy *trace* into a fresh shared-memory segment (owner side)."""
        geometry = dict(
            n_snapshots=trace.n_snapshots,
            n_machines=trace.n_machines,
            has_mask=trace.mask is not None,
            sha256=trace.sha256,
        )
        size = TraceBlockDescriptor(name="", **geometry).nbytes
        shm = shared_memory.SharedMemory(create=True, size=size)
        descriptor = TraceBlockDescriptor(
            name=shm.name, creator_pid=os.getpid(), **geometry
        )
        block = cls(shm, descriptor, owner=True)
        alpha, beta, ts, mask = block._views()
        alpha[...] = trace.alpha
        beta[...] = trace.beta
        ts[...] = trace.timestamps
        if mask is not None:
            mask[...] = trace.mask.astype(np.uint8)
        return block

    @classmethod
    def attach(cls, descriptor: TraceBlockDescriptor) -> "SharedTraceBlock":
        """Map an existing segment (worker side); never takes ownership."""
        try:
            shm = shared_memory.SharedMemory(name=descriptor.name)
        except FileNotFoundError as exc:
            raise FleetError(
                f"shared trace block {descriptor.name!r} is gone "
                "(scheduler unlinked it early?)"
            ) from exc
        _unregister_attached(shm, descriptor.creator_pid)
        return cls(shm, descriptor, owner=False)

    # -- access --------------------------------------------------------

    def _views(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        if self._closed:
            raise FleetError("shared trace block is closed")
        d = self.descriptor
        t, n = d.n_snapshots, d.n_machines
        cube = t * n * n
        buf = self._shm.buf
        alpha = np.ndarray((t, n, n), dtype=np.float64, buffer=buf, offset=0)
        beta = np.ndarray((t, n, n), dtype=np.float64, buffer=buf, offset=cube * 8)
        ts = np.ndarray((t,), dtype=np.float64, buffer=buf, offset=2 * cube * 8)
        mask = None
        if d.has_mask:
            mask = np.ndarray(
                (t, n, n), dtype=np.uint8, buffer=buf, offset=(2 * cube + t) * 8
            )
        return alpha, beta, ts, mask

    def trace(self) -> CalibrationTrace:
        """Rebuild the trace as read-only views over the segment.

        The returned trace aliases this block's memory: keep the block
        open for as long as the trace (or any session built on it) lives.
        It holds the creator's trace byte for byte, so its ``sha256`` is
        the descriptor's, filled in rather than computed again.
        """
        alpha, beta, ts, mask = self._views()
        trace = CalibrationTrace(
            alpha=alpha,
            beta=beta,
            timestamps=ts,
            mask=None if mask is None else mask.astype(bool),
        )
        vars(trace)["sha256"] = self.descriptor.sha256  # the cached_property's slot
        return trace

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (safe to call twice)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment. Owner side only; implies :meth:`close`."""
        if not self._owner:
            raise FleetError("only the creating process may unlink a trace block")
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedTraceBlock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


@dataclass(frozen=True, slots=True)
class StackBlockDescriptor:
    """Pickle-cheap handle for a shared TP-matrix stack (name + geometry).

    ``creator_pid`` is the owner's process id.
    """

    name: str
    batch: int
    rows: int
    cols: int
    n_machines: int
    has_mask: bool
    creator_pid: int = 0

    @property
    def nbytes(self) -> int:
        cube = self.batch * self.rows * self.cols
        total = cube * 8 + self.batch * self.rows * 8
        if self.has_mask:
            total += cube
        return total


class SharedStackBlock:
    """A stack of same-shape TP-matrices resident in one shared segment.

    The sweep transport: the scheduler writes one shard's worth of
    TP-matrix windows — ``(B, m, n)`` data, per-row timestamps and (when any
    window is partially observed) per-slice observation masks — into a
    single segment; the worker maps views and solves the shard's windows
    one after another. Layout::

        [ data: B*m*n float64 | timestamps: B*m float64
          | mask: B*m*n uint8 (only when some window has one) ]

    Round-tripping through the segment is bit-exact for float64, so a shard
    solved from an attached block is bit-identical to one solved from the
    scheduler's in-process TP-matrices. Ownership follows
    :class:`SharedTraceBlock`: creator unlinks, attachers only close.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        descriptor: StackBlockDescriptor,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self._owner = owner
        self._closed = False

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, tps: list[TPMatrix] | tuple[TPMatrix, ...]) -> "SharedStackBlock":
        """Copy a shape-homogeneous shard of TP-matrices into a fresh segment."""
        if not tps:
            raise ValidationError("a stack block needs at least one TP-matrix")
        m, n = tps[0].data.shape
        n_machines = tps[0].n_machines
        for i, tp in enumerate(tps):
            if tp.data.shape != (m, n) or tp.n_machines != n_machines:
                raise ValidationError(
                    f"tps[{i}] has shape {tp.data.shape} "
                    f"(n_machines={tp.n_machines}); a stack must be "
                    f"shape-homogeneous with shape ({m}, {n})"
                )
        has_mask = any(tp.mask is not None for tp in tps)
        probe = StackBlockDescriptor(
            name="", batch=len(tps), rows=m, cols=n,
            n_machines=n_machines, has_mask=has_mask,
        )
        shm = shared_memory.SharedMemory(create=True, size=probe.nbytes)
        descriptor = StackBlockDescriptor(
            name=shm.name, batch=len(tps), rows=m, cols=n,
            n_machines=n_machines, has_mask=has_mask, creator_pid=os.getpid(),
        )
        block = cls(shm, descriptor, owner=True)
        data, ts, mask = block._views()
        for i, tp in enumerate(tps):
            data[i] = tp.data
            ts[i] = tp.timestamps
            if mask is not None:
                # Fully-observed slices in a partially-observed shard ride
                # as all-ones masks; TPMatrix normalizes them back to None
                # on the far side, so both sides solve the unmasked path.
                mask[i] = 1 if tp.mask is None else tp.mask.astype(np.uint8)
        return block

    @classmethod
    def attach(cls, descriptor: StackBlockDescriptor) -> "SharedStackBlock":
        """Map an existing segment (worker side); never takes ownership."""
        try:
            shm = shared_memory.SharedMemory(name=descriptor.name)
        except FileNotFoundError as exc:
            raise FleetError(
                f"shared stack block {descriptor.name!r} is gone "
                "(scheduler unlinked it early?)"
            ) from exc
        _unregister_attached(shm, descriptor.creator_pid)
        return cls(shm, descriptor, owner=False)

    # -- access --------------------------------------------------------

    def _views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        if self._closed:
            raise FleetError("shared stack block is closed")
        d = self.descriptor
        cube = d.batch * d.rows * d.cols
        buf = self._shm.buf
        data = np.ndarray(
            (d.batch, d.rows, d.cols), dtype=np.float64, buffer=buf, offset=0
        )
        ts = np.ndarray(
            (d.batch, d.rows), dtype=np.float64, buffer=buf, offset=cube * 8
        )
        mask = None
        if d.has_mask:
            mask = np.ndarray(
                (d.batch, d.rows, d.cols), dtype=np.uint8, buffer=buf,
                offset=cube * 8 + d.batch * d.rows * 8,
            )
        return data, ts, mask

    def tp_matrices(self) -> list[TPMatrix]:
        """Rebuild the shard as TP-matrices viewing the segment.

        The returned matrices alias this block's memory: keep the block
        open for as long as they (or a solve over them) live.
        """
        data, ts, mask = self._views()
        d = self.descriptor
        out: list[TPMatrix] = []
        for i in range(d.batch):
            out.append(
                TPMatrix(
                    data=data[i],
                    n_machines=d.n_machines,
                    timestamps=ts[i],
                    mask=None if mask is None else mask[i].astype(bool),
                )
            )
        return out

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (safe to call twice)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment. Owner side only; implies :meth:`close`."""
        if not self._owner:
            raise FleetError("only the creating process may unlink a stack block")
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedStackBlock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()
