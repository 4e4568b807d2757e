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
from ..errors import FleetError

__all__ = ["SharedTraceBlock", "TraceBlockDescriptor"]


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
