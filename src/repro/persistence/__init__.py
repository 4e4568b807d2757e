"""Crash-safe durable state for long-running sessions.

The paper's Algorithm 1 is a loop with no notion of process death; this
subsystem makes a :class:`~repro.runtime.session.TraceSession` survive one.
Three layers, composed by the session when given a :class:`PersistenceConfig`:

* :mod:`~repro.persistence.journal` — a write-ahead operation journal
  (append-only, length+CRC32-framed, torn-tail tolerant). Every operation is
  committed *before* it executes.
* :mod:`~repro.persistence.checkpoint` — versioned, checksummed snapshots of
  full session state (the constant row in service and the snapshot keys
  of its window and of the row cache, health-machine and detector state,
  counters; rows and ``N_E`` are re-read from the trace) written
  atomically via temp file + rename, with retention of the last few
  files. Solver state and sealed blocks of the operation history are
  mirrored segments written once, so a checkpoint's cost does not grow
  with the session's age.
* :mod:`~repro.persistence.recovery` — :func:`~repro.persistence.recovery.recover`
  loads the newest checkpoint that verifies, falls back to older ones on
  corruption, and returns the journal records past it for deterministic
  replay.

:mod:`~repro.persistence.chaos` closes the loop: a kill-and-recover harness
that SIGKILLs a session subprocess mid-run and asserts the recovered session
converges to the same ``P_D`` as an uninterrupted one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import PersistenceError
from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from .journal import JournalScan, SnapshotJournal
from .recovery import JOURNAL_NAME, RecoveredState, journal_path, recover
from .state import (
    STATE_SCHEMA_VERSION,
    capture_session_state,
    decomposition_from_state,
    history_rows_from_state,
    trace_from_arrays,
    trace_sha256,
    trace_to_arrays,
)

__all__ = [
    "PersistenceConfig",
    "SnapshotJournal",
    "JournalScan",
    "Checkpoint",
    "CheckpointStore",
    "write_checkpoint",
    "read_checkpoint",
    "RecoveredState",
    "recover",
    "journal_path",
    "JOURNAL_NAME",
    "STATE_SCHEMA_VERSION",
    "capture_session_state",
    "decomposition_from_state",
    "history_rows_from_state",
    "trace_sha256",
    "trace_to_arrays",
    "trace_from_arrays",
]


@dataclass(frozen=True)
class PersistenceConfig:
    """How a session persists itself.

    Attributes
    ----------
    directory:
        Where the journal and checkpoints live. One directory per session.
    checkpoint_every:
        Write a full checkpoint every this many operations (the journal
        covers the gap in between). The initial calibration always writes
        checkpoint 0. The default balances the steady-state tax against
        the recovery blackout: a checkpoint costs a few operations' worth
        of wall time, and recovery replays at most this many journaled
        operations (well under a second at any realistic scale).
    keep_checkpoints:
        Retention window — how many checkpoint files to keep for corruption
        fallback.
    fsync:
        fsync journal appends and checkpoint writes. Not needed to survive
        SIGKILL (the page cache belongs to the kernel); needed to survive
        power loss. Default off.
    trace_path:
        Optional path of the trace file this session replays, recorded in
        checkpoint metadata so ``repro resume`` can reload it without being
        told where it came from.
    """

    directory: str | os.PathLike
    checkpoint_every: int = 100
    keep_checkpoints: int = 3
    fsync: bool = False
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if int(self.checkpoint_every) < 1:
            raise PersistenceError("checkpoint_every must be >= 1")
        if int(self.keep_checkpoints) < 1:
            raise PersistenceError("keep_checkpoints must be >= 1")
