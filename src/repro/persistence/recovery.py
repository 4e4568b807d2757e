"""Crash recovery: newest valid checkpoint + journal replay past it.

:func:`recover` is the read side of the persistence protocol:

1. Walk the checkpoint store newest → oldest
   (:meth:`~repro.persistence.checkpoint.CheckpointStore.find_latest`); the
   first checkpoint that passes magic/version/CRC/schema verification and
   whose segment has a valid mirror wins. Corrupt or half-written
   checkpoints are skipped — that is the fallback the atomic-rename writer
   and the retention window exist for.
2. Scan the journal (torn tail amputated by construction) and keep the
   records *past* the chosen checkpoint's ``journal_seq`` — operations the
   dead process had committed to but that are newer than the checkpoint.
3. Hand both to the caller (:meth:`TraceSession.resume`), which re-executes
   the tail records deterministically from the checkpointed state.

Because the journal is never truncated during a session, falling back to an
*older* checkpoint simply replays a longer tail — corruption costs replay
time, never state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import PersistenceError
from .checkpoint import CheckpointStore
from .journal import SnapshotJournal
from .state import check_schema

__all__ = ["JOURNAL_NAME", "RecoveredState", "recover"]

JOURNAL_NAME = "session.journal"


@dataclass(frozen=True)
class RecoveredState:
    """Everything :func:`recover` pulled off disk.

    ``pending`` holds the journal records newer than the checkpoint, in
    commit order — the operations to re-execute. ``fallbacks`` counts how
    many newer checkpoints had to be skipped as corrupt (0 on the happy
    path); ``discarded_tail_bytes`` is the size of the torn journal tail.
    """

    arrays: dict[str, np.ndarray]
    meta: dict[str, Any]
    checkpoint_path: str
    pending: tuple[dict[str, Any], ...]
    fallbacks: int
    discarded_tail_bytes: int


def journal_path(directory: str | os.PathLike) -> str:
    return os.path.join(os.fspath(directory), JOURNAL_NAME)


def recover(directory: str | os.PathLike) -> RecoveredState:
    """Load the newest recoverable session state from *directory*.

    Raises
    ------
    PersistenceError
        When the directory holds no checkpoint that passes verification.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise PersistenceError(f"no persistence directory at {directory!r}")
    chosen, fallbacks = CheckpointStore(directory).find_latest(check=check_schema)
    if chosen is None:
        raise PersistenceError(
            f"no valid checkpoint in {directory!r} "
            f"({fallbacks} file(s) failed verification)"
        )
    jpath = journal_path(directory)
    pending: tuple[dict[str, Any], ...] = ()
    discarded = 0
    if os.path.exists(jpath):
        scan = SnapshotJournal.scan(jpath)
        discarded = scan.discarded_bytes
        seq = int(chosen.meta["journal_seq"])
        pending = tuple(
            json.loads(p.decode("utf-8")) for p in scan.records[seq:]
        )
    return RecoveredState(
        arrays=chosen.arrays,
        meta=chosen.meta,
        checkpoint_path=chosen.path,
        pending=pending,
        fallbacks=fallbacks,
        discarded_tail_bytes=discarded,
    )
