"""One value for every knob that decides how a re-calibration solve runs.

Algorithm 1's re-calibration is one RPCA solve. :class:`SolveOptions` holds
the two settings that shape it and checks them, once, when it is built.
Everything that runs or records a solve reads this value instead of
carrying the fields itself: the
:class:`~repro.core.engine.DecompositionEngine` takes it, a session's
checkpoint writes it with :meth:`SolveOptions.to_meta` and reads it back
with :meth:`SolveOptions.from_meta`, and
:class:`~repro.runtime.config.SessionConfig` and
:class:`~repro.fleet.FleetConfig` extend it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

from ..errors import ValidationError
from .solvers import resolve_solver, solver_spec
from .streaming import StreamingConfig, validate_mode

__all__ = ["SolveOptions"]

# Recorded SVD backends whose solves the one solver loop still reproduces:
# it runs the Gram kernel on any window of at most 64 snapshots, as those
# sessions did.
_SAME_LOOP_BACKENDS = ("auto", "gram")


@dataclass(frozen=True)
class SolveOptions:
    """How Algorithm 1's re-calibration solves run.

    Attributes
    ----------
    solver:
        Registered RPCA solver (see
        :func:`~repro.core.solvers.available_solvers`; default ``"ialm"``,
        the paper's method). IALM chooses its SVT kernel from the window's
        shape (see :mod:`repro.core.kernels`). Every solve is cold. The
        legacy name ``"apg"`` resolves to ``"ialm"`` with a
        ``RuntimeWarning`` (:func:`~repro.core.solvers.resolve_solver`).
    mode:
        ``"batch"`` (default) re-solves the whole window at every
        re-calibration. ``"streaming"`` folds each new snapshot into the
        decomposition in O(row) (see
        :class:`~repro.core.streaming.StreamingDecomposer`) and falls back
        to a cold batch solve, bit-identical to
        :func:`~repro.core.decompose.decompose` on the same window, on rank
        growth, drift or a masked snapshot. Its constants live in
        :class:`~repro.core.streaming.StreamingConfig`.

    Both are checked at construction (each failure is a
    :class:`~repro.errors.ValidationError`): *solver* must be registered
    (after legacy names are resolved) and *mode* known.
    """

    solver: str = "ialm"
    mode: str = "batch"

    def __post_init__(self) -> None:
        # Attributed to whoever built the options (past the generated
        # __init__).
        object.__setattr__(self, "solver", resolve_solver(self.solver, stacklevel=3))
        try:
            solver_spec(self.solver)
        except ValueError as exc:  # the registry's unknown-name error
            raise ValidationError(str(exc)) from None
        validate_mode(self.mode)

    def to_meta(self) -> dict[str, Any]:
        """The options as a checkpoint's ``config`` keys."""
        return {"solver": self.solver, "mode": self.mode}

    @classmethod
    def from_meta(cls, config: dict[str, Any]) -> "SolveOptions":
        """The options a checkpoint's ``config`` block records.

        Reads blocks written by any release. A recorded ``warm_start`` is
        ignored (every solve is cold now), and a recorded ``"apg"`` solver
        resumes on IALM with one ``RuntimeWarning`` (see
        :func:`~repro.core.solvers.resolve_solver`). A recorded
        ``svd_backend`` is ignored, as is an ``elementwise_backend``: each
        solver has one loop now. A session recorded under ``"auto"`` or
        ``"gram"`` ran that loop on the Gram kernel and resumes unchanged;
        any other value (``"exact"``, the old default, ran a plain loop)
        resumes with a ``RuntimeWarning``. A block without the key was
        written either by this release or before the kernel layer existed;
        the two cannot be told apart, so it resumes silently. A block
        without ``mode`` (before the streaming path) means batch.

        The retired ``stream_tolerance``/``stream_refresh_every`` keys are
        ignored: a session resumes on the
        :class:`~repro.core.streaming.StreamingConfig` constants. A
        recorded value other than the constant's resumes with a
        single ``RuntimeWarning``, since that run's folds and fallbacks may
        differ from the original's; ``None`` (a batch session) and the
        constant itself resume silently.
        """
        backend = config.get("svd_backend")
        if backend is not None and backend not in _SAME_LOOP_BACKENDS:
            warnings.warn(
                f"this session was written with svd_backend={backend!r}; "
                "sessions no longer choose an SVD backend, so it resumes on "
                "the one solver loop with the shape-chosen ('auto') SVT "
                "kernel, and its re-calibrations may no longer match the "
                "original run",
                RuntimeWarning,
                stacklevel=4,
            )
        stream = StreamingConfig()
        retired = {
            key: config[key]
            for key, constant in (
                ("stream_tolerance", stream.tolerance),
                ("stream_refresh_every", stream.refresh_every),
            )
            if config.get(key) is not None and config[key] != constant
        }
        if retired:
            warnings.warn(
                f"this session was written with {retired}; the stream knobs "
                "have been retired, so it resumes on the StreamingConfig "
                "constants, and its folds and fallbacks may no longer match "
                "the original run",
                RuntimeWarning,
                stacklevel=4,
            )
        return cls(solver=config["solver"], mode=config.get("mode", "batch"))
