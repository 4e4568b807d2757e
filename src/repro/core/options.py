"""One value for every knob that decides how a re-calibration solve runs.

Algorithm 1's re-calibration is one RPCA solve. :class:`SolveOptions` holds
the six settings that shape it and checks how they combine, once, when it
is built. Everything that runs or records a solve reads this value instead
of carrying the six fields itself: the
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
from .kernels import validate_backend
from .solvers import solver_spec
from .streaming import StreamingConfig, validate_mode

__all__ = ["SolveOptions", "takes_svd_backend"]


def takes_svd_backend(solver: str) -> bool:
    """Whether the registered *solver* thresholds singular values (APG/IALM).

    Only such solvers accept an ``svd_backend`` keyword.
    """
    spec = solver_spec(solver)
    return spec.accepts_any_kwargs or "svd_backend" in spec.accepted_kwargs


@dataclass(frozen=True)
class SolveOptions:
    """How Algorithm 1's re-calibration solves run.

    Attributes
    ----------
    solver:
        Registered RPCA solver (see
        :func:`~repro.core.solvers.available_solvers`; default ``"apg"``).
    svd_backend:
        SVD kernel under the solver's singular value thresholding, one of
        :data:`~repro.core.kernels.SVD_BACKENDS`. ``"exact"`` (default) is
        the historical full SVD, bit-identical to earlier releases;
        ``"gram"`` eigendecomposes the short-side Gram matrix; ``"auto"``
        picks ``gram`` whenever the short side is at most 64 (TP-matrices
        always qualify).
    warm_start:
        Start each re-calibration solve from the previous window's
        solution (default on). Only solvers that support it (APG) are
        affected; turn it off to reproduce the cold-solve path bit for bit.
    mode:
        ``"batch"`` (default) re-solves the whole window at every
        re-calibration. ``"streaming"`` folds each new snapshot into the
        decomposition in O(row) (see
        :class:`~repro.core.streaming.StreamingDecomposer`) and falls back
        to a cold batch solve, bit-identical to
        :func:`~repro.core.decompose.decompose` on the same window, on rank
        growth, drift or a masked snapshot.
    stream_tolerance:
        Streaming drift ceiling; ``None`` uses
        :attr:`StreamingConfig.tolerance <repro.core.streaming.StreamingConfig>`.
    stream_refresh_every:
        Streaming re-orthonormalization cadence in folds; ``None`` uses
        :attr:`StreamingConfig.refresh_every <repro.core.streaming.StreamingConfig>`.

    The rules, checked at construction (each failure is a
    :class:`~repro.errors.ValidationError`):

    * *solver* is registered and *svd_backend* is a known backend;
    * a backend other than ``"exact"`` needs an SVT solver (APG/IALM) —
      ``"pca"`` and ``"row_constant"`` take only ``"exact"``;
    * the two stream knobs need ``mode="streaming"`` and are range-checked
      by :class:`~repro.core.streaming.StreamingConfig`.
    """

    solver: str = "apg"
    svd_backend: str = "exact"
    warm_start: bool = True
    mode: str = "batch"
    stream_tolerance: float | None = None
    stream_refresh_every: int | None = None

    def __post_init__(self) -> None:
        try:
            svt = takes_svd_backend(self.solver)
        except ValueError as exc:  # the registry's unknown-name error
            raise ValidationError(str(exc)) from None
        if validate_backend(self.svd_backend) != "exact" and not svt:
            raise ValidationError(
                f"solver {self.solver!r} does not take an SVD backend; "
                "only SVT-based solvers such as 'apg' or 'ialm' do"
            )
        if validate_mode(self.mode) != "streaming" and (
            self.stream_tolerance is not None or self.stream_refresh_every is not None
        ):
            raise ValidationError(
                "stream_tolerance/stream_refresh_every require mode='streaming'"
            )
        _ = self.stream_config  # StreamingConfig range-checks the knobs

    @property
    def stream_config(self) -> StreamingConfig:
        """The streaming path's configuration: defaults plus the two knobs."""
        overrides: dict[str, Any] = {}
        if self.stream_tolerance is not None:
            overrides["tolerance"] = float(self.stream_tolerance)
        if self.stream_refresh_every is not None:
            overrides["refresh_every"] = int(self.stream_refresh_every)
        return StreamingConfig(**overrides)

    def solver_kwargs(self) -> dict[str, Any]:
        """The solver keywords these options add to a solve.

        ``"exact"`` is every solver's own path and adds nothing, so solvers
        without SVT run unchanged.
        """
        if self.svd_backend == "exact":
            return {}
        return {"svd_backend": self.svd_backend}

    def to_meta(self) -> dict[str, Any]:
        """The options as a checkpoint's ``config`` keys.

        A streaming session records its resolved knobs (defaults filled
        in); a batch one records ``None`` for both.
        """
        streaming = self.mode == "streaming"
        stream = self.stream_config
        return {
            "solver": self.solver,
            "warm_start": bool(self.warm_start),
            "svd_backend": self.svd_backend,
            "mode": self.mode,
            "stream_tolerance": stream.tolerance if streaming else None,
            "stream_refresh_every": stream.refresh_every if streaming else None,
        }

    @classmethod
    def from_meta(cls, config: dict[str, Any]) -> "SolveOptions":
        """The options a checkpoint's ``config`` block records.

        Reads blocks written by any release: a missing ``svd_backend``
        (before the kernel layer) means ``"exact"``; the retired
        ``"randomized"`` backend resumes as ``"auto"`` with a
        ``RuntimeWarning``; an ``elementwise_backend`` key is ignored; a
        block without ``mode`` and the stream keys (before the streaming
        path) means batch.
        """
        backend = config.get("svd_backend", "exact")
        if backend == "randomized":
            warnings.warn(
                "this session was written with svd_backend='randomized', "
                "which no longer exists; it resumes with svd_backend='auto', "
                "so its re-calibrations no longer match the original run",
                RuntimeWarning,
                stacklevel=4,
            )
            backend = "auto"
        return cls(
            solver=config["solver"],
            svd_backend=backend,
            warm_start=bool(config["warm_start"]),
            mode=config.get("mode", "batch"),
            stream_tolerance=config.get("stream_tolerance"),
            stream_refresh_every=config.get("stream_refresh_every"),
        )
