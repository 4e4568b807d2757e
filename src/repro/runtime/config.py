"""Session configuration: the solve options plus the maintenance loop's own.

:class:`SessionConfig` extends :class:`~repro.core.options.SolveOptions`
and is itself extended by :class:`~repro.fleet.FleetConfig`, so each setting
is declared and checked in one place. :meth:`SessionConfig.session_kwargs`
is the one mapping from these fields to
:class:`~repro.runtime.session.TraceSession` keywords.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .._validation import check_positive
from ..core.detectors import validate_regime_detector
from ..core.options import SolveOptions
from ..errors import ValidationError

__all__ = ["SessionConfig"]

_MB = 1024 * 1024


@dataclass(frozen=True)
class SessionConfig(SolveOptions):
    """Settings for :func:`~repro.api.open_session` (paper defaults throughout).

    The first four fields are :class:`~repro.core.options.SolveOptions`
    (solver, batch or streaming mode and the two stream knobs), with their
    rules. The rest:

    ``nbytes`` is the message size for calibration weights and collectives,
    ``window`` the calibration window length, ``threshold`` the maintenance
    threshold and ``consecutive`` how many above-threshold observations in
    a row trigger a re-calibration. ``regime_detector`` enables online
    regime-shift detection: the name of a registered detector
    (``"cusum"``, ``"signature"``, ``"noise-robust"``, ``"drift"`` — see
    :func:`repro.core.detectors.detector_names`), with ``regime_params`` as
    config overrides for it. ``None`` (the default) keeps the detector-free
    maintenance loop.
    """

    nbytes: float = 8.0 * _MB
    window: int = 10
    threshold: float = 1.0
    consecutive: int = 1
    regime_detector: str | None = None
    regime_params: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("window", "consecutive"):
            if int(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be >= 1")
        check_positive(self.nbytes, "nbytes")
        if self.threshold < 0:
            raise ValidationError("threshold must be >= 0")
        validate_regime_detector(self.regime_detector, self.regime_params)

    def session_kwargs(self) -> dict[str, Any]:
        """These settings as :class:`~repro.runtime.session.TraceSession` keywords."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(SolveOptions)},
            "nbytes": self.nbytes,
            "time_step": self.window,
            "threshold": self.threshold,
            "consecutive": self.consecutive,
            "regime": self.regime_detector,
            "regime_params": self.regime_params,
        }
