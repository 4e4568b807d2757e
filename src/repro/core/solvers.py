"""Solver registry: one dispatch point for every RPCA backend.

Every registered solver shares the concrete contract ``a → SolverResult``
(see :mod:`repro.core.result`). Each registration carries a
:class:`SolverSpec` of capability metadata — whether its low-rank output is
exactly row-constant, and which keyword arguments it accepts — so
:func:`solve_rpca` can reject unsupported kwargs up front instead of
silently swallowing them (historically ``decompose(tp, solver="pca",
tol=...)`` dropped ``tol`` on the floor).

:func:`solve_rpca` is also the instrumentation boundary: every dispatch
emits a :class:`~repro.observability.SolveSpan` (iterations, residual, rank,
wall time) into any active :class:`~repro.observability.Instrumentation`
sink.

Legacy names: ``"apg"`` named an accelerated-proximal-gradient solver for
the same program, retired for IALM (faster, and closer to optimal by
:func:`~repro.core.result.certify`). :func:`resolve_solver` maps it to
``"ialm"`` with a ``RuntimeWarning``; every surface that takes a solver name
goes through it.
"""

from __future__ import annotations

import inspect
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .. import observability
from .ialm import rpca_ialm
from .pca import pca_rank1_decomposition
from .result import SolverResult
from .row_constant import row_constant_decomposition

__all__ = [
    "RPCAResult",
    "SolverSpec",
    "solve_rpca",
    "available_solvers",
    "register_solver",
    "resolve_solver",
    "solver_spec",
]

# Backward-compatible alias for the old duck-typed protocol name.
RPCAResult = SolverResult


@dataclass(frozen=True)
class SolverSpec:
    """Capability metadata for one registered solver.

    Attributes
    ----------
    name:
        Registry name.
    fn:
        The solver callable ``(a, **kwargs) -> SolverResult``.
    exact_row_constant:
        Whether ``fn`` returns a result whose ``low_rank`` is exactly
        row-constant (``constant_row`` is set), so no extraction is needed.
    accepted_kwargs:
        Keyword names ``fn`` accepts; used to validate calls.
    accepts_any_kwargs:
        True when ``fn`` takes ``**kwargs`` — validation is skipped.
    """

    name: str
    fn: Callable[..., SolverResult]
    exact_row_constant: bool = False
    accepted_kwargs: frozenset[str] = field(default_factory=frozenset)
    accepts_any_kwargs: bool = False

    def validate_kwargs(self, kwargs: dict[str, Any]) -> None:
        """Raise ``TypeError`` on kwargs the solver does not accept."""
        if self.accepts_any_kwargs:
            return
        unsupported = sorted(set(kwargs) - self.accepted_kwargs)
        if unsupported:
            accepted = ", ".join(sorted(self.accepted_kwargs)) or "none"
            raise TypeError(
                f"solver {self.name!r} does not accept keyword(s) "
                f"{unsupported}; accepted: {accepted}"
            )


def _introspect_kwargs(fn: Callable[..., Any]) -> tuple[frozenset[str], bool]:
    """Keyword names *fn* accepts beyond its first positional (data) argument."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins / C callables: trust the caller
        return frozenset(), True
    names: list[str] = []
    any_kwargs = False
    params = list(sig.parameters.values())
    for i, p in enumerate(params):
        if p.kind is inspect.Parameter.VAR_KEYWORD:
            any_kwargs = True
        elif p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            if i == 0:  # the data-matrix argument
                continue
            names.append(p.name)
    return frozenset(names), any_kwargs


_SOLVERS: dict[str, SolverSpec] = {}

#: Retired solver names and the registered solver each now resolves to.
_LEGACY_NAMES = {"apg": "ialm"}


def resolve_solver(name: str, *, stacklevel: int = 2) -> str:
    """The registered name *name* stands for, warning if it is a legacy one.

    ``"apg"`` resolves to ``"ialm"`` with one ``RuntimeWarning``, attributed
    *stacklevel* frames up from the caller; any other name is returned
    unchanged (unknown names are left to :func:`solver_spec` to reject).
    """
    target = _LEGACY_NAMES.get(name) if isinstance(name, str) else None
    if target is None:
        return name
    warnings.warn(
        f"solver {name!r} has been retired; solving with {target!r}, the "
        "paper's IALM method, instead (answers may differ from the "
        "original run's by about 1e-2 relative)",
        RuntimeWarning,
        stacklevel=stacklevel + 1,
    )
    return target


def available_solvers() -> tuple[str, ...]:
    """Names accepted by :func:`solve_rpca`, in registration order."""
    return tuple(_SOLVERS)


def solver_spec(name: str) -> SolverSpec:
    """The :class:`SolverSpec` registered under *name*."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown RPCA solver {name!r}; available: {sorted(_SOLVERS)}"
        ) from None


def register_solver(
    name: str,
    fn: Callable[..., SolverResult],
    *,
    overwrite: bool = False,
    exact_row_constant: bool = False,
    accepted_kwargs: tuple[str, ...] | frozenset[str] | None = None,
) -> SolverSpec:
    """Register a custom solver under *name*.

    Parameters
    ----------
    name:
        Non-empty registry name. Re-using an existing name raises
        ``ValueError`` unless *overwrite* is true.
    fn:
        Callable ``(a, **kwargs) -> SolverResult``.
    overwrite:
        Allow replacing an existing registration.
    exact_row_constant:
        Declare that *fn* returns an exactly row-constant ``low_rank``
        (with ``constant_row`` set).
    accepted_kwargs:
        Keyword names *fn* accepts. Default: introspected from its
        signature (a ``**kwargs`` parameter disables validation).
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"solver name must be a non-empty string, got {name!r}")
    if not callable(fn):
        raise TypeError("solver must be callable")
    if name in _SOLVERS and not overwrite:
        raise ValueError(
            f"solver {name!r} is already registered; pass overwrite=True to replace"
        )
    if accepted_kwargs is None:
        kwargs_names, any_kwargs = _introspect_kwargs(fn)
    else:
        kwargs_names, any_kwargs = frozenset(accepted_kwargs), False
    spec = SolverSpec(
        name=name,
        fn=fn,
        exact_row_constant=exact_row_constant,
        accepted_kwargs=kwargs_names,
        accepts_any_kwargs=any_kwargs,
    )
    _SOLVERS[name] = spec
    return spec


register_solver("ialm", rpca_ialm)
register_solver("row_constant", row_constant_decomposition, exact_row_constant=True)
# Non-robust straw man for the paper's PCA-vs-RPCA motivation (Sec II-B).
register_solver("pca", pca_rank1_decomposition, exact_row_constant=True)


def solve_rpca(
    a: np.ndarray, solver: str = "ialm", *, context: str = "", **kwargs: Any
) -> SolverResult:
    """Run the named RPCA solver on data matrix *a*.

    Parameters
    ----------
    a:
        Data matrix.
    solver:
        One of :func:`available_solvers` (default ``"ialm"``, the paper's
        method), or a legacy name (see :func:`resolve_solver`).
    context:
        Free-form label recorded on the instrumentation span (who asked).
    **kwargs:
        Forwarded to the solver (``lam``, ``tol``, ``max_iter``,
        ``mask``, ...). Keywords the solver does not accept raise
        ``TypeError`` instead of being silently dropped.
    """
    solver = resolve_solver(solver)
    spec = solver_spec(solver)
    spec.validate_kwargs(kwargs)
    start = time.perf_counter()
    result = spec.fn(a, **kwargs)
    elapsed = time.perf_counter() - start
    if observability.active():
        shape = np.shape(a)
        observability.emit_span(
            observability.SolveSpan(
                solver=solver,
                rows=int(shape[0]) if len(shape) > 0 else 0,
                cols=int(shape[1]) if len(shape) > 1 else 0,
                iterations=int(getattr(result, "iterations", 0)),
                rank=int(getattr(result, "rank", 0)),
                residual=float(getattr(result, "residual", 0.0)),
                converged=bool(getattr(result, "converged", False)),
                seconds=elapsed,
                context=context,
            )
        )
    return result
