"""Solver registry: one dispatch point for every RPCA backend.

Every registered solver shares the concrete contract ``a → SolverResult``
(see :mod:`repro.core.result`). Each registration carries a
:class:`SolverSpec` of capability metadata — whether the backend supports
warm starts, whether its low-rank output is exactly row-constant, and which
keyword arguments it accepts — so :func:`solve_rpca` can reject unsupported
kwargs up front instead of silently swallowing them (historically
``decompose(tp, solver="pca", tol=...)`` dropped ``tol`` on the floor).

:func:`solve_rpca` is also the instrumentation boundary: every dispatch
emits a :class:`~repro.observability.SolveSpan` (iterations, residual, rank,
warm-vs-cold, wall time) into any active
:class:`~repro.observability.Instrumentation` sink.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .. import observability
from .apg import rpca_apg
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
    supports_warm_start:
        Whether ``fn`` accepts a ``warm_start`` keyword (previous solution
        used to initialize the iterates).
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
    supports_warm_start: bool = False
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
    supports_warm_start: bool = False,
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
    supports_warm_start:
        Declare that *fn* accepts a ``warm_start`` keyword.
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
        supports_warm_start=supports_warm_start,
        exact_row_constant=exact_row_constant,
        accepted_kwargs=kwargs_names,
        accepts_any_kwargs=any_kwargs,
    )
    _SOLVERS[name] = spec
    return spec


register_solver("apg", rpca_apg, supports_warm_start=True)
# Cold-only: a warm-started IALM chain settles far from the cold answer
# (see repro.core.ialm, "Warm starts").
register_solver("ialm", rpca_ialm, supports_warm_start=False)
register_solver("row_constant", row_constant_decomposition, exact_row_constant=True)
# Non-robust straw man for the paper's PCA-vs-RPCA motivation (Sec II-B).
register_solver("pca", pca_rank1_decomposition, exact_row_constant=True)


def solve_rpca(
    a: np.ndarray, solver: str = "apg", *, context: str = "", **kwargs: Any
) -> SolverResult:
    """Run the named RPCA solver on data matrix *a*.

    Parameters
    ----------
    a:
        Data matrix.
    solver:
        One of :func:`available_solvers` (default ``"apg"``, the paper's
        choice).
    context:
        Free-form label recorded on the instrumentation span (who asked).
    **kwargs:
        Forwarded to the solver (``lam``, ``tol``, ``max_iter``,
        ``warm_start``, ...). Keywords the solver does not accept raise
        ``TypeError`` instead of being silently dropped.
    """
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
                warm=bool(getattr(result, "warm_started", False)),
                seconds=elapsed,
                context=context,
            )
        )
    return result
