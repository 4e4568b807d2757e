"""Pricing a task-to-machine mapping against a live network snapshot.

Two costs are reported:

* :func:`mapping_total_time` — the sum over task edges of the α-β transfer
  time of the hosting link. This is the standard volume-weighted dilation
  objective and the metric the experiment drivers use.
* :func:`mapping_bottleneck_time` — the slowest single edge, a congestion
  proxy.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_square_matrix
from ..errors import MappingError
from .taskgraph import TaskGraph

__all__ = ["mapping_total_time", "mapping_bottleneck_time", "bandwidth_from_weights"]


def _edge_times(
    task_graph: TaskGraph,
    mapping: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    check_finite: bool = True,
) -> np.ndarray:
    m = np.asarray(mapping, dtype=np.intp)
    if m.size != task_graph.n_tasks:
        raise MappingError("mapping length must equal the number of tasks")
    if len(set(m.tolist())) != m.size:
        raise MappingError("mapping must be injective")
    a = as_square_matrix(alpha, "alpha", check_finite=check_finite)
    b = np.asarray(beta, dtype=np.float64)
    if b.shape != a.shape:
        raise MappingError("alpha/beta shape mismatch")
    if m.min() < 0 or m.max() >= a.shape[0]:
        raise MappingError("mapping points outside the machine set")
    src, dst = np.nonzero(task_graph.volumes)
    if src.size == 0:
        return np.zeros(0)
    vols = task_graph.volumes[src, dst]
    ms, md = m[src], m[dst]
    return a[ms, md] + vols / b[ms, md]


def mapping_total_time(
    task_graph: TaskGraph,
    mapping: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    *,
    check_finite: bool = True,
) -> float:
    """Sum of per-edge α-β transfer times under *mapping*.

    *check_finite* ``False`` skips the scan of *alpha* for non-finite
    entries, the :mod:`scipy.linalg` idiom: a caller that prices many
    mappings on one read-only snapshot validates it once and then passes
    ``False``. The mapping and shape checks run on every call either way;
    a non-finite α on a mapped edge then prices as non-finite instead of
    raising.
    """
    return float(_edge_times(task_graph, mapping, alpha, beta, check_finite).sum())


def mapping_bottleneck_time(
    task_graph: TaskGraph,
    mapping: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
) -> float:
    """Slowest single task edge under *mapping* (0 for an edgeless graph)."""
    times = _edge_times(task_graph, mapping, alpha, beta)
    return float(times.max()) if times.size else 0.0


def bandwidth_from_weights(weights: np.ndarray) -> np.ndarray:
    """Convert a transfer-time weight matrix to a bandwidth-like affinity.

    The greedy mapper wants "larger is better"; the reciprocal of a weight
    matrix (diagonal forced to 0) provides that monotone conversion.
    """
    w = as_square_matrix(weights, "weights")
    n = w.shape[0]
    off = ~np.eye(n, dtype=bool)
    if np.any(w[off] <= 0):
        raise MappingError("weights must be positive off-diagonal")
    bw = np.zeros_like(w)
    bw[off] = 1.0 / w[off]
    return bw
