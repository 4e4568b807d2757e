"""Pricing communication trees under the α-β model.

All four collectives of the paper share one cost structure:

* **broadcast / scatter** flow root→leaves: a parent, once it holds the
  data, sends to its children sequentially (store-and-forward).
* **reduce / gather** are the duals — leaves→root, a parent receives from
  its children sequentially, each receive gated by the child having
  finished its own subtree.

Scatter/gather move *per-node blocks*: the message on edge (u, c) carries
``subtree_size(c)`` blocks. Broadcast/reduce move the full message on every
edge. These four functions evaluate a tree against *any* (α, β) snapshot —
the one the tree was optimized for, or the live one during replay — which is
exactly the expected-vs-real comparison Algorithm 1's maintenance needs.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_square_matrix, check_nonnegative, off_diagonal
from ..errors import ValidationError
from .trees import CommTree

__all__ = [
    "broadcast_time",
    "scatter_time",
    "scatterv_time",
    "reduce_time",
    "gather_time",
    "gatherv_time",
    "collective_time",
    "weights_to_alphabeta",
]


def weights_to_alphabeta(
    weights: np.ndarray, nbytes: float
) -> tuple[np.ndarray, np.ndarray]:
    """Interpret a weight matrix as pure-bandwidth (α=0) link parameters.

    Useful for pricing a tree directly from an optimizer's weight matrix:
    ``β = nbytes / w`` reproduces ``w`` as the transfer time of *nbytes*.
    """
    w = as_square_matrix(weights, "weights")
    check_nonnegative(nbytes, "nbytes")
    if w.shape[0] > 1 and off_diagonal(w).min() <= 0:
        raise ValidationError("weights must be positive off-diagonal")
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.divide(nbytes, w)  # the zero diagonal divides to inf or NaN
    np.fill_diagonal(beta, np.inf)
    return np.zeros(w.shape), beta


def _check_inputs(
    tree: CommTree,
    alpha: np.ndarray,
    beta: np.ndarray,
    nbytes: float,
    check_finite: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    a = as_square_matrix(alpha, "alpha", check_finite=check_finite)
    b = np.asarray(beta, dtype=np.float64)
    if b.shape != a.shape:
        raise ValidationError("alpha/beta shape mismatch")
    if a.shape[0] != tree.n_nodes:
        raise ValidationError(
            f"matrix size {a.shape[0]} does not match tree size {tree.n_nodes}"
        )
    check_nonnegative(nbytes, "nbytes")
    return a, b


def _link_costs(
    tree: CommTree,
    alpha: np.ndarray,
    beta: np.ndarray,
    child_bytes: float | np.ndarray,
    *,
    upward: bool = False,
) -> list[float]:
    """``α + bytes/β`` of every tree edge, as floats in BFS send order.

    One ``take`` per matrix prices the whole tree. *child_bytes* is the
    edge payload: a scalar, or a per-node array read at each edge's child.
    *upward* reads the child→parent link (reduce/gather) instead of
    parent→child.
    """
    links = tree._links[1] if upward else tree._links[0]
    b = beta.take(links)
    ok = b > 0
    if not ok.all():
        src, dst = divmod(int(links[np.argmin(ok)]), tree.n_nodes)
        raise ValidationError(f"non-positive bandwidth on link ({src}, {dst})")
    if np.ndim(child_bytes):
        child_bytes = child_bytes[tree.edge_index[1]]
    return (alpha.take(links) + child_bytes / b).tolist()


def _fan_out_time(tree: CommTree, costs: list[float]) -> float:
    """Shared root→leaves schedule for broadcast/scatter.

    A parent, once it holds the data, sends to its children in order; each
    child's arrival is the parent's arrival plus the costs of the sends up
    to and including its own, i.e. its predecessor's arrival (the previous
    sibling's, or the parent's for a first child) plus its own send.
    """
    arrival = [0.0] * tree.n_nodes
    for c, pred, cost in zip(tree._tails, tree._preds, costs):
        arrival[c] = arrival[pred] + cost
    return max(arrival)


def _fan_in_time(tree: CommTree, costs: list[float]) -> float:
    """Shared leaves→root schedule for reduce/gather.

    Receives at a parent are sequential in reverse send order (the dual
    schedule); each is gated by the child having finished its own fan-in.
    Walking the BFS edge list backwards visits every child's subtree before
    its parent.
    """
    finish = [0.0] * tree.n_nodes
    edges = zip(reversed(tree._heads), reversed(tree._tails), reversed(costs))
    for u, c, cost in edges:
        a, b = finish[u], finish[c]
        finish[u] = (b if b > a else a) + cost  # max(a, b), without the call
    return finish[tree.root]


def _broadcast(tree: CommTree, a: np.ndarray, b: np.ndarray, nbytes: float) -> float:
    return _fan_out_time(tree, _link_costs(tree, a, b, nbytes))


def _scatter(tree: CommTree, a: np.ndarray, b: np.ndarray, block_bytes: float) -> float:
    payload = block_bytes * tree._sizes
    return _fan_out_time(tree, _link_costs(tree, a, b, payload))


def _reduce(tree: CommTree, a: np.ndarray, b: np.ndarray, nbytes: float) -> float:
    return _fan_in_time(tree, _link_costs(tree, a, b, float(nbytes), upward=True))


def _gather(tree: CommTree, a: np.ndarray, b: np.ndarray, block_bytes: float) -> float:
    payload = tree._sizes.astype(np.float64) * float(block_bytes)
    return _fan_in_time(tree, _link_costs(tree, a, b, payload, upward=True))


def broadcast_time(
    tree: CommTree, alpha: np.ndarray, beta: np.ndarray, nbytes: float
) -> float:
    """Completion time of a broadcast of *nbytes* along *tree*."""
    return collective_time("broadcast", tree, alpha, beta, nbytes)


def scatter_time(
    tree: CommTree, alpha: np.ndarray, beta: np.ndarray, block_bytes: float
) -> float:
    """Completion time of a scatter with *block_bytes* per destination node.

    On edge (u, c) the parent forwards the blocks of c's entire subtree.
    """
    return collective_time("scatter", tree, alpha, beta, block_bytes)


def _subtree_payloads(tree: CommTree, block_sizes: np.ndarray) -> np.ndarray:
    """Per-node payload of its entire subtree (vector-collective edges)."""
    sizes = np.asarray(block_sizes, dtype=np.float64).ravel()
    if sizes.size != tree.n_nodes:
        raise ValidationError("block_sizes must have one entry per node")
    if np.any(sizes < 0):
        raise ValidationError("block_sizes must be non-negative")
    payload = sizes.copy()
    for u in reversed(tree.bfs_order):
        for c in tree.children[u]:
            payload[u] += payload[c]
    return payload


def scatterv_time(
    tree: CommTree, alpha: np.ndarray, beta: np.ndarray, block_sizes: np.ndarray
) -> float:
    """Scatter with per-destination block sizes (MPI's ``Scatterv``).

    ``block_sizes[i]`` is the payload destined for node *i*; the edge to a
    child carries the total of its subtree's blocks.
    """
    a, b = _check_inputs(tree, alpha, beta, 0.0)
    payload = _subtree_payloads(tree, block_sizes)
    return _fan_out_time(tree, _link_costs(tree, a, b, payload))


def gatherv_time(
    tree: CommTree, alpha: np.ndarray, beta: np.ndarray, block_sizes: np.ndarray
) -> float:
    """Gather with per-source block sizes (MPI's ``Gatherv``)."""
    a, b = _check_inputs(tree, alpha, beta, 0.0)
    payload = _subtree_payloads(tree, block_sizes)
    return _fan_in_time(tree, _link_costs(tree, a, b, payload, upward=True))


def reduce_time(
    tree: CommTree, alpha: np.ndarray, beta: np.ndarray, nbytes: float
) -> float:
    """Completion time of a reduce of *nbytes* along *tree* (dual of broadcast)."""
    return collective_time("reduce", tree, alpha, beta, nbytes)


def gather_time(
    tree: CommTree, alpha: np.ndarray, beta: np.ndarray, block_bytes: float
) -> float:
    """Completion time of a gather with *block_bytes* per node (dual of scatter)."""
    return collective_time("gather", tree, alpha, beta, block_bytes)


_DISPATCH = {
    "broadcast": _broadcast,
    "scatter": _scatter,
    "reduce": _reduce,
    "gather": _gather,
}


def collective_time(
    op: str,
    tree: CommTree,
    alpha: np.ndarray,
    beta: np.ndarray,
    nbytes: float,
    *,
    check_finite: bool = True,
) -> float:
    """Price the named collective on *tree* under the (α, β) snapshot.

    For broadcast/reduce *nbytes* is the full message size; for
    scatter/gather it is the per-node block size.

    *check_finite* ``False`` skips the scan of *alpha* for non-finite
    entries, the :mod:`scipy.linalg` idiom: a caller that prices many
    trees on one read-only snapshot validates it once and then passes
    ``False``. The shape checks and the per-edge ``β > 0`` check run on
    every call either way; a non-finite α on a tree edge then prices as
    non-finite instead of raising.
    """
    try:
        fn = _DISPATCH[op]
    except KeyError:
        raise ValueError(f"unknown collective {op!r}; one of {sorted(_DISPATCH)}") from None
    a, b = _check_inputs(tree, alpha, beta, nbytes, check_finite)
    return fn(tree, a, b, nbytes)
