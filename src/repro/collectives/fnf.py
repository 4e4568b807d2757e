"""Fastest-Node-First tree construction (Banikazemi, Moorthy & Panda [3]).

The paper's running example (Fig 1): given an all-link weight matrix (lower
weight = better link), grow the tree from the root in iterations. Every
iteration walks the already-selected machines *in the order they were added*
and lets each pick the unselected machine with its best link; the picked
machine is removed from the candidate pool immediately (so two senders never
pick the same receiver within an iteration) and joins the selected set at the
end of the iteration. Each node therefore gains at most one child per
iteration — the same doubling structure as a binomial tree, but with
network-aware link choices.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_square_matrix, check_index
from .trees import CommTree

__all__ = ["fnf_tree"]


def fnf_tree(weights: np.ndarray, root: int = 0) -> CommTree:
    """Build the FNF communication tree for *weights* rooted at *root*.

    Parameters
    ----------
    weights:
        N×N link-weight matrix; ``weights[i, j]`` is the cost of the directed
        link i→j and smaller is better. The diagonal is ignored.
    root:
        Root machine (the collective's root process).

    Returns
    -------
    CommTree
        Children are recorded in the order they were attached, which is also
        the send order the FNF schedule implies.

    Notes
    -----
    The candidate pool lives in a private copy of the weights whose
    selected machines' columns are set to ``inf``: a pick is one ``argmin``
    over the sender's row, and removing the picked machine from the pool is
    one column write. ``argmin`` returns the lowest index among equal
    weights, so ties go to the lowest-numbered machine.
    """
    w = as_square_matrix(weights, "weights")  # rejects every non-finite entry
    n = w.shape[0]
    check_index(root, n, "root")
    if n == 1:
        return CommTree(root=root, parent=np.array([-1]), children=((),))

    parent = np.full(n, -1, dtype=np.intp)
    children: list[list[int]] = [[] for _ in range(n)]
    selected: list[int] = [root]  # S, in insertion order
    pool = w.copy()  # U: a column is inf once its machine is selected
    pool[:, root] = np.inf
    remaining = n - 1

    while remaining > 0:
        added_this_iter: list[int] = []
        for s in selected:
            if remaining == 0:
                break
            r = int(pool[s].argmin())
            parent[r] = s
            children[s].append(r)
            pool[:, r] = np.inf
            remaining -= 1
            added_this_iter.append(r)
        selected.extend(added_this_iter)

    return CommTree(
        root=root, parent=parent, children=tuple(tuple(c) for c in children)
    )
