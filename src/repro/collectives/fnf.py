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

Re-planning on a moved weight matrix
------------------------------------
A streamed ``P_D`` moves a little on every operation, yet its FNF tree
rarely changes. :class:`FnfPicks` replays a kept tree's picks against new
weights: if every pick is still its sender's *strict* minimum over the
machines picked after it, then by induction over the picks FNF on the new
weights makes exactly the same picks and returns exactly the same tree.
Any tie or failure means the tree must be rebuilt with :func:`fnf_tree`.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_square_matrix, check_index
from ..errors import ValidationError
from .trees import CommTree

__all__ = ["FnfPicks", "fnf_tree"]


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


class FnfPicks:
    """The ``(sender, receiver)`` picks behind an FNF tree, in FNF's order.

    Built from the tree alone (:meth:`of`): FNF's iterations walk the
    selected machines in insertion order and each one attaches its next
    child, so the children lists fix the order of the picks. Holds O(N)
    index arrays; :meth:`certifies` checks new weights against them.
    """

    __slots__ = (
        "tree", "senders", "receivers", "_rows", "_row_of", "_reversed", "_later"
    )

    def __init__(
        self, tree: CommTree, senders: np.ndarray, receivers: np.ndarray
    ) -> None:
        k = receivers.size
        if senders.size != k or k != tree.n_nodes - 1:
            raise ValidationError("FNF picks must cover every non-root machine once")
        self.tree = tree
        self.senders = senders
        self.receivers = receivers
        # One gathered row per distinct sender, its receivers reversed, so a
        # forward minimum.accumulate along the row yields suffix minima.
        self._rows, self._row_of = np.unique(senders, return_inverse=True)
        self._reversed = receivers[::-1].copy()
        # Pick t compares with the minimum over picks t+1..k-1, which sits
        # at reversed column k-2-t. The last pick has no later column.
        self._later = (self._row_of[:-1], np.arange(k - 2, -1, -1, dtype=np.intp))
        for arr in (senders, receivers, self._rows, self._row_of, self._reversed):
            arr.setflags(write=False)

    @classmethod
    def of(cls, tree: CommTree) -> "FnfPicks":
        """The picks :func:`fnf_tree` made to build *tree*.

        Raises :class:`~repro.errors.ValidationError` if *tree* does not
        have FNF's iteration shape (a selected machine without a next child
        while machines remain unpicked).
        """
        k = tree.n_nodes - 1
        senders: list[int] = []
        receivers: list[int] = []
        attached = [0] * tree.n_nodes
        selected = [tree.root]
        while len(receivers) < k:
            added = []
            for s in selected:
                if len(receivers) == k:
                    break
                kids = tree.children[s]
                if attached[s] == len(kids):
                    raise ValidationError("tree is not an FNF tree")
                r = kids[attached[s]]
                attached[s] += 1
                senders.append(s)
                receivers.append(r)
                added.append(r)
            selected.extend(added)
        return cls(
            tree,
            np.array(senders, dtype=np.intp),
            np.array(receivers, dtype=np.intp),
        )

    def certifies(self, weights: np.ndarray, *, check_finite: bool = True) -> bool:
        """Whether ``fnf_tree(weights, tree.root)`` provably returns :attr:`tree`.

        True iff every pick's weight is strictly below its sender's weights
        to every machine picked later. Then, pick by pick, the picked
        machine is the unique ``argmin`` of the sender's row over the pool
        FNF holds at that moment, so FNF repeats every pick. A tie returns
        False even where the lowest-index rule would pick the same machine.
        One gather of the senders' rows and one ``minimum.accumulate``.

        *check_finite* ``False`` skips the scan for non-finite entries, for
        weights the caller has validated (:func:`fnf_tree` rejects them).
        """
        w = as_square_matrix(weights, "weights", check_finite=check_finite)
        if w.shape[0] != self.tree.n_nodes:
            return False
        later = w.take(self._rows, axis=0).take(self._reversed, axis=1)
        np.minimum.accumulate(later, axis=1, out=later)
        own = w[self.senders[:-1], self.receivers[:-1]]
        return bool((own < later[self._later]).all())
