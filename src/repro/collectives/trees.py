"""Communication-tree structure and the MPICH-order binomial tree.

A :class:`CommTree` is a rooted spanning tree over machine indices with an
explicit *send order* per parent: in the α-β store-and-forward model a parent
sends to its children one after another, so the order matters — children that
head larger subtrees should be served first (which is exactly what the
binomial construction does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

__all__ = ["CommTree", "binomial_tree"]


@dataclass(frozen=True)
class CommTree:
    """Rooted communication tree over machines ``0..n-1``.

    Attributes
    ----------
    root:
        Root machine index.
    parent:
        ``parent[i]`` is the parent of *i* (−1 for the root).
    children:
        ``children[i]`` is the tuple of *i*'s children **in send order**.
    """

    root: int
    parent: np.ndarray
    children: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.parent, dtype=np.intp).copy()
        n = p.size
        if n == 0:
            raise ValidationError("tree must have at least one node")
        if not 0 <= int(self.root) < n:
            raise ValidationError("root out of range")
        if p[self.root] != -1:
            raise ValidationError("root's parent must be -1")
        if len(self.children) != n:
            raise ValidationError("children list must cover every node")
        root = int(self.root)
        children = tuple(tuple(int(c) for c in k) for k in self.children)
        # Validate parent/children consistency and acyclicity in one pass.
        seen_edges = 0
        for node, kids in enumerate(children):
            for c in kids:
                if not 0 <= c < n:
                    raise ValidationError(f"child {c} out of range")
                if p[c] != node:
                    raise ValidationError(f"child {c} disagrees with parent array")
                seen_edges += 1
        if seen_edges != n - 1:
            raise ValidationError(
                f"tree must have exactly n-1 edges, found {seen_edges}"
            )
        # Reachability from root ⇒ spanning and acyclic given the edge count.
        # The walk is breadth-first in send order: the schedule every
        # collective is priced in, so it is kept rather than recomputed.
        reached = [False] * n
        reached[root] = True
        order = [root]
        for u in order:
            for c in children[u]:
                if reached[c]:
                    raise ValidationError("cycle detected in tree")
                reached[c] = True
                order.append(c)
        if len(order) != n:
            raise ValidationError("tree does not span all nodes")
        dst = np.array(order[1:], dtype=np.intp)
        src = p[dst]
        heads, tails = src.tolist(), order[1:]
        counts = [1] * n
        for c, u in zip(reversed(tails), reversed(heads)):
            counts[u] += counts[c]
        sizes = np.array(counts, dtype=np.intp)
        # Flat indices of every parent→child and child→parent link into an
        # n×n matrix: pricing gathers a link matrix along the tree with one
        # ``take``.
        down, up = src * n + dst, dst * n + src
        for arr in (p, src, dst, sizes, down, up):
            arr.setflags(write=False)
        # The fan-out schedule: a child's arrival is its predecessor's plus
        # its own send, the predecessor being the previous sibling or, for
        # a first child, the parent.
        preds = [
            u if i == 0 or heads[i - 1] != u else tails[i - 1]
            for i, u in enumerate(heads)
        ]
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parent", p)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_edge_index", (src, dst))
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_links", (down, up))
        # Plain-list copies of the edge columns: the pricing loops in
        # exec_model walk them without building a tuple per edge.
        object.__setattr__(self, "_heads", heads)
        object.__setattr__(self, "_tails", tails)
        object.__setattr__(self, "_preds", preds)

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @classmethod
    def from_parent(
        cls, root: int, parent: np.ndarray, *, child_order: str = "insertion"
    ) -> "CommTree":
        """Build from a parent array; children keep index order.

        *child_order* ``"insertion"`` keeps ascending node-index order, which
        matches how the FNF iterations append children.
        """
        p = np.asarray(parent, dtype=np.intp)
        kids: list[list[int]] = [[] for _ in range(p.size)]
        for node in range(p.size):
            if node != root:
                kids[p[node]].append(node)
        return cls(root=root, parent=p, children=tuple(tuple(k) for k in kids))

    @property
    def bfs_order(self) -> tuple[int, ...]:
        """Nodes in breadth-first send order (root first)."""
        return self._order

    @property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(parent, child)`` index arrays of every edge, BFS order.

        The child column is :attr:`bfs_order` without the root.
        """
        return self._edge_index

    def subtree_sizes(self) -> np.ndarray:
        """Node count of every subtree (leaf = 1)."""
        return self._sizes.copy()

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        depth = [0] * self.n_nodes
        for u, c in zip(self._heads, self._tails):
            depth[c] = depth[u] + 1
        return max(depth)

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) edges in BFS order."""
        return list(zip(self._heads, self._tails))

    def longest_path_weight(self, weights: np.ndarray) -> float:
        """Total weight of the heaviest root-to-leaf path (paper Fig 1 metric)."""
        w = np.asarray(weights, dtype=np.float64)
        best = 0.0
        acc = [0.0] * self.n_nodes
        link_weights = w[self._edge_index].tolist()
        for u, c, wc in zip(self._heads, self._tails, link_weights):
            acc[c] = acc[u] + wc
            best = max(best, acc[c])
        return best


def binomial_tree(n: int, root: int = 0) -> CommTree:
    """MPICH-order binomial tree over *n* ranks rooted at *root*.

    This is the Baseline structure (paper Sec V-A, "the binomial tree
    algorithm … implementations from MPICH2"). MPICH's convention: ranks are
    renumbered relative to the root; relative rank ``r`` receives from
    ``r − lsb(r)`` (its lowest set bit cleared), then sends to
    ``r + lsb(r)/2, r + lsb(r)/4, …, r + 1`` — i.e. children in descending
    subtree size, which minimizes the critical path on homogeneous links.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0 <= root < n:
        raise ValidationError("root out of range")

    def absolute(rel: int) -> int:
        return (rel + root) % n

    parent = np.full(n, -1, dtype=np.intp)
    children: list[list[int]] = [[] for _ in range(n)]
    for rel in range(1, n):
        lsb = rel & -rel
        parent[absolute(rel)] = absolute(rel - lsb)
    # smallest power of two >= n: the root's send mask starts below it.
    pof2 = 1 << max(0, (n - 1).bit_length())
    for rel in range(n):
        mask = (rel & -rel) >> 1 if rel != 0 else pof2 >> 1
        while mask > 0:
            child_rel = rel + mask
            if child_rel < n:
                children[absolute(rel)].append(absolute(child_rel))
            mask >>= 1
    return CommTree(
        root=root, parent=parent, children=tuple(tuple(c) for c in children)
    )
