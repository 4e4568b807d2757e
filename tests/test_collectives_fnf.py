"""Unit tests for the Fastest-Node-First tree construction (paper Fig 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.fnf import FnfPicks, fnf_tree
from repro.collectives.trees import CommTree
from repro.errors import ValidationError


def wmatrix(vals):
    w = np.asarray(vals, dtype=float)
    np.fill_diagonal(w, 0.0)
    return w


class TestFNFSemantics:
    def test_first_pick_is_roots_best_link(self):
        w = wmatrix(
            [
                [0, 5, 1, 7],
                [5, 0, 5, 5],
                [1, 5, 0, 5],
                [7, 5, 5, 0],
            ]
        )
        t = fnf_tree(w, 0)
        assert t.children[0][0] == 2  # weight 1 is the best link from the root

    def test_iteration_doubling_structure(self):
        # Uniform weights: each iteration doubles the selected set, so the
        # tree is a binomial-shaped tree; ties resolve to the lowest index.
        n = 8
        w = wmatrix(np.ones((n, n)))
        t = fnf_tree(w, 0)
        # Iteration 1: 0 picks 1. Iteration 2: 0 picks 2, 1 picks 3. ...
        assert t.children[0][:2] == (1, 2)
        assert t.children[1][0] == 3
        assert t.depth() == 3

    def test_receiver_removed_immediately(self):
        # Two senders must not pick the same receiver within an iteration.
        w = wmatrix(
            [
                [0, 1, 2, 9, 9, 9],
                [9, 0, 9, 1, 2, 9],
                [9, 9, 0, 9, 1, 2],
                [9] * 6,
                [9] * 6,
                [9] * 6,
            ]
        )
        # Iter 1: 0→1. Iter 2: 0→2, then 1 wants 3 (weight 1). Iter 3:
        # 0 wants 3 but it's taken? No — iter2 assigns 3 to 1 already; then
        # iter3: 0 picks 4 or 5... The key invariant: all receivers distinct.
        t = fnf_tree(w, 0)
        kids = [c for ks in t.children for c in ks]
        assert len(kids) == len(set(kids)) == 5

    def test_paper_fig1_example_semantics(self):
        # Reconstruction of the Fig 1 walk-through: root machine 0 (paper's
        # Machine 1); first iteration picks machine 2 (paper's Machine 3,
        # smallest weight from the root); second iteration the root picks
        # machine 1 and machine 2 picks machine 5.
        w = wmatrix(
            [
                [0, 2, 1, 4, 5, 6],
                [2, 0, 3, 4, 5, 6],
                [1, 3, 0, 4, 5, 2],
                [4, 4, 4, 0, 6, 6],
                [5, 5, 5, 6, 0, 6],
                [6, 6, 2, 6, 6, 0],
            ]
        )
        t = fnf_tree(w, 0)
        assert t.children[0][0] == 2
        assert t.children[0][1] == 1
        assert t.children[2][0] == 5

    def test_changing_one_weight_changes_tree(self):
        # The paper's Fig 1(a) vs 1(b) point: individual link weights matter.
        w1 = wmatrix(
            [
                [0, 2, 1, 4],
                [2, 0, 3, 4],
                [1, 3, 0, 9],
                [4, 4, 9, 0],
            ]
        )
        w2 = w1.copy()
        w2[0, 2] = 4.0  # degrade the root's favorite link
        t1 = fnf_tree(w1, 0)
        t2 = fnf_tree(w2, 0)
        assert t1.children[0][0] == 2
        assert t2.children[0][0] == 1
        assert t1.longest_path_weight(w1) != t2.longest_path_weight(w2)

    def test_asymmetric_weights_use_sender_row(self):
        w = np.array(
            [
                [0.0, 9.0, 1.0, 9.0],
                [9.0, 0.0, 9.0, 9.0],
                [9.0, 1.0, 0.0, 2.0],
                [9.0, 9.0, 9.0, 0.0],
            ]
        )
        t = fnf_tree(w, 0)
        # Iter 1: the root's cheapest *outgoing* link (row 0) is to 2. Iter 2
        # scans S in insertion order: the root picks first (1 and 3 both cost
        # 9 from it → lowest index 1), then machine 2's row picks 3 (cost 2,
        # cheaper than its column counterpart 9 — sender rows, not columns).
        assert t.children[0] == (2, 1)
        assert t.children[2] == (3,)


class TestFNFValidation:
    def test_single_node(self):
        t = fnf_tree(np.zeros((1, 1)), 0)
        assert t.n_nodes == 1

    def test_root_out_of_range(self):
        with pytest.raises(ValidationError):
            fnf_tree(wmatrix(np.ones((3, 3))), 3)

    def test_infinite_weight_rejected(self):
        w = wmatrix(np.ones((3, 3)))
        w[0, 1] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            fnf_tree(w, 0)

    def test_spans_all_nodes(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(1, 5, size=(17, 17))
        np.fill_diagonal(w, 0.0)
        t = fnf_tree(w, 4)
        assert int(t.subtree_sizes()[4]) == 17


def _frozen_fnf(w, root):
    """The per-pick masked-argmin loop fnf_tree used before its pool became
    an inf-masked copy of the weights; kept as the oracle for tie order."""
    n = w.shape[0]
    parent = np.full(n, -1, dtype=np.intp)
    children = [[] for _ in range(n)]
    selected = [root]
    in_pool = np.ones(n, dtype=bool)
    in_pool[root] = False
    remaining = n - 1
    while remaining > 0:
        added = []
        for s in selected:
            if remaining == 0:
                break
            r = int(np.argmin(np.where(in_pool, w[s], np.inf)))
            parent[r] = s
            children[s].append(r)
            in_pool[r] = False
            remaining -= 1
            added.append(r)
        selected.extend(added)
    return parent, tuple(tuple(c) for c in children)


class TestFNFMatchesFrozenLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 196]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        levels=st.sampled_from([None, 2, 5]),
        data=st.data(),
    )
    def test_trees_identical(self, n, seed, levels, data):
        rng = np.random.default_rng(seed)
        w = rng.random((n, n)) + 0.1
        if levels is not None:
            w = np.round(w * levels) / levels + 0.1  # quantized: many ties
        np.fill_diagonal(w, 0.0)
        roots = range(n) if n <= 3 else [
            data.draw(st.integers(min_value=0, max_value=n - 1), label="root")
        ]
        for root in roots:
            tree = fnf_tree(w, root)
            parent, children = _frozen_fnf(w, root)
            assert np.array_equal(tree.parent, parent)
            assert tree.children == children

    def test_every_root_of_a_tied_196_matrix(self):
        rng = np.random.default_rng(196)
        w = np.round(rng.random((196, 196)) * 3) / 3 + 0.1
        np.fill_diagonal(w, 0.0)
        for root in range(196):
            tree = fnf_tree(w, root)
            parent, children = _frozen_fnf(w, root)
            assert np.array_equal(tree.parent, parent)
            assert tree.children == children


def _strict_picks(w, picks):
    """The certificate's definition, one pick at a time: each pick's weight
    is strictly below its sender's weight to every machine picked later."""
    s, r = picks.senders.tolist(), picks.receivers.tolist()
    return all(
        all(w[s[t], r[t]] < w[s[t], r[u]] for u in range(t + 1, len(r)))
        for t in range(len(r))
    )


def _same_tree(a, b):
    return np.array_equal(a.parent, b.parent) and a.children == b.children


class TestFnfPicksCertificate:
    """A kept tree certified on new weights is the tree FNF builds on them."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        change=st.sampled_from(["self", "perturbed", "fresh", "quantized"]),
        scale=st.sampled_from([1e-9, 1e-6, 1e-3, 1e-1]),
        data=st.data(),
    )
    def test_certified_tree_equals_fnf_tree(self, n, seed, change, scale, data):
        rng = np.random.default_rng(seed)
        w = wmatrix(rng.random((n, n)) + 0.1)
        if change == "quantized":
            w = wmatrix(np.round(w * 4) / 4 + 0.1)  # ties on most rows
        root = data.draw(st.integers(min_value=0, max_value=n - 1), label="root")
        picks = FnfPicks.of(fnf_tree(w, root))
        if change == "self":
            w2 = w
        elif change == "perturbed":
            w2 = wmatrix(w * (1.0 + scale * rng.standard_normal((n, n))))
        elif change == "fresh":
            w2 = wmatrix(rng.random((n, n)) + 0.1)
        else:  # quantized again after a perturbation: ties stay ties
            w2 = wmatrix(np.round(w * (1.0 + scale * rng.standard_normal((n, n))) * 4) / 4 + 0.1)
        certified = picks.certifies(w2)
        # Exactly the definition: any tie, or any later machine cheaper,
        # fails it ...
        assert certified == _strict_picks(w2, picks)
        # ... and a pass is a proof: FNF on the new weights repeats the tree.
        if certified:
            assert _same_tree(picks.tree, fnf_tree(w2, root))

    def test_tie_forces_rebuild_even_when_the_tree_is_the_same(self):
        n = 6
        w = wmatrix(np.ones((n, n)))  # every pick is a tie
        picks = FnfPicks.of(fnf_tree(w, 0))
        assert _same_tree(picks.tree, fnf_tree(w, 0))
        assert not picks.certifies(w)

    def test_one_tie_fails_an_otherwise_strict_tree(self):
        rng = np.random.default_rng(5)
        w = wmatrix(rng.random((12, 12)) + 0.1)
        picks = FnfPicks.of(fnf_tree(w, 3))
        assert picks.certifies(w)
        t = 4  # make pick t tie with a machine picked later
        s, r, later = picks.senders[t], picks.receivers[t], picks.receivers[t + 1]
        w2 = w.copy()
        w2[s, later] = w2[s, r]
        assert not picks.certifies(w2)

    def test_picks_follow_fnf_order(self):
        # Fig 1 walk-through: root 0 picks 2; then 0 picks 1 and 2 picks 5.
        w = wmatrix(
            [
                [0, 2, 1, 4, 5, 6],
                [2, 0, 3, 4, 5, 6],
                [1, 3, 0, 4, 5, 2],
                [4, 4, 4, 0, 6, 6],
                [5, 5, 5, 6, 0, 6],
                [6, 6, 2, 6, 6, 0],
            ]
        )
        picks = FnfPicks.of(fnf_tree(w, 0))
        assert list(zip(picks.senders.tolist(), picks.receivers.tolist()))[:3] == [
            (0, 2), (0, 1), (2, 5),
        ]
        assert sorted(picks.receivers.tolist()) == [1, 2, 3, 4, 5]

    def test_size_change_and_non_fnf_tree(self):
        w = wmatrix(np.arange(16, dtype=float).reshape(4, 4) + 1.0)
        picks = FnfPicks.of(fnf_tree(w, 0))
        assert not picks.certifies(wmatrix(np.ones((5, 5)) + np.eye(5)))
        chain = CommTree.from_parent(0, np.array([-1, 0, 1, 2]))
        with pytest.raises(ValidationError, match="FNF"):
            FnfPicks.of(chain)

    def test_non_finite_weights_rejected_unless_checked_already(self):
        w = wmatrix(np.ones((3, 3)) + np.arange(9).reshape(3, 3))
        picks = FnfPicks.of(fnf_tree(w, 0))
        bad = w.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            picks.certifies(bad)
