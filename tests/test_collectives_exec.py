"""Unit tests for the α-β tree execution model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.exec_model import (
    broadcast_time,
    collective_time,
    gather_time,
    gatherv_time,
    reduce_time,
    scatter_time,
    scatterv_time,
    weights_to_alphabeta,
)
from repro.collectives.fnf import fnf_tree
from repro.collectives.trees import CommTree, binomial_tree
from repro.errors import ValidationError

from .oracles import reference_times


def uniform_net(n, alpha=0.0, beta=1.0):
    a = np.full((n, n), alpha)
    b = np.full((n, n), beta)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(b, np.inf)
    return a, b


class TestBroadcast:
    def test_two_nodes(self):
        t = binomial_tree(2, 0)
        a, b = uniform_net(2, alpha=0.5, beta=10.0)
        assert broadcast_time(t, a, b, 20.0) == pytest.approx(2.5)

    def test_chain_accumulates(self):
        t = CommTree.from_parent(0, np.array([-1, 0, 1, 2]))
        a, b = uniform_net(4, beta=2.0)
        # Each hop costs nbytes/2; three sequential hops.
        assert broadcast_time(t, a, b, 4.0) == pytest.approx(6.0)

    def test_sequential_sends_at_parent(self):
        t = CommTree(root=0, parent=np.array([-1, 0, 0]), children=((1, 2), (), ()))
        a, b = uniform_net(3, beta=1.0)
        # Root sends to 1 then 2: arrivals at 1.0 and 2.0.
        assert broadcast_time(t, a, b, 1.0) == pytest.approx(2.0)

    def test_binomial_uniform_is_log_depth(self):
        n = 16
        t = binomial_tree(n, 0)
        a, b = uniform_net(n, beta=1.0)
        # log2(16)=4 serial message times on the critical path.
        assert broadcast_time(t, a, b, 1.0) == pytest.approx(4.0)

    def test_uses_live_matrix_not_build_matrix(self):
        t = binomial_tree(4, 0)
        a1, b1 = uniform_net(4, beta=1.0)
        a2, b2 = uniform_net(4, beta=2.0)
        assert broadcast_time(t, a1, b1, 1.0) == 2 * broadcast_time(t, a2, b2, 1.0)

    def test_matrix_size_mismatch(self):
        t = binomial_tree(4, 0)
        a, b = uniform_net(3)
        with pytest.raises(ValidationError, match="does not match"):
            broadcast_time(t, a, b, 1.0)


class TestScatter:
    def test_blocks_scale_with_subtree(self):
        # Chain 0→1→2: edge (0,1) carries 2 blocks, edge (1,2) one.
        t = CommTree.from_parent(0, np.array([-1, 0, 1]))
        a, b = uniform_net(3, beta=1.0)
        assert scatter_time(t, a, b, 1.0) == pytest.approx(3.0)

    def test_star_root_sends_all(self):
        t = CommTree(
            root=0, parent=np.array([-1, 0, 0, 0]), children=((1, 2, 3), (), (), ())
        )
        a, b = uniform_net(4, beta=1.0)
        # Sequential 1-block sends: arrivals at 1, 2, 3.
        assert scatter_time(t, a, b, 1.0) == pytest.approx(3.0)

    def test_scatter_cheaper_than_naive_blocks(self):
        # Total bytes moved by binomial scatter is n·log(n)/2-ish blocks, so
        # its time beats broadcasting the full payload along the same tree.
        n = 8
        t = binomial_tree(n, 0)
        a, b = uniform_net(n, beta=1.0)
        assert scatter_time(t, a, b, 1.0) < broadcast_time(t, a, b, float(n))


class TestDuality:
    def test_gather_mirrors_scatter_uniform(self):
        n = 8
        t = binomial_tree(n, 0)
        a, b = uniform_net(n, beta=3.0, alpha=0.001)
        assert gather_time(t, a, b, 1.0) == pytest.approx(scatter_time(t, a, b, 1.0))

    def test_reduce_mirrors_broadcast_uniform(self):
        n = 8
        t = binomial_tree(n, 0)
        a, b = uniform_net(n, beta=3.0, alpha=0.001)
        assert reduce_time(t, a, b, 1.0) == pytest.approx(broadcast_time(t, a, b, 1.0))

    def test_gather_uses_reverse_direction_weights(self):
        t = CommTree.from_parent(0, np.array([-1, 0]))
        a = np.zeros((2, 2))
        b = np.array([[np.inf, 1.0], [4.0, np.inf]])
        # Broadcast uses link 0→1 (beta 1); gather uses 1→0 (beta 4).
        assert broadcast_time(t, a, b, 4.0) == pytest.approx(4.0)
        assert gather_time(t, a, b, 4.0) == pytest.approx(1.0)


class TestDispatchAndHelpers:
    def test_collective_time_dispatch(self):
        t = binomial_tree(4, 0)
        a, b = uniform_net(4)
        for op in ("broadcast", "scatter", "reduce", "gather"):
            assert collective_time(op, t, a, b, 1.0) > 0

    def test_unknown_op(self):
        t = binomial_tree(2, 0)
        a, b = uniform_net(2)
        with pytest.raises(ValueError, match="unknown collective"):
            collective_time("alltoall", t, a, b, 1.0)

    def test_weights_to_alphabeta_roundtrip(self):
        w = np.array([[0.0, 2.0], [3.0, 0.0]])
        a, b = weights_to_alphabeta(w, 6.0)
        assert a[0, 1] == 0.0
        assert 6.0 / b[0, 1] == pytest.approx(2.0)
        assert 6.0 / b[1, 0] == pytest.approx(3.0)

    def test_weights_to_alphabeta_rejects_nonpositive(self):
        w = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            weights_to_alphabeta(w, 1.0)

    def test_zero_bandwidth_link_rejected_at_pricing(self):
        t = CommTree.from_parent(0, np.array([-1, 0]))
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        with pytest.raises(ValidationError, match="bandwidth"):
            broadcast_time(t, a, b, 1.0)


def _library_times(tree, alpha, beta, nbytes, block_sizes):
    out = {
        op: collective_time(op, tree, alpha, beta, nbytes)
        for op in ("broadcast", "scatter", "reduce", "gather")
    }
    out["scatterv"] = scatterv_time(tree, alpha, beta, block_sizes)
    out["gatherv"] = gatherv_time(tree, alpha, beta, block_sizes)
    return out


@st.composite
def priced_trees(draw):
    """A random FNF or binomial tree with a random α-β snapshot."""
    n = draw(st.integers(1, 24))
    root = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        w = rng.uniform(0.1, 10.0, size=(n, n))
        np.fill_diagonal(w, 0.0)
        tree = fnf_tree(w, root)
    else:
        tree = binomial_tree(n, root)
    alpha = rng.uniform(0.0, 1e-3, size=(n, n))
    beta = rng.uniform(1e5, 1e9, size=(n, n))
    np.fill_diagonal(beta, np.inf)
    # Integer sizes too: callers pass byte counts as ints.
    nbytes = draw(
        st.one_of(
            st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
            st.integers(0, 2**30),
        )
    )
    block_sizes = rng.uniform(0.0, 1e6, size=n)
    return tree, alpha, beta, nbytes, block_sizes


class TestPricingMatchesPerEdgeReference:
    @given(priced_trees())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, case):
        tree, alpha, beta, nbytes, block_sizes = case
        want = reference_times(tree, alpha, beta, nbytes, block_sizes)
        got = _library_times(tree, alpha, beta, nbytes, block_sizes)
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in want.items()
        }

    @given(priced_trees(), st.integers(0, 2**16), st.sampled_from([0.0, -1.0, np.nan]))
    @settings(max_examples=80, deadline=None)
    def test_non_positive_tree_link_rejected(self, case, pick, bad):
        tree, alpha, beta, nbytes, block_sizes = case
        edges = tree.edges()
        if not edges:
            return
        u, c = edges[pick % len(edges)]
        down = beta.copy()
        down[u, c] = bad
        up = beta.copy()
        up[c, u] = bad
        for op in ("broadcast", "scatter"):
            with pytest.raises(ValidationError, match="bandwidth"):
                collective_time(op, tree, alpha, down, nbytes)
        with pytest.raises(ValidationError, match="bandwidth"):
            scatterv_time(tree, alpha, down, block_sizes)
        for op in ("reduce", "gather"):
            with pytest.raises(ValidationError, match="bandwidth"):
                collective_time(op, tree, alpha, up, nbytes)
        with pytest.raises(ValidationError, match="bandwidth"):
            gatherv_time(tree, alpha, up, block_sizes)

    @pytest.mark.parametrize("seed", range(3))
    def test_paper_scale_fnf(self, seed):
        n = 196
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 10.0, size=(n, n))
        np.fill_diagonal(w, 0.0)
        tree = fnf_tree(w, int(rng.integers(n)))
        alpha = rng.uniform(0.0, 1e-3, size=(n, n))
        beta = rng.uniform(1e5, 1e9, size=(n, n))
        np.fill_diagonal(beta, np.inf)
        block_sizes = rng.uniform(0.0, 1e6, size=n)
        for nbytes in (8 * 1024 * 1024, 3.5e6):
            want = reference_times(tree, alpha, beta, nbytes, block_sizes)
            got = _library_times(tree, alpha, beta, nbytes, block_sizes)
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in want.items()
            }

    def test_integer_costs_tie_in_fan_in(self):
        """Integer α, β and sizes make a parent's running receive time equal
        a child's finish time, so the fan-in's max must break ties exactly
        as the reference's builtin max does."""
        rng = np.random.default_rng(11)
        ties = 0
        for trial in range(30):
            n = int(rng.choice([2, 5, 17, 64, 196]))
            root = int(rng.integers(n))
            if trial % 2:
                w = rng.integers(1, 4, size=(n, n)).astype(float)
                np.fill_diagonal(w, 0.0)
                tree = fnf_tree(w, root)
            else:
                tree = binomial_tree(n, root)
            alpha = rng.integers(0, 3, size=(n, n)).astype(float)
            beta = rng.choice([1.0, 2.0, 4.0], size=(n, n))
            nbytes = 4 * int(rng.integers(0, 3))
            block_sizes = rng.integers(0, 3, size=n).astype(float)
            want = reference_times(tree, alpha, beta, nbytes, block_sizes)
            got = _library_times(tree, alpha, beta, nbytes, block_sizes)
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in want.items()
            }
            ties += _fan_in_ties(tree, alpha, beta, nbytes)
        assert ties > 0


def _fan_in_ties(tree, alpha, beta, nbytes):
    """Receives in a reduce where the parent's running time equals the
    child's (non-zero) finish time."""
    finish = [0.0] * tree.n_nodes
    ties = 0
    for u in reversed(tree.bfs_order):
        t = 0.0
        for c in reversed(tree.children[u]):
            ties += t == finish[c] > 0
            t = max(t, finish[c]) + float(alpha[c, u] + nbytes / beta[c, u])
        finish[u] = t
    return ties
