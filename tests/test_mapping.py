"""Unit tests for task graphs, greedy/ring mapping and evaluation."""

import numpy as np
import pytest

from repro.errors import MappingError, ValidationError
from repro.mapping.evaluate import (
    bandwidth_from_weights,
    mapping_bottleneck_time,
    mapping_total_time,
)
from repro.mapping.greedy import MachineGraph, greedy_mapping
from repro.mapping.ring import ring_mapping
from repro.mapping.taskgraph import (
    TaskGraph,
    random_task_graph,
    ring_task_graph,
    stencil_task_graph,
)

MB = 1024 * 1024


class TestTaskGraph:
    def test_random_volumes_in_range(self):
        g = random_task_graph(12, density=0.4, seed=0)
        nz = g.volumes[g.volumes > 0]
        assert np.all(nz >= 5 * MB) and np.all(nz <= 10 * MB)

    def test_random_no_isolated_vertices(self):
        g = random_task_graph(20, density=0.02, seed=1)
        touched = (g.volumes.sum(axis=0) + g.volumes.sum(axis=1)) > 0
        assert touched.all()

    def test_random_deterministic(self):
        g1 = random_task_graph(8, seed=5)
        g2 = random_task_graph(8, seed=5)
        np.testing.assert_array_equal(g1.volumes, g2.volumes)

    def test_ring_structure(self):
        g = ring_task_graph(5, volume_bytes=3.0)
        assert g.n_edges == 5
        assert g.volumes[4, 0] == 3.0
        assert g.volumes[0, 1] == 3.0

    def test_stencil_edge_count(self):
        g = stencil_task_graph(3, 4)
        # 2*(rows*(cols-1) + cols*(rows-1)) directed edges.
        assert g.n_edges == 2 * (3 * 3 + 4 * 2)

    def test_vertex_weights(self):
        g = ring_task_graph(4, volume_bytes=1.0)
        np.testing.assert_array_equal(g.vertex_weights(), [2.0, 2.0, 2.0, 2.0])

    def test_diagonal_rejected(self):
        v = np.ones((3, 3))
        with pytest.raises(ValidationError, match="diagonal"):
            TaskGraph(volumes=v)

    def test_negative_rejected(self):
        v = np.zeros((3, 3))
        v[0, 1] = -1.0
        with pytest.raises(ValidationError):
            TaskGraph(volumes=v)

    def test_density_validated(self):
        with pytest.raises(ValidationError):
            random_task_graph(5, density=1.5)


class TestRingMapping:
    def test_identity(self):
        np.testing.assert_array_equal(ring_mapping(4, 4), [0, 1, 2, 3])

    def test_offset_wraps(self):
        np.testing.assert_array_equal(ring_mapping(4, 4, offset=2), [2, 3, 0, 1])

    def test_injective_with_more_machines(self):
        m = ring_mapping(3, 10, offset=8)
        assert len(set(m.tolist())) == 3

    def test_too_few_machines(self):
        with pytest.raises(MappingError):
            ring_mapping(5, 3)


class TestGreedyMapping:
    def test_injective(self):
        g = random_task_graph(10, seed=2)
        bw = np.random.default_rng(3).uniform(1, 5, size=(10, 10))
        m = greedy_mapping(g, bw)
        assert len(set(m.tolist())) == 10

    def test_heaviest_task_gets_heaviest_machine(self):
        # Star task graph: task 0 talks to everyone → heaviest.
        v = np.zeros((4, 4))
        v[0, 1:] = 10.0
        g = TaskGraph(volumes=v)
        # Machine 2 has the best total bandwidth.
        bw = np.ones((4, 4))
        bw[2, :] = bw[:, 2] = 10.0
        np.fill_diagonal(bw, 0.0)
        m = greedy_mapping(g, bw)
        assert m[0] == 2

    def test_heavy_edge_lands_on_fast_link(self):
        v = np.zeros((3, 3))
        v[0, 1] = 100.0
        v[0, 2] = 1.0
        g = TaskGraph(volumes=v)
        bw = np.array(
            [
                [0.0, 9.0, 1.0],
                [9.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        m = greedy_mapping(g, bw)
        # Tasks 0 and 1 (the heavy pair) take machines 0 and 1 (the fast link).
        assert {m[0], m[1]} == {0, 1}

    def test_more_machines_than_tasks(self):
        g = random_task_graph(4, seed=4)
        bw = np.random.default_rng(5).uniform(1, 2, size=(9, 9))
        m = greedy_mapping(g, bw)
        assert m.size == 4 and m.max() < 9

    def test_too_few_machines(self):
        g = random_task_graph(5, seed=6)
        with pytest.raises(MappingError):
            greedy_mapping(g, np.ones((3, 3)))

    def test_disconnected_components_handled(self):
        v = np.zeros((4, 4))
        v[0, 1] = 5.0
        v[2, 3] = 4.0
        g = TaskGraph(volumes=v)
        m = greedy_mapping(g, np.random.default_rng(7).uniform(1, 2, (4, 4)))
        assert len(set(m.tolist())) == 4

    def test_beats_ring_on_skewed_network(self):
        rng = np.random.default_rng(8)
        g = random_task_graph(8, seed=8)
        alpha = np.zeros((8, 8))
        beta = rng.uniform(1e6, 1e8, size=(8, 8))
        np.fill_diagonal(beta, np.inf)
        w = np.zeros((8, 8))
        off = ~np.eye(8, dtype=bool)
        w[off] = 1.0 / beta[off]
        greedy = greedy_mapping(g, bandwidth_from_weights(w))
        ring = ring_mapping(8, 8)
        assert mapping_total_time(g, greedy, alpha, beta) < mapping_total_time(
            g, ring, alpha, beta
        )


def _greedy_reference(task_graph, bandwidth):
    """The greedy mapper as first written: every step re-derives the mapped
    and unmapped index sets and scans their whole connection block."""
    bw = np.asarray(bandwidth, dtype=np.float64)
    n_machines, n_tasks = bw.shape[0], task_graph.n_tasks
    vols = task_graph.volumes
    sym_vols = vols + vols.T
    sym_bw = (bw + bw.T) / 2.0
    np.fill_diagonal(sym_bw, 0.0)
    task_heft = sym_vols.sum(axis=1)
    machine_heft = sym_bw.sum(axis=1)
    mapping = np.full(n_tasks, -1, dtype=np.intp)
    machine_used = np.zeros(n_machines, dtype=bool)
    task_mapped = np.zeros(n_tasks, dtype=bool)

    def seed_pair():
        s0 = int(np.argmax(np.where(task_mapped, -np.inf, task_heft)))
        v0 = int(np.argmax(np.where(machine_used, -np.inf, machine_heft)))
        mapping[s0] = v0
        task_mapped[s0] = True
        machine_used[v0] = True

    seed_pair()
    while not task_mapped.all():
        conn = sym_vols[np.ix_(np.flatnonzero(task_mapped), np.flatnonzero(~task_mapped))]
        if conn.size == 0 or conn.max() <= 0:
            seed_pair()
            continue
        mi, uj = np.unravel_index(int(np.argmax(conn)), conn.shape)
        anchor_task = int(np.flatnonzero(task_mapped)[mi])
        next_task = int(np.flatnonzero(~task_mapped)[uj])
        cand = np.where(machine_used, -np.inf, sym_bw[int(mapping[anchor_task])])
        next_machine = int(np.argmax(cand))
        mapping[next_task] = next_machine
        task_mapped[next_task] = True
        machine_used[next_machine] = True
    return mapping


class TestGreedyMatchesReference:
    """The incremental mapper returns exactly the reference's mappings,
    tie-breaking included, from a bandwidth matrix or a MachineGraph."""

    @staticmethod
    def _volumes(rng, n, kind):
        if kind == "ties":  # few distinct values: many tied connections
            v = rng.integers(0, 3, size=(n, n)).astype(float)
        elif kind == "sparse":
            v = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
        elif kind == "disconnected":  # pairs with equal volumes, no links between
            v = np.zeros((n, n))
            for a in range(0, n - 1, 2):
                v[a, a + 1] = 5.0
        else:  # "uniform": every connection tied
            v = np.full((n, n), 2.0)
        np.fill_diagonal(v, 0.0)
        return v

    @pytest.mark.parametrize("kind", ["ties", "sparse", "disconnected", "uniform"])
    def test_random_graphs(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for trial in range(150):
            n = int(rng.integers(1, 13))
            n_machines = n + int(rng.integers(0, 5))
            if trial % 2:
                bw = rng.integers(1, 4, size=(n_machines, n_machines)).astype(float)
            else:
                bw = rng.random((n_machines, n_machines)) * 1e9
            graph = TaskGraph(volumes=self._volumes(rng, n, kind))
            want = _greedy_reference(graph, bw)
            np.testing.assert_array_equal(greedy_mapping(graph, bw), want)
            np.testing.assert_array_equal(
                greedy_mapping(graph, MachineGraph.from_bandwidth(bw)), want
            )

    def test_paper_scale(self):
        rng = np.random.default_rng(5)
        bw = rng.random((196, 196)) * 1e9
        machines = MachineGraph.from_bandwidth(bw)
        for seed in range(20):
            graph = random_task_graph(16, seed=seed)
            np.testing.assert_array_equal(
                greedy_mapping(graph, machines), _greedy_reference(graph, bw)
            )

    def test_machine_graph_is_read_only(self):
        machines = MachineGraph.from_bandwidth(np.ones((3, 3)))
        assert not machines.affinity.flags.writeable
        assert not machines.heft.flags.writeable
        np.testing.assert_array_equal(np.diagonal(machines.affinity), 0.0)

    def test_machine_graph_too_small(self):
        with pytest.raises(MappingError):
            greedy_mapping(
                ring_task_graph(4), MachineGraph.from_bandwidth(np.ones((3, 3)))
            )


class TestEvaluate:
    def test_total_time_formula(self):
        v = np.zeros((2, 2))
        v[0, 1] = 10.0
        g = TaskGraph(volumes=v)
        alpha = np.array([[0.0, 0.5], [0.5, 0.0]])
        beta = np.array([[np.inf, 2.0], [2.0, np.inf]])
        assert mapping_total_time(g, np.array([0, 1]), alpha, beta) == pytest.approx(5.5)

    def test_bottleneck(self):
        v = np.zeros((3, 3))
        v[0, 1] = 10.0
        v[1, 2] = 2.0
        g = TaskGraph(volumes=v)
        alpha = np.zeros((3, 3))
        beta = np.full((3, 3), 1.0)
        np.fill_diagonal(beta, np.inf)
        assert mapping_bottleneck_time(g, np.array([0, 1, 2]), alpha, beta) == 10.0

    def test_non_injective_rejected(self):
        g = ring_task_graph(3)
        with pytest.raises(MappingError, match="injective"):
            mapping_total_time(g, np.array([0, 0, 1]), np.zeros((3, 3)), np.ones((3, 3)))

    def test_out_of_range_rejected(self):
        g = ring_task_graph(3)
        with pytest.raises(MappingError):
            mapping_total_time(g, np.array([0, 1, 7]), np.zeros((3, 3)), np.ones((3, 3)))

    def test_bandwidth_from_weights(self):
        w = np.array([[0.0, 2.0], [4.0, 0.0]])
        bw = bandwidth_from_weights(w)
        assert bw[0, 1] == pytest.approx(0.5)
        assert bw[1, 0] == pytest.approx(0.25)
        assert bw[0, 0] == 0.0

    def test_bandwidth_from_weights_validates(self):
        with pytest.raises(MappingError):
            bandwidth_from_weights(np.zeros((2, 2)))

    def test_empty_graph_costs_zero(self):
        g = TaskGraph(volumes=np.zeros((2, 2)))
        assert mapping_total_time(g, np.array([0, 1]), np.zeros((2, 2)), np.ones((2, 2))) == 0.0
        assert mapping_bottleneck_time(g, np.array([0, 1]), np.zeros((2, 2)), np.ones((2, 2))) == 0.0
