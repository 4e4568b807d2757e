"""Greedy heuristic topology mapping (paper Sec II-C, after Hoefler & Snir).

Inputs: the task graph G (edge weight = data volume) and the machine graph H
(edge weight = network bandwidth; for a virtual cluster H is complete, built
from the all-link performance matrix). The algorithm:

1. Map the heaviest machine vertex ``v0`` (largest total bandwidth over its
   links) to the heaviest task vertex ``s0`` (largest total data volume).
2. Repeatedly expand from already-mapped pairs: the mapped pair whose task
   has the heaviest connection to an unmapped task wins; that neighbor task
   is mapped to the unmapped machine with the best bandwidth to the already
   mapped machine.
3. Disconnected remainders restart from step 1 among unmapped vertices.

This keeps the paper's intent exactly — "the task with the largest data
volume to transfer is mapped to the machines with the highest total
bandwidth of all its associated links", then heaviest neighbors to heaviest
connections — while being deterministic about tie order (lowest index wins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_square_matrix
from ..errors import MappingError
from .taskgraph import TaskGraph

__all__ = ["MachineGraph", "greedy_mapping"]


@dataclass(frozen=True)
class MachineGraph:
    """The machine graph H as :func:`greedy_mapping` uses it.

    It depends on the bandwidth matrix alone, so a caller that maps many
    task graphs onto one machine graph (a session between re-calibrations)
    builds it once with :meth:`from_bandwidth` and passes it instead of
    the matrix.
    """

    #: Symmetrized bandwidth ``(bw + bwᵀ)/2`` with a zero diagonal (read-only).
    affinity: np.ndarray
    #: Total affinity of each machine over its links (read-only).
    heft: np.ndarray

    @classmethod
    def from_bandwidth(cls, bandwidth: np.ndarray) -> "MachineGraph":
        bw = as_square_matrix(bandwidth, "bandwidth")
        affinity = (bw + bw.T) / 2.0
        np.fill_diagonal(affinity, 0.0)
        heft = affinity.sum(axis=1)
        affinity.setflags(write=False)
        heft.setflags(write=False)
        return cls(affinity=affinity, heft=heft)

    @property
    def n_machines(self) -> int:
        return self.affinity.shape[0]


def greedy_mapping(
    task_graph: TaskGraph, bandwidth: np.ndarray | MachineGraph
) -> np.ndarray:
    """Map tasks to machines greedily by volume/bandwidth affinity.

    Parameters
    ----------
    task_graph:
        The communication pattern G.
    bandwidth:
        N×N machine-graph weights where *larger* is better (bytes/second or
        any monotone proxy), or a :class:`MachineGraph` built from them.
        Must cover at least ``n_tasks`` machines; with more machines than
        tasks the heaviest machines are used.

    Returns
    -------
    numpy.ndarray
        ``mapping[task] = machine`` with distinct machines per task.
    """
    machines = (
        bandwidth
        if isinstance(bandwidth, MachineGraph)
        else MachineGraph.from_bandwidth(bandwidth)
    )
    n_machines = machines.n_machines
    n_tasks = task_graph.n_tasks
    if n_machines < n_tasks:
        raise MappingError(
            f"{n_tasks} tasks cannot map onto {n_machines} machines"
        )
    vols = task_graph.volumes
    # Symmetrized affinity: communication in either direction binds a pair.
    conn = vols + vols.T
    task_heft = conn.sum(axis=1)
    # 0 while a task (machine) is free, -inf once mapped (used): adding a
    # gate to a row masks the taken entries out of an argmax or a maximum.
    task_gate = np.zeros(n_tasks)
    machine_gate = np.zeros(n_machines)
    # Each unmapped task's heaviest connection to a mapped task (-inf marks
    # mapped tasks). Which mapped task holds it is looked up only for the
    # task that is picked, so a placement costs two numpy calls.
    best = np.full(n_tasks, -np.inf)
    mapping = [-1] * n_tasks

    def place(task: int, machine: int) -> None:
        mapping[task] = machine
        task_gate[task] = -np.inf
        machine_gate[machine] = -np.inf
        np.maximum(best, conn[task] + task_gate, out=best)
        best[task] = -np.inf

    def seed_pair() -> None:
        s0 = int((task_heft + task_gate).argmax())
        v0 = int((machines.heft + machine_gate).argmax())
        place(s0, v0)

    seed_pair()
    last = n_tasks - 1
    for _ in range(last):
        # Heaviest connection from any mapped task to any unmapped task;
        # ties go to the lowest mapped task, then the lowest unmapped one.
        next_task = int(best.argmax())
        heaviest = best.item(next_task)
        if heaviest <= 0:
            seed_pair()  # disconnected component: restart
            continue
        # The lowest task at that volume, anchored to the lowest mapped
        # task it has that volume with (conn is symmetric: read its row).
        row = conn[next_task].tolist()
        anchor_task = row.index(heaviest)
        while mapping[anchor_task] < 0:
            anchor_task = row.index(heaviest, anchor_task + 1)
        if anchor_task and best[::-1].argmax() != last - next_task:
            # Other tasks tie: a mapped task below the anchor at that
            # volume with any of them takes over, with its lowest tied task.
            ties = (best == heaviest).nonzero()[0]
            lower = conn[ties, :anchor_task] == heaviest
            reach = lower.any(axis=0) & (task_gate[:anchor_task] < 0)
            below = int(reach.argmax())
            if reach[below]:
                anchor_task = below
                next_task = int(ties[lower[:, below].argmax()])
        # Best-bandwidth unused machine relative to the anchor machine.
        cand = machines.affinity[mapping[anchor_task]] + machine_gate
        next_machine = int(cand.argmax())
        if machine_gate[next_machine]:
            raise MappingError("ran out of machines during greedy expansion")
        place(next_task, next_machine)
    return np.array(mapping, dtype=np.intp)
