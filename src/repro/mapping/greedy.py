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
    sym_vols = vols + vols.T
    task_heft = sym_vols.sum(axis=1)

    mapping = np.full(n_tasks, -1, dtype=np.intp)
    machine_used = np.zeros(n_machines, dtype=bool)
    task_mapped = np.zeros(n_tasks, dtype=bool)
    # Kept current as tasks are mapped: each unmapped task's heaviest
    # connection to a mapped task, and the lowest-numbered mapped task with
    # that connection (-inf marks mapped tasks).
    best = np.full(n_tasks, -np.inf)
    anchor = np.zeros(n_tasks, dtype=np.intp)

    def place(task: int, machine: int) -> None:
        mapping[task] = machine
        task_mapped[task] = True
        machine_used[machine] = True
        row = sym_vols[task]
        take = (row > best) | ((row == best) & (anchor > task))
        take &= ~task_mapped
        best[take] = row[take]
        anchor[take] = task
        best[task] = -np.inf

    def seed_pair() -> None:
        s0 = int(np.argmax(np.where(task_mapped, -np.inf, task_heft)))
        v0 = int(np.argmax(np.where(machine_used, -np.inf, machines.heft)))
        place(s0, v0)

    seed_pair()
    for _ in range(n_tasks - 1):
        # Heaviest connection from any mapped task to any unmapped task;
        # ties go to the lowest mapped task, then the lowest unmapped one.
        heaviest = best.max()
        if heaviest <= 0:
            seed_pair()  # disconnected component: restart
            continue
        ties = best == heaviest
        anchor_task = int(anchor[ties].min())
        next_task = int(np.argmax(ties & (anchor == anchor_task)))
        anchor_machine = int(mapping[anchor_task])
        # Best-bandwidth unmapped machine relative to the anchor machine.
        cand = np.where(machine_used, -np.inf, machines.affinity[anchor_machine])
        next_machine = int(np.argmax(cand))
        if not np.isfinite(cand[next_machine]):
            raise MappingError("ran out of machines during greedy expansion")
        place(next_task, next_machine)
    return mapping
