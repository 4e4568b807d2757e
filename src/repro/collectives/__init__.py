"""MPI collective operations over communication trees (paper Sec II-C).

The optimizer-facing pieces are the tree *constructors* — the MPICH-order
binomial tree (the Baseline) and Fastest-Node-First (the network-aware
choice) — and the *execution model* that prices a tree under the α-β model
for broadcast, scatter, reduce and gather.
"""

from .trees import CommTree, binomial_tree
from .fnf import FnfPicks, fnf_tree
from .exec_model import (
    broadcast_time,
    scatter_time,
    scatterv_time,
    reduce_time,
    gather_time,
    gatherv_time,
    collective_time,
)
from .operations import Collective, build_tree, run_collective
from .composites import (
    CompositeTiming,
    alltoall_time,
    allgather_time,
    allreduce_time,
)
from .multiprocess import expand_to_processes, process_hosts

__all__ = [
    "expand_to_processes",
    "process_hosts",
    "CompositeTiming",
    "alltoall_time",
    "allgather_time",
    "allreduce_time",
    "CommTree",
    "binomial_tree",
    "FnfPicks",
    "fnf_tree",
    "broadcast_time",
    "scatter_time",
    "scatterv_time",
    "reduce_time",
    "gather_time",
    "gatherv_time",
    "collective_time",
    "Collective",
    "build_tree",
    "run_collective",
]
