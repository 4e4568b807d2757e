"""Generic topology mapping (paper Sec II-C, Hoefler & Snir [19]).

Assign tasks to machines so that heavy task-graph edges land on fast links.
The network-aware algorithm is the greedy heuristic; the Baseline is ring
(identity) mapping. Mapping quality is evaluated against a live (α, β)
snapshot.
"""

from .taskgraph import TaskGraph, random_task_graph, ring_task_graph, stencil_task_graph
from .greedy import MachineGraph, greedy_mapping
from .ring import ring_mapping
from .evaluate import mapping_total_time, mapping_bottleneck_time, bandwidth_from_weights

__all__ = [
    "TaskGraph",
    "random_task_graph",
    "ring_task_graph",
    "stencil_task_graph",
    "greedy_mapping",
    "MachineGraph",
    "ring_mapping",
    "mapping_total_time",
    "mapping_bottleneck_time",
    "bandwidth_from_weights",
]
