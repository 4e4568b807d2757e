"""Plain reference implementations the optimized serving path is pinned to.

Each oracle states its model one link, one task or one machine at a time,
with no memoization and no vectorized schedule, so the library's fast
paths must agree with it bit for bit. Shared by the unit tests and by
``benchmarks/test_serving_path.py``.
"""

import numpy as np

from repro.errors import ValidationError

# -- per-edge reference ------------------------------------------------------
# The plain schedule, one link at a time, exactly as the α-β model states it.
# The library prices a whole tree with one gather; both must agree bit for bit.


def _ref_cost(alpha, beta, src, dst, nbytes):
    b = beta[src, dst]
    if not b > 0:
        raise ValidationError(f"non-positive bandwidth on link ({src}, {dst})")
    return float(alpha[src, dst] + nbytes / b)


def _ref_order(tree):
    order = [tree.root]
    for u in order:
        order.extend(tree.children[u])
    return order


def _ref_fan_out(tree, alpha, beta, child_bytes):
    arrival = np.zeros(tree.n_nodes)
    for u in _ref_order(tree):
        t_free = arrival[u]
        for c in tree.children[u]:
            t_free += _ref_cost(alpha, beta, u, c, child_bytes[c])
            arrival[c] = t_free
    return float(arrival.max())


def _ref_fan_in(tree, alpha, beta, child_bytes):
    finish = np.zeros(tree.n_nodes)
    for u in reversed(_ref_order(tree)):
        t = 0.0
        for c in reversed(tree.children[u]):
            t = max(t, float(finish[c])) + _ref_cost(alpha, beta, c, u, child_bytes[c])
        finish[u] = t
    return float(finish[tree.root])


def _ref_subtree_payloads(tree, block_sizes):
    payload = np.asarray(block_sizes, dtype=np.float64).copy()
    for u in reversed(_ref_order(tree)):
        for c in tree.children[u]:
            payload[u] += payload[c]
    return payload


def reference_times(tree, alpha, beta, nbytes, block_sizes):
    n = tree.n_nodes
    sizes = tree.subtree_sizes()
    full = np.full(n, float(nbytes))
    payload = _ref_subtree_payloads(tree, block_sizes)
    return {
        "broadcast": _ref_fan_out(tree, alpha, beta, [nbytes] * n),
        "scatter": _ref_fan_out(tree, alpha, beta, [nbytes * s for s in sizes]),
        "reduce": _ref_fan_in(tree, alpha, beta, full),
        "gather": _ref_fan_in(tree, alpha, beta, sizes.astype(np.float64) * float(nbytes)),
        "scatterv": _ref_fan_out(tree, alpha, beta, payload),
        "gatherv": _ref_fan_in(tree, alpha, beta, payload),
    }


def greedy_reference(task_graph, bandwidth):
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
