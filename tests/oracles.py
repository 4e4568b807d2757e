"""Plain reference implementations the optimized paths are pinned to.

The serving-path oracles state their model one link, one task or one
machine at a time, with no memoization and no vectorized schedule, so the
library's fast paths must agree with them bit for bit. The re-planning
oracles build ``P_D`` and its α-β pair with boolean off-diagonal masks, and
serve a session whose plans build every tree with ``fnf_tree``. The APG oracle is
the unmasked loop written block by block (separate ``D``, ``E`` and
momentum buffers); the library's fused loop reorders its floating point,
so the two agree to ~1e-12 relative with equal iteration counts. Shared by
the unit tests and by ``benchmarks/``.
"""

import numpy as np

from repro._validation import as_square_matrix, check_nonnegative
from repro.collectives.fnf import fnf_tree
from repro.core.apg import default_lambda
from repro.core.kernels import SVTKernel
from repro.core.result import SolverResult
from repro.core.svd_ops import soft_threshold, spectral_norm
from repro.errors import ConvergenceError, ValidationError
from repro.runtime import session as session_module

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


# -- re-planning references ---------------------------------------------------
# P_D, its checks and its α-β pair as first written, with ~np.eye masks; and
# a session whose serving plans never keep a tree across a change of P_D.


def performance_matrix_reference(row, n_machines, clip_floor=None):
    """``TCMatrix.performance_matrix`` weights, with boolean-mask gathers."""
    w = np.asarray(row, dtype=np.float64).reshape(n_machines, n_machines).copy()
    np.fill_diagonal(w, 0.0)
    off = ~np.eye(n_machines, dtype=bool)
    if n_machines > 1:
        positive = w[off][w[off] > 0]
        if positive.size == 0:
            raise ValidationError("constant component has no positive weights")
        floor = clip_floor if clip_floor is not None else float(positive.min()) * 1e-3
        w[off] = np.maximum(w[off], floor)
    return w


def check_performance_matrix_reference(weights):
    """``PerformanceMatrix``'s checks, with a boolean-mask gather."""
    w = as_square_matrix(weights, "weights")
    if np.any(np.diagonal(w) != 0.0):
        raise ValidationError("PerformanceMatrix diagonal must be zero")
    off = ~np.eye(w.shape[0], dtype=bool)
    if w.shape[0] > 1 and np.any(w[off] <= 0.0):
        raise ValidationError("off-diagonal weights must be positive")
    return w


def weights_to_alphabeta_reference(weights, nbytes):
    """``weights_to_alphabeta`` with boolean-mask gathers and scatter."""
    w = as_square_matrix(weights, "weights")
    check_nonnegative(nbytes, "nbytes")
    off = ~np.eye(w.shape[0], dtype=bool)
    if np.any(w[off] <= 0):
        raise ValidationError("weights must be positive off-diagonal")
    beta = np.full_like(w, np.inf)
    beta[off] = nbytes / w[off]
    return np.zeros_like(w), beta


class _FreshTreePlan(session_module._ServingPlan):
    """A serving plan that builds every tree with ``fnf_tree``."""

    def tree(self, root):
        tree = self._trees.get(root)
        if tree is None:
            tree = self._trees[root] = fnf_tree(self.weights, root)
        return tree


class FreshTreeSession(session_module.TraceSession):
    """A ``TraceSession`` whose plans never reuse a tree of an earlier
    ``P_D``: one ``fnf_tree`` per root and plan, as before certified reuse."""

    def _serving_plan(self):
        plan = self._plan
        if plan is None or plan.decomposition is not self._decomposition:
            plan = self._plan = _FreshTreePlan(self.decomposition)
        return plan


# -- unmasked APG reference --------------------------------------------------
# The unmasked partial-backend APG loop as it was before the fused carrier:
# the momentum state rides in F = D − E, with T = Y_D − Y_E the proximal
# inputs are M_D = (T + A)/2 and M_E = A − M_D, and the stationarity blocks
# satisfy S_E = −S_D = −(T − (D₊ − E₊)). One plain ufunc per operation.


def apg_unmasked_reference(
    a,
    lam=None,
    *,
    tol=1e-7,
    max_iter=500,
    eta=0.9,
    mu_floor_factor=1e-9,
    raise_on_fail=False,
    warm_start=None,
    warm_mu_factor=0.1,
    svd_backend="auto",
):
    A = np.ascontiguousarray(a, dtype=np.float64)
    lam_v = default_lambda(A.shape) if lam is None else float(lam)
    norm_a = np.linalg.norm(A)
    kernel = SVTKernel(A.shape, svd_backend)
    mu_top = spectral_norm(A)
    mu_bar = mu_floor_factor * 0.99 * mu_top
    warm = warm_start is not None
    if warm:
        D, E = (np.array(x, dtype=np.float64) for x in warm_start)
        mu = max(mu_bar, warm_mu_factor * mu_top)
    else:
        D, E = np.zeros_like(A), np.zeros_like(A)
        mu = 0.99 * mu_top
    F = D - E
    Fp = F.copy()
    t, t_prev = 1.0, 1.0
    rank, residual, converged, iterations = 0, np.inf, False, 0
    for iterations in range(1, max_iter + 1):
        beta = (t_prev - 1.0) / t
        T = (1.0 + beta) * F - beta * Fp
        MD = 0.5 * (T + A)
        D, rank, _ = kernel.svt(MD, mu / 2.0)
        E = soft_threshold(A - MD, lam_v * mu / 2.0)
        Fp, F = F, D - E
        residual = float(np.sqrt(2.0) * np.linalg.norm(T - F) / norm_a)
        t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        mu = max(eta * mu, mu_bar)
        if residual < tol:
            converged = True
            break
    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"APG RPCA did not converge in {max_iter} iterations",
            iterations=iterations,
            residual=residual,
        )
    return SolverResult(D, E, rank, iterations, converged, residual, warm_started=warm)
