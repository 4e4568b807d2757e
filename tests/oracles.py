"""Plain reference implementations the optimized paths are pinned to.

The serving-path oracles state their model one link, one task or one
machine at a time, with no memoization and no vectorized schedule, so the
library's fast paths must agree with them bit for bit. The re-planning
oracles build ``P_D`` and its α-β pair with boolean off-diagonal masks,
serve a session whose plans build every tree with ``fnf_tree``, and one
whose engine re-solves every streaming trace wrap. The plain IALM loop is
the solver as first written, with a full SVD under every threshold; it is
also the baseline the solver benchmarks time the library against. Shared
by the unit tests and by ``benchmarks/``.
"""

import numpy as np

from repro import observability
from repro._validation import (
    as_float_matrix,
    as_square_matrix,
    check_nonnegative,
    check_positive,
)
from repro.collectives.fnf import fnf_tree
from repro.core.ialm import default_lambda, validate_mask
from repro.core.result import SolverResult
from repro.core.svd_ops import singular_value_threshold, soft_threshold
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


class AlwaysSolveSession(session_module.TraceSession):
    """A ``TraceSession`` whose engine solves every re-calibration: the
    streaming trace-wrap re-solve is never served from the last cold solve."""

    def _calibrate(self, end, *, charge):
        self._engine._solved = None
        super()._calibrate(end, charge=charge)


# -- plain IALM loop -----------------------------------------------------------
# The solver's original loop: full SVD under every threshold, fresh m×n
# temporaries each iteration, Y carried as the dual itself. The library runs
# one workspace loop whose SVT kernel is chosen by shape, so the two agree
# to solver tolerance (≤ 1e-6 of ‖A‖_F) with equal iteration counts, masked
# and unmasked.


def rpca_ialm_plain(
    a,
    lam=None,
    *,
    tol=1e-7,
    max_iter=1000,
    rho=1.5,
    raise_on_fail=False,
    mask=None,
):
    A = as_float_matrix(a, "a")
    m, n = A.shape
    lam_v = default_lambda((m, n)) if lam is None else check_positive(lam, "lam")
    if rho <= 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    omega = validate_mask(mask, A.shape)
    if omega is not None:
        A = np.where(omega, A, 0.0)  # placeholder values must carry no signal

    norm_a = np.linalg.norm(A)
    if norm_a == 0.0:
        zero = np.zeros_like(A)
        return SolverResult(zero, zero.copy(), 0, 0, True, 0.0)

    # Standard IALM initialization (Lin et al. 2010): Y = A / J(A) where
    # J(A) = max(||A||_2, ||A||_inf / λ) makes the initial dual feasible.
    norm_two = float(np.linalg.norm(A, 2))
    norm_inf = float(np.abs(A).max()) / lam_v
    Y = A / max(norm_two, norm_inf)
    mu = 1.25 / norm_two
    mu_bar = mu * 1e7

    D = np.zeros_like(A)
    E = np.zeros_like(A)
    rank = 0
    residual = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        if omega is None:
            M = A - E + Y / mu
            with observability.timed("kernel.svt_seconds"):
                D, rank, _ = singular_value_threshold(M, 1.0 / mu)
            E = soft_threshold(A - D + Y / mu, lam_v / mu)
            Z = A - D - E
        else:
            # Completion trick: off Ω the working matrix carries the current
            # iterate's own values, so the D-step sees no spurious zeros and
            # the constraint only binds on observed entries.
            A_work = np.where(omega, A, D + E)
            M = A_work - E + Y / mu
            with observability.timed("kernel.svt_seconds"):
                D, rank, _ = singular_value_threshold(M, 1.0 / mu)
            E = soft_threshold(A - D + Y / mu, lam_v / mu)
            E *= omega
            Z = (A - D - E) * omega
        Y = Y + mu * Z
        mu = min(mu * rho, mu_bar)
        residual = float(np.linalg.norm(Z) / norm_a)
        if residual < tol:
            converged = True
            break

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"IALM RPCA did not converge in {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return SolverResult(
        low_rank=D,
        sparse=E,
        rank=rank,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )
