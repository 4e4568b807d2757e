"""Ablation — RPCA vs plain PCA, and the error-model boundary (Sec II-B).

Two corruption regimes probe the robustness claims:

* **Sparse gross errors** (random cells blown up — interference bursts):
  RPCA's exact regime. PCA's constant row drifts badly; RPCA holds.
* **Snapshot storms** (whole calibration rows scaled — a congestion episode
  during one measurement round): a scaled copy of the constant row is
  itself *low-rank*, so RPCA's sparse term cannot absorb it and the default
  mean extraction drifts exactly like PCA. The column-median extraction
  (``extraction="median"``, or the ``row_constant`` solver) is robust —
  a boundary of the paper's model worth knowing about.
"""

import numpy as np

from repro.core.decompose import decompose
from repro.core.matrices import TPMatrix
from repro.experiments.report import format_table

N, ROWS = 16, 10


def make_base(seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 2.0, size=(N, N))
    np.fill_diagonal(base, 0.0)
    flat = base.ravel()
    data = np.tile(flat, (ROWS, 1))
    data += 0.02 * rng.standard_normal(data.shape) * (flat > 0)
    return rng, np.abs(data), flat


def sparse_corrupted(fraction, seed=0):
    rng, data, flat = make_base(seed)
    hit = (rng.random(data.shape) < fraction) & (flat > 0)
    data = np.where(hit, data * rng.uniform(4, 10, size=data.shape), data)
    return TPMatrix(data=data, n_machines=N), flat


def storm_corrupted(n_storms, seed=0):
    rng, data, flat = make_base(seed)
    for k in rng.choice(ROWS, size=n_storms, replace=False):
        data[k] = flat * rng.uniform(5.0, 10.0)
    return TPMatrix(data=data, n_machines=N), flat


def err(tp, truth, solver, extraction="mean"):
    row = decompose(tp, solver=solver, extraction=extraction).constant.row
    off = truth > 0
    return float(np.median(np.abs(row[off] - truth[off]) / truth[off]))


def run_sweeps():
    sparse = []
    for frac in (0.0, 0.05, 0.15, 0.30):
        tp, truth = sparse_corrupted(frac)
        sparse.append(
            (frac, err(tp, truth, "pca"), err(tp, truth, "ialm"),
             err(tp, truth, "row_constant"))
        )
    storms = []
    for k in (0, 1, 2, 3):
        tp, truth = storm_corrupted(k)
        storms.append(
            (k, err(tp, truth, "pca"), err(tp, truth, "ialm", "mean"),
             err(tp, truth, "ialm", "median"))
        )
    return sparse, storms


def test_ablation_pca_vs_rpca(benchmark, emit):
    sparse, storms = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)

    emit(
        format_table(
            ["corrupted cell fraction", "PCA", "RPCA-IALM", "row-median"],
            sparse,
            title="Ablation A: sparse gross errors (RPCA's regime)",
        )
    )
    emit(
        format_table(
            ["storm snapshots (of 10)", "PCA", "IALM + mean extraction",
             "IALM + median extraction"],
            storms,
            title="Ablation B: whole-snapshot storms (low-rank corruption)",
        )
    )

    # Regime A: PCA drifts with sparse corruption, RPCA does not.
    assert sparse[0][1] < 0.05  # all clean → all accurate
    assert sparse[2][1] > 0.3  # PCA badly off at 15% corruption
    assert sparse[2][2] < 0.05 and sparse[2][3] < 0.05  # robust methods hold
    # Regime B: mean extraction inherits the storms; median extraction holds.
    assert storms[3][2] > 0.5
    assert storms[3][3] < 0.05
