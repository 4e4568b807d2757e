"""Ablation — why not network coordinates? (paper Sec IV-B).

The paper rejects coordinate systems (Vivaldi [11], GNP [30]) for reducing
calibration cost "because the triangle condition is not satisfied" in data
center networks. This bench quantifies that on the EC2-like trace:

1. the weight matrix violates the triangle inequality pervasively,
2. Vivaldi's predicted matrix has large held-out error on DC weights while
   doing fine on genuinely Euclidean distances, and
3. feeding Vivaldi's prediction to FNF loses most of the improvement that
   full calibration + RPCA delivers.
"""

import numpy as np

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.collectives.exec_model import broadcast_time
from repro.collectives.fnf import fnf_tree
from repro.collectives.trees import binomial_tree
from repro.core.decompose import decompose
from repro.experiments.report import format_table
from repro.netmodel.coordinates import triangle_violation_stats, vivaldi_embedding

MB = 1024 * 1024


def euclidean_matrix(n, dims=3, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(n, dims))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


def run_study():
    n = 24
    trace = generate_trace(TraceConfig(n_machines=n, n_snapshots=30), seed=77)
    constant = decompose(
        trace.tp_matrix(8 * MB, start=0, count=10), solver="ialm"
    ).performance_matrix().weights

    tri = triangle_violation_stats(constant)
    viv_dc = vivaldi_embedding(constant, sample_fraction=0.4, seed=1)
    viv_metric = vivaldi_embedding(
        euclidean_matrix(n, seed=2), sample_fraction=0.4, seed=1
    )

    # Downstream effect: FNF from Vivaldi's prediction vs from the RPCA
    # constant, priced on held-out live snapshots.
    pred = viv_dc.predicted.copy()
    off = ~np.eye(n, dtype=bool)
    pred[off] = np.maximum(pred[off], constant[off][constant[off] > 0].min() * 1e-3)
    np.fill_diagonal(pred, 0.0)

    rng = np.random.default_rng(3)
    times = {"Baseline": [], "Vivaldi": [], "RPCA": []}
    for k in range(10, trace.n_snapshots):
        root = int(rng.integers(n))
        a, b = trace.alpha[k], trace.beta[k]
        times["Baseline"].append(
            broadcast_time(binomial_tree(n, root), a, b, 8 * MB)
        )
        times["Vivaldi"].append(broadcast_time(fnf_tree(pred, root), a, b, 8 * MB))
        times["RPCA"].append(broadcast_time(fnf_tree(constant, root), a, b, 8 * MB))
    means = {k: float(np.mean(v)) for k, v in times.items()}
    return tri, viv_dc, viv_metric, means


def test_ablation_network_coordinates(benchmark, emit):
    tri, viv_dc, viv_metric, means = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )

    emit(
        format_table(
            ["quantity", "value"],
            [
                ("triangle violations (fraction of triples)", tri.violation_fraction),
                ("median violation excess", tri.median_excess),
                ("Vivaldi held-out error on DC weights", viv_dc.test_error),
                ("Vivaldi held-out error on Euclidean control", viv_metric.test_error),
            ],
            title="Ablation: are DC weights coordinate-embeddable? (Sec IV-B)",
        )
    )
    emit(
        format_table(
            ["estimate driving FNF", "mean broadcast (s)", "vs Baseline"],
            [(k, v, 1.0 - v / means["Baseline"]) for k, v in means.items()],
            title="Downstream: FNF guided by Vivaldi vs by RPCA",
        )
    )

    # DC weight matrices are far from metric.
    assert tri.violation_fraction > 0.05
    # Vivaldi generalizes clearly worse on DC weights than on a Euclidean
    # control of the same size, and its DC error is material (>15%).
    assert viv_dc.test_error > 1.3 * viv_metric.test_error
    assert viv_dc.test_error > 0.15
    # Full calibration + RPCA beats coordinate-predicted weights downstream.
    assert means["RPCA"] < means["Vivaldi"]
