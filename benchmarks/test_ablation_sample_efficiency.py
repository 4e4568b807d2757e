"""Ablation — sample efficiency of the estimators (paper Sec V-A).

The paper dismisses distribution-based per-link optimization: "in order to
get the meaningful distribution, excessive measurements are required and
the overhead is unacceptably high in practice." This bench measures each
estimator's *self-convergence*: the distance between its estimate from a
``time_step``-snapshot prefix and its own estimate from the whole 80-row
trace. RPCA stabilizes within a handful of snapshots; the per-link mean is
dragged by heavy-tailed interference samples; the tail percentile (p90)
needs 2-4x more snapshots — i.e. 2-4x the Fig-4 calibration cost — to reach
comparable stability, confirming the paper's overhead argument.
"""

import numpy as np

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.metrics import relative_difference
from repro.experiments.report import format_table
from repro.strategies.heuristics import HeuristicStrategy

MB = 1024 * 1024
TIME_STEPS = (3, 5, 10, 20, 40)
ESTIMATORS = ("RPCA", "mean", "percentile-90")


def estimate(kind: str, tp) -> np.ndarray:
    if kind == "RPCA":
        return decompose(tp, solver="ialm").constant.row
    if kind == "mean":
        h = HeuristicStrategy("mean")
    else:
        h = HeuristicStrategy("percentile", percentile=90.0)
    h.fit(tp)
    return h.weight_matrix().ravel()


def run_study():
    trace = generate_trace(TraceConfig(n_machines=32, n_snapshots=80), seed=55)
    full = trace.tp_matrix(8 * MB)
    asymptote = {k: estimate(k, full) for k in ESTIMATORS}
    curves: dict[str, list[float]] = {k: [] for k in ESTIMATORS}
    for ts in TIME_STEPS:
        tp = trace.tp_matrix(8 * MB, start=0, count=ts)
        for k in ESTIMATORS:
            curves[k].append(relative_difference(estimate(k, tp), asymptote[k]))
    return curves


def test_ablation_sample_efficiency(benchmark, emit):
    curves = benchmark.pedantic(run_study, rounds=1, iterations=1)

    rows = [
        (ts, *(curves[k][i] for k in ESTIMATORS))
        for i, ts in enumerate(TIME_STEPS)
    ]
    emit(
        format_table(
            ["time step", *ESTIMATORS],
            rows,
            title=(
                "Ablation: self-convergence (distance to own 80-snapshot "
                "asymptote) vs snapshots used"
            ),
        )
    )

    i10 = TIME_STEPS.index(10)
    # At the paper's practical time step, RPCA has essentially converged ...
    assert curves["RPCA"][i10] < 0.05
    # ... while the per-link estimators are still far from their asymptotes.
    assert curves["mean"][i10] > 3.0 * curves["RPCA"][i10]
    assert curves["percentile-90"][i10] > 3.0 * curves["RPCA"][i10]
    # The percentile estimator needs ~2-4x the snapshots (= calibration
    # cost) to reach the stability RPCA had at ten.
    assert curves["percentile-90"][TIME_STEPS.index(20)] < curves["percentile-90"][i10]
    # Everyone converges eventually.
    for k in ESTIMATORS:
        assert curves[k][-1] <= curves[k][0]
