"""Extensions bench — scientific workflows and monetary cost (paper Sec VI).

The paper's future work: evaluate the approach on scientific workflows and
study its economic impact. This bench maps a Montage-shaped workflow onto an
EC2-like cluster with each strategy, replays the makespans, and prices the
runs under 2013 hourly billing and modern per-second billing.
"""

import numpy as np

from repro.apps.workflow import montage_like_workflow, workflow_makespan
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.economics.pricing import BillingGranularity, InstancePricing
from repro.economics.savings import savings_report
from repro.experiments.harness import ReplayContext
from repro.experiments.report import format_table
from repro.mapping.evaluate import bandwidth_from_weights
from repro.mapping.greedy import greedy_mapping
from repro.mapping.ring import ring_mapping
from repro.strategies import BaselineStrategy, HeuristicStrategy, RPCAStrategy

MB = 1024 * 1024


def run_workflow_comparison():
    n = 24
    trace = generate_trace(TraceConfig(n_machines=n, n_snapshots=30), seed=44)
    ctx = ReplayContext(trace=trace, time_step=10)
    arms = [
        BaselineStrategy(),
        HeuristicStrategy("mean"),
        RPCAStrategy("ialm", time_step=10),
    ]
    ctx.fit(arms)
    # Heavy tiles + light stage computation make the workflow communication-
    # bound, like the paper's network-bound applications.
    wf = montage_like_workflow(
        width=10, tile_bytes=400 * MB, seed=2,
        project_seconds=2.0, overlap_seconds=1.0, combine_seconds=5.0,
    )
    g, order = wf.task_graph()

    makespans: dict[str, list[float]] = {a.name: [] for a in arms}
    for rep in range(20):
        k = ctx.eval_snapshot(rep)
        alpha, beta = trace.alpha[k], trace.beta[k]
        for a in arms:
            if a.mapping_algorithm == "ring":
                assignment = ring_mapping(len(order), n, offset=rep)
            else:
                w = a.weight_matrix()
                assignment = greedy_mapping(g, bandwidth_from_weights(w))
            makespans[a.name].append(workflow_makespan(wf, assignment, alpha, beta))
    return {name: float(np.mean(v)) for name, v in makespans.items()}, n


def test_extension_workflow_and_economics(benchmark, emit):
    means, n = benchmark.pedantic(run_workflow_comparison, rounds=1, iterations=1)

    emit(
        format_table(
            ["strategy", "mean workflow makespan (s)", "normalized"],
            [(k, v, v / means["Baseline"]) for k, v in means.items()],
            title="Extension: Montage-like workflow mapping, 24 VMs",
        )
    )

    # Network-aware mapping shortens the workflow.
    assert means["RPCA"] < means["Baseline"]

    # Economics: amortize over a campaign of 50 workflow runs so the time
    # gain crosses billing quanta; compare billing models.
    from repro.calibration.overhead import calibration_overhead_seconds

    campaign = 50
    overhead = calibration_overhead_seconds(n, 10)  # one calibration, Fig 4 model
    rows = []
    for granularity in (BillingGranularity.HOURLY, BillingGranularity.PER_SECOND):
        pricing = InstancePricing(granularity=granularity)
        rep = savings_report(
            strategy="RPCA",
            baseline_elapsed_seconds=means["Baseline"] * campaign,
            strategy_elapsed_seconds=means["RPCA"] * campaign,
            strategy_overhead_seconds=overhead,
            n_instances=n,
            pricing=pricing,
        )
        rows.append(
            (granularity.value, rep.baseline_cost, rep.strategy_cost,
             rep.savings, f"{rep.savings_fraction:.1%}")
        )
    emit(
        format_table(
            ["billing", "baseline $", "RPCA $", "savings $", "savings %"],
            rows,
            title=f"Extension: cost of a {campaign}-run campaign at 2013 pricing",
        )
    )
    # Per-second billing always monetizes the gain.
    per_second = rows[1]
    assert per_second[3] > 0.0
