#!/usr/bin/env python3
"""Extensions: scientific workflows and monetary cost (paper Sec VI).

The paper's future work, built out: map a Montage-shaped workflow DAG onto a
virtual cluster with each strategy, then price a whole campaign of runs at
2013 EC2 hourly billing vs modern per-second billing.

Run:  python examples/workflow_economics.py
"""

from __future__ import annotations

import numpy as np

from repro import BaselineStrategy, HeuristicStrategy, RPCAStrategy, TraceConfig, generate_trace
from repro.apps.workflow import montage_like_workflow, workflow_makespan
from repro.calibration.overhead import calibration_overhead_seconds
from repro.economics.pricing import BillingGranularity, InstancePricing
from repro.economics.savings import savings_report
from repro.experiments.harness import ReplayContext
from repro.experiments.report import format_table
from repro.mapping.evaluate import bandwidth_from_weights
from repro.mapping.greedy import greedy_mapping
from repro.mapping.ring import ring_mapping

MB = 1024 * 1024


def main() -> None:
    n = 24
    trace = generate_trace(TraceConfig(n_machines=n, n_snapshots=30), seed=44)
    ctx = ReplayContext(trace=trace, time_step=10)
    arms = [
        BaselineStrategy(),
        HeuristicStrategy("mean"),
        RPCAStrategy("ialm", time_step=10),
    ]
    ctx.fit(arms)

    wf = montage_like_workflow(
        width=10, tile_bytes=400 * MB, seed=2,
        project_seconds=2.0, overlap_seconds=1.0, combine_seconds=5.0,
    )
    g, order = wf.task_graph()
    print(f"workflow: {wf.n_stages} stages, {g.n_edges} data-flow edges, "
          f"{g.total_volume() / MB:.0f} MB moved per run\n")

    makespans: dict[str, list[float]] = {a.name: [] for a in arms}
    for rep in range(20):
        k = ctx.eval_snapshot(rep)
        for a in arms:
            if a.mapping_algorithm == "ring":
                assignment = ring_mapping(len(order), n, offset=rep)
            else:
                assignment = greedy_mapping(
                    g, bandwidth_from_weights(a.weight_matrix())
                )
            makespans[a.name].append(
                workflow_makespan(wf, assignment, trace.alpha[k], trace.beta[k])
            )
    means = {k: float(np.mean(v)) for k, v in makespans.items()}
    print(format_table(
        ["strategy", "mean makespan (s)", "normalized"],
        [(k, v, v / means["Baseline"]) for k, v in means.items()],
        title="Montage-like workflow on 24 VMs (20 replayed runs)",
    ))

    campaign = 50
    overhead = calibration_overhead_seconds(n, 10)
    print(f"\ncampaign: {campaign} runs; one calibration ({overhead:.0f}s) amortized")
    rows = []
    for granularity in (BillingGranularity.HOURLY, BillingGranularity.PER_SECOND):
        rep = savings_report(
            strategy="RPCA",
            baseline_elapsed_seconds=means["Baseline"] * campaign,
            strategy_elapsed_seconds=means["RPCA"] * campaign,
            strategy_overhead_seconds=overhead,
            n_instances=n,
            pricing=InstancePricing(granularity=granularity),
        )
        rows.append((granularity.value, rep.baseline_cost, rep.strategy_cost,
                     rep.savings, f"{rep.savings_fraction:.1%}",
                     "yes" if rep.pays_off else "no"))
    print(format_table(
        ["billing", "baseline $", "RPCA $", "saved $", "saved %", "pays off"],
        rows,
        title="Campaign cost at 2013 m1.medium pricing ($0.12/h x 24 instances)",
    ))
    print("\nhourly billing quantizes savings; per-second billing monetizes "
          "every shaved second — the economics the paper flagged as future work")


if __name__ == "__main__":
    main()
