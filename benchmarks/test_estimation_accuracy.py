"""Sec V-D3 — accuracy of the trace-replay performance estimation.

The paper validates its replay methodology by comparing estimated
performance distributions against real measurements: "the average
difference is only 18% and 9% for baseline and RPCA, respectively."

Here the "real measurement" is a broadcast executed flow-by-flow inside the
simulator (competing with live background traffic), and the estimate is the
α-β pricing of the same tree on the most recent calibrated snapshot. The
RPCA tree's estimates are more accurate than the Baseline tree's because
FNF deliberately routes over the *stable* links — the same reason the paper
observed 9% vs 18%.

The study pools five independent scenarios (simulator seeds 17-21, 20
broadcasts each). One scenario's broadcasts share a single simulator sample
path, so its two means carry standard errors near 0.03 — as large as the
gap being ranked — and an exactly tied FNF pick that falls the other way on
a 1e-11 change to ``P_D`` moves them by that much.
"""

import numpy as np

from repro.collectives.fnf import fnf_tree
from repro.collectives.trees import binomial_tree
from repro.collectives.exec_model import broadcast_time
from repro.core.decompose import decompose
from repro.experiments.netsim_support import build_scenario, calibrate_netsim_trace
from repro.experiments.report import format_table
from repro.netsim.background import BackgroundConfig
from repro.netsim.collective_runner import run_broadcast_in_sim
from repro.netsim.topology import GBIT

MB = 1024 * 1024


SCENARIO_SEEDS = (17, 18, 19, 20, 21)
REPS_PER_SCENARIO = 20


def scenario_diffs(seed: int) -> dict[str, list[float]]:
    scenario = build_scenario(
        n_racks=8,
        servers_per_rack=8,
        cluster_size=16,
        background=BackgroundConfig(
            n_pairs=48, message_bytes=100 * MB, mean_wait_seconds=2.0
        ),
        core_bandwidth=2.5 * GBIT,
        seed=seed,
    )
    trace = calibrate_netsim_trace(scenario, n_snapshots=10, gap_seconds=15.0)
    constant = decompose(
        trace.tp_matrix(8 * MB), solver="apg"
    ).performance_matrix().weights

    n = scenario.n_machines
    rng = np.random.default_rng(5)
    diffs: dict[str, list[float]] = {"Baseline": [], "RPCA": []}
    for rep in range(REPS_PER_SCENARIO):
        root = int(rng.integers(n))
        trees = {
            "Baseline": binomial_tree(n, root),
            "RPCA": fnf_tree(constant, root),
        }
        # Fresh calibrated snapshot = the estimate's input; then measure.
        for name, tree in trees.items():
            k = rep % trace.n_snapshots
            est = broadcast_time(tree, trace.alpha[k], trace.beta[k], 8 * MB)
            measured = run_broadcast_in_sim(
                scenario.sim, tree, scenario.machines, 8 * MB
            ).elapsed
            diffs[name].append(abs(est - measured) / measured)
            scenario.sim.run_until(scenario.sim.now + 5.0)  # decorrelate reps
    return diffs


def run_study():
    pooled: dict[str, list[float]] = {"Baseline": [], "RPCA": []}
    for seed in SCENARIO_SEEDS:
        for name, values in scenario_diffs(seed).items():
            pooled[name].extend(values)
    return {name: float(np.mean(v)) for name, v in pooled.items()}


def test_estimation_accuracy(benchmark, emit):
    mean_diff = benchmark.pedantic(run_study, rounds=1, iterations=1)

    emit(
        format_table(
            ["tree", "mean |estimate − measured| / measured"],
            list(mean_diff.items()),
            title=(
                "Sec V-D3: trace-replay estimation accuracy "
                "(paper: 18% baseline, 9% RPCA)"
            ),
        )
    )

    # Estimates are usable for both arms ...
    assert mean_diff["Baseline"] < 0.6
    assert mean_diff["RPCA"] < 0.4
    # ... and the RPCA tree's estimates are the more accurate ones.
    assert mean_diff["RPCA"] < mean_diff["Baseline"]
