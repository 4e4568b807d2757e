"""End-to-end bench — the paper's week-long campaign protocol (Sec V-A).

One run every 30 minutes for a synthetic week (288+ snapshots is a real
week; 72 here keep the bench under a minute), each run executing
application-sized broadcast + scatter + topology mapping under all three
EC2 arms, with the RPCA arm living inside the Algorithm-1 session (three
calibrations in the paper's week; ours re-calibrates when its own
maintenance loop says so). The bottom line is the week's wall clock and
dollar bill per arm.
"""

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments.campaign import run_campaign
from repro.experiments.report import format_table


def test_campaign_protocol(benchmark, emit):
    cfg = TraceConfig(
        n_machines=32,
        n_snapshots=72,  # 1.5 synthetic days at the paper's 30-min cadence
        dynamics=DynamicsConfig(migration_rate=0.01),  # occasional migrations
    )
    trace = generate_trace(cfg, seed=2013)

    result = benchmark.pedantic(
        run_campaign,
        args=(trace,),
        kwargs=dict(time_step=10, threshold=1.0, solver="ialm", seed=0),
        rounds=1,
        iterations=1,
    )

    emit(
        format_table(
            ["arm", "comm (s)", "overhead (s)", "total (s)", "recals", "cost $"],
            result.as_rows(),
            title=(
                "Sec V-A protocol: one run per 30-min slot, 32 VMs "
                f"(mean Norm(N_E) = {sum(result.norm_ne_series) / len(result.norm_ne_series):.3f})"
            ),
        )
    )

    # The paper's bottom line, end to end: RPCA wins the week over Baseline
    # net of all its own overheads, and at least matches the Heuristics arm
    # (see EXPERIMENTS.md on the margin's variance at this scale).
    assert result.improvement("RPCA", "Baseline") > 0.25
    assert result.arm("RPCA").total_seconds <= result.arm("Heuristics").total_seconds * 1.03
    # Re-calibration is rare ("less than once for a day in our experiment").
    assert result.arm("RPCA").recalibrations <= 8
    # And it costs fewer dollars.
    assert result.arm("RPCA").cost_usd <= result.arm("Baseline").cost_usd