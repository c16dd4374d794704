"""Fault-injection campaign: detection coverage and per-cell cost.

Runs the ``faultinject --quick`` campaign (every fault kind, two
workloads) for real, asserts the §VII acceptance claims — the host always
survives (every fault lands in the outcome taxonomy) and spatial/temporal
pointer-corruption faults are detected — then benchmarks a single
injection cell end to end.
"""

from conftest import publish

from repro.faults import (
    Campaign,
    CampaignConfig,
    FaultKind,
    FaultSpec,
    RunOutcome,
)
from repro.faults.campaign import run_campaign_cell


def test_fault_campaign(benchmark):
    result = Campaign(CampaignConfig.quick()).run()
    publish("fault_campaign", result.format_report())

    # Every injected fault landed in the taxonomy; none escaped to the host.
    assert result.host_survived
    assert result.outcomes()[RunOutcome.CRASHED] == 0

    # The acceptance bucket: spatial/temporal pointer corruption >= 90%.
    assert result.pointer_corruption_rate >= 0.9, result.format_report()

    # Expected detections were detected (silent cells are the by-design
    # undetectable kinds, flagged expect_detection=False at injection).
    for cell in result.results:
        if cell.expect_detection:
            assert cell.outcome is RunOutcome.DETECTED, cell

    # Benchmark one representative cell: populate + inject + probe.
    config = CampaignConfig.quick()
    spec = FaultSpec(kind=FaultKind.PTR_PAC_FLIP, location=0, seed=7)
    benchmark(lambda: run_campaign_cell(config, "gcc", "aos", spec))
