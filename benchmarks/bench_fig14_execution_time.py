"""Fig. 14 — Normalized execution time across 16 SPEC workloads x 5
mechanisms (the paper's headline result: AOS ~8.4 % geomean overhead).

Also reports the §IX-A.1 HBT-resize aside (paper: only sphinx3 x1 and
omnetpp x2).
"""

from conftest import publish

from repro.compiler import lower_trace
from repro.cpu.core import Simulator
from repro.experiments.fig14 import run_fig14


def test_fig14_execution_time(suite, benchmark):
    result = run_fig14(suite)
    publish("fig14_execution_time", result.format())

    # Shape assertions against the paper's claims.
    geo = result.geomeans
    assert geo["watchdog"] > geo["aos"] > geo["pa"], "mechanism ordering"
    assert geo["pa+aos"] >= geo["aos"], "PA integrity adds overhead"
    assert 1.02 < geo["aos"] < 1.35, f"AOS geomean {geo['aos']:.3f} vs paper 1.084"
    assert geo["pa"] < 1.05, "PA must be near-free on average"
    # gcc is the worst AOS workload (paper: 2.16x).
    worst = max(result.rows, key=lambda w: result.rows[w]["aos"])
    assert worst == "gcc", f"worst AOS workload is {worst}, paper says gcc"
    # Back-pressure makes some workloads slightly faster than baseline.
    assert any(v < 1.0 for v in (result.rows[w]["aos"] for w in result.rows))
    # §IX-A.1: omnetpp and sphinx3 resize; nothing else does.
    assert result.hbt_resizes["omnetpp"] >= 1
    assert result.hbt_resizes["sphinx3"] >= 1
    assert result.hbt_resizes["gcc"] == 0

    # Benchmark one representative simulation (hmmer under AOS).
    config = suite.config_for("aos")
    lowered = lower_trace(suite.trace("hmmer"), "aos", config)
    benchmark(lambda: Simulator(config).run(lowered))
