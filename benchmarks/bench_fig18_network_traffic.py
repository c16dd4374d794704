"""Fig. 18 — Normalized network traffic (§IX-B).

Bytes on the cache-to-cache and LLC-to-DRAM links, normalized to the
unprotected baseline.  Paper: Watchdog +31 % and PA+AOS +18 % on average;
gcc, povray and omnetpp are the AOS-heavy outliers.
"""

from conftest import publish

from repro.compiler import lower_trace
from repro.experiments.fig18 import run_fig18


def test_fig18_network_traffic(suite, benchmark):
    result = run_fig18(suite)
    publish("fig18_network_traffic", result.format())

    geo = result.geomeans
    # Watchdog moves the most metadata (24B records vs 8B bounds).
    assert geo["watchdog"] > geo["pa+aos"]
    # PA adds no metadata traffic at all.
    assert geo["pa"] == 1.0
    # AOS traffic overhead is positive but moderate.
    assert 1.0 <= geo["pa+aos"] < 1.35, f"{geo['pa+aos']:.3f} vs paper 1.18"
    # The paper's three AOS outliers are the heaviest rows.
    aos = {w: row["aos"] for w, row in result.rows.items()}
    heaviest = sorted(aos, key=aos.get, reverse=True)[:5]
    assert set(heaviest) & {"gcc", "povray", "omnetpp"}, heaviest

    # Benchmark the traffic-accounting hierarchy on one workload.
    from repro.cpu.core import Simulator

    config = suite.config_for("watchdog")
    lowered = lower_trace(suite.trace("povray"), "watchdog", config)
    benchmark(lambda: Simulator(config).run(lowered))
