"""Fig. 15 — L1-B cache and bounds-compression ablation (§IX-A).

Paper: both optimisations matter; the L1-B cache removes ~10 % of the
overhead, compression another ~3 %, and gcc/omnetpp improve the most.
"""

from conftest import publish

from repro.compiler import lower_trace
from repro.cpu.core import Simulator
from repro.experiments.fig15 import run_fig15

#: The paper's Fig. 15 highlights only need the pollution-prone workloads;
#: running all 16 here quadruples the (already covered) Fig. 14 sweep.
WORKLOADS = ["bzip2", "gcc", "hmmer", "povray", "omnetpp", "sphinx3", "milc", "lbm"]


def test_fig15_optimizations(suite, benchmark):
    result = run_fig15(suite, workloads=WORKLOADS)
    publish("fig15_optimizations", result.format())

    geo = result.geomeans
    # Both optimisations together must beat no optimisation on average.
    assert geo["l1b+compression"] < geo["no-opt"]
    # Each single optimisation helps on average.
    assert geo["l1b"] <= geo["no-opt"] * 1.01
    assert geo["compression"] <= geo["no-opt"] * 1.01
    # gcc and omnetpp benefit the most in the paper (60 % / 68 % lower).
    for workload in ("gcc", "omnetpp"):
        row = result.rows[workload]
        saved = (row["no-opt"] - row["l1b+compression"]) / max(row["no-opt"] - 1, 1e-9)
        assert saved > 0.15, f"{workload}: optimisations saved only {saved:.0%}"

    config = suite.config_for("aos").with_aos_options(
        l1b_cache=False, bounds_compression=False
    )
    lowered = lower_trace(suite.trace("povray"), "aos", config)
    benchmark(lambda: Simulator(config).run(lowered))
