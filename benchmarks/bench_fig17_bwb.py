"""Fig. 17 — Bounds-table accesses per check and BWB hit rate (§IX-A).

Paper: ~1 access per checked instruction everywhere (omnetpp highest,
1.17, from PAC collisions over its huge live set); BWB hit rates above
80 % for most applications.
"""

from conftest import publish

from repro.compiler import lower_trace
from repro.experiments.fig17 import run_fig17


def test_fig17_bwb(suite, benchmark):
    result = run_fig17(suite)
    publish("fig17_bwb", result.format())

    accesses = result.accesses_per_check
    hits = result.bwb_hit_rate
    # Close to one access per check everywhere.
    for workload, value in accesses.items():
        assert 0.3 <= value <= 3.0, f"{workload}: {value} accesses/check"
    # The malloc-heavy workloads deviate furthest from one access/check
    # (PAC collisions push above 1; bounds forwarding pulls below).
    deviant = max(accesses, key=lambda w: abs(accesses[w] - 1.0))
    assert deviant in ("omnetpp", "sphinx3", "povray", "gcc"), deviant
    # Most applications exceed an 80 % BWB hit rate.
    above_80 = sum(1 for v in hits.values() if v > 0.8)
    assert above_80 >= len(hits) * 0.6, f"only {above_80}/16 above 80%"

    # Benchmark the MCU check path against a warm HBT.
    lowered = lower_trace(suite.trace("omnetpp"), "aos", suite.config_for("aos"))
    from repro.config import AOSOptions
    from repro.core.mcu import MemoryCheckUnit

    hbt = lowered.hbt
    mcu = MemoryCheckUnit(hbt=hbt, layout=lowered.pointer_layout, options=AOSOptions())
    pointers = [
        address
        for address in lowered.program.addresses.tolist()
        if address > lowered.pointer_layout.va_mask
    ][:2000]

    def check_all():
        for pointer in pointers:
            mcu.check_access(pointer)

    benchmark(check_all)
