"""Table II — Memory usage profiles for SPEC 2006 workloads (§VI).

Reports the paper's published full-program profiles and validates that the
synthetic windows honour them: allocation/deallocation balance and a
steady live set near the (scaled) max-active figure.
"""

from conftest import publish

from repro.experiments.tables import run_table2
from repro.workloads import generate_trace, get_profile
from repro.workloads.profiler import profile_report, profile_trace


def test_table2_memory_profiles(suite, benchmark):
    result = run_table2()

    # Measure the window-level allocator behaviour (Valgrind-style) for
    # malloc-heavy workloads and show it next to the published table.
    measured = {
        name: profile_trace(suite.trace(name))
        for name in ("gcc", "povray", "omnetpp", "sphinx3")
    }
    trace = suite.trace("omnetpp")
    mallocs = measured["omnetpp"].allocations - len(trace.preamble_ids)
    frees = measured["omnetpp"].deallocations
    extra = (
        f"\nMeasured window profiles (scale {trace.scale}, "
        f"{len(trace)} events):\n" + profile_report(measured)
    )
    publish("table2_memory_profiles", result.format() + extra)

    rows = {r.name: r for r in result.rows}
    assert len(rows) == 16
    # Published values verbatim.
    assert rows["omnetpp"].allocations == 21244416
    assert rows["mcf"].max_active == 6
    assert rows["hmmer"].allocations == rows["hmmer"].deallocations == 1474128
    # Window honours the profile: alloc ~ free in steady state.
    assert mallocs > 0 and abs(mallocs - frees) <= max(8, mallocs * 0.2)

    benchmark(
        lambda: generate_trace(get_profile("gobmk"), instructions=20_000, seed=5)
    )
