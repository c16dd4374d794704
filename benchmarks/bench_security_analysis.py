"""§VII — Security analysis: the scenario-vs-mechanism detection matrix.

Every recipe of the adversary corpus — Fig. 12's violation classes, House
of Spirit (Fig. 1), PAC/AHC forging and brute force (§VII-C, §VII-E) —
executed for real against each registered mechanism's functional model.
"""

from conftest import publish

from repro.adversary import (
    SCENARIOS,
    build_scenario,
    execute_scenario,
    run_security_analysis,
)
from repro.mechanisms import REGISTRY


def test_security_analysis(benchmark):
    matrix = run_security_analysis()
    publish("security_analysis", matrix.format_grid())

    # AOS detects everything the paper claims; its three named escapes
    # are the oracle's known escapes, never silent passes.
    assert len(matrix) == len(SCENARIOS) * len(REGISTRY)
    counts = matrix.verdict_counts()
    assert counts["missed-detection"] == 0
    assert counts["robustness-bug"] == 0
    escapes = {
        run.scenario
        for run in matrix.runs
        if run.mechanism == "aos" and run.observed == "undetected"
    }
    assert escapes == {
        "intra-object-overflow", "ahc-zero-escape", "ret-addr-corruption",
    }
    # The motivating gaps hold.
    assert matrix.cell("nonlinear-oob-read", "rest").observed == "undetected"
    assert matrix.cell("uaf-stale-load", "pa").observed == "undetected"
    assert matrix.cell("house-of-spirit", "baseline").observed == "undetected"

    # Benchmark two cells end to end.
    recipes = [build_scenario(name) for name in ("uaf-stale-load", "double-free")]
    benchmark(lambda: [execute_scenario(r, "aos") for r in recipes])
