"""Adversarial scenario matrix: full corpus × every mechanism adapter.

Runs the chaos campaign for real, asserts the expected-verdict contract
(every must-detect cell detected, every known escape reported by name,
never a silent pass, no robustness bugs), publishes the coverage report,
writes the committed ``results/security_matrix.json`` artifact, joins
the coverage axis with the Fig. 14 timing sweep into the committed
``results/security_pareto.txt`` Pareto figure, and benchmarks one
representative cell end to end.
"""

import json
import pathlib

from conftest import publish

from repro.adversary import ChaosCampaign, ChaosConfig, run_scenario_cell
from repro.experiments import ExperimentSuite, RunSettings, run_security_pareto
from repro.mechanisms import REGISTRY
from repro.stats import ScenarioCoverage

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_security_matrix(benchmark):
    matrix = ChaosCampaign(ChaosConfig()).run()

    # Every (scenario, mechanism) cell landed in the verdict taxonomy.
    assert len(matrix) == len(ChaosCampaign(ChaosConfig()).cells())

    # The §VII contract: no must-detect scenario goes undetected, and the
    # corpus never crashes or hangs the simulator.
    assert matrix.ok, matrix.format_report()
    assert not matrix.robustness_bugs(), matrix.format_report()

    # The §VII-C AHC-zeroing escape is a *named* known escape of plain AOS
    # (never a silent pass) and is closed by PA+AOS.
    escapes = {(run.scenario, run.mechanism) for run in matrix.known_escapes()}
    assert ("ahc-zero-escape", "aos") in escapes
    assert matrix.cell("ahc-zero-escape", "pa+aos").observed == "detected"

    # format_report embeds the ScenarioCoverage table.
    publish("security_matrix", matrix.format_report())
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "security_matrix.json", "w", encoding="utf-8") as fh:
        json.dump(matrix.to_payload(), fh, sort_keys=True, indent=1)
        fh.write("\n")

    # Coverage vs overhead Pareto: every registered mechanism with a
    # timing lowering gets a point; cheri stays coverage-only.
    coverage = ScenarioCoverage.from_matrix(matrix)
    suite = ExperimentSuite(RunSettings(instructions=12000))
    pareto = run_security_pareto(coverage, suite)
    mechanisms = {point["mechanism"] for point in pareto.points}
    assert {"cryptsan", "pacsan", "pactight", "pacstack"} <= mechanisms
    assert mechanisms == set(REGISTRY.timed_names())
    assert set(pareto.untimed) == set(REGISTRY.untimed_names())
    publish("security_pareto", pareto.format())

    # Benchmark one representative cell: build + interpret + classify.
    benchmark(lambda: run_scenario_cell(("uaf-after-realloc", "aos", 7, None)))
