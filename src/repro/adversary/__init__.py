"""Adversarial scenario corpus and chaos campaigns (§VII).

:mod:`~repro.adversary.scenarios` is the corpus: named, seeded exploit
recipes (overflow, OOB, UAF, double and invalid free, House of Spirit,
PAC forgery/replay/brute force, the §VII-C AHC-zeroing escape) each
carrying an expected-verdict oracle per mechanism and a compilation path
to a runnable :class:`~repro.isa.program.Program`.

:mod:`~repro.adversary.chaos` sweeps the corpus across every mechanism's
runtime and classifies each cell's observed outcome against the oracle;
``python -m repro attack`` is the supervised campaign CLI and
``python -m repro security`` prints the whole corpus as the §VII
detection matrix.
"""

from .chaos import (
    ChaosCampaign,
    ChaosConfig,
    ScenarioMatrix,
    ScenarioOutcome,
    ScenarioRun,
    UnsupportedScenario,
    VERDICTS,
    classify_verdict,
    execute_scenario,
    run_quick_chaos,
    run_scenario_cell,
    run_security_analysis,
)
from .scenarios import (
    CHAOS_SCENARIOS,
    SCENARIOS,
    Expectation,
    ScenarioInstance,
    Step,
    build_scenario,
    compile_scenario,
    export_scenario,
    parse_scenarios,
    scenario_trace,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "SCENARIOS",
    "VERDICTS",
    "ChaosCampaign",
    "ChaosConfig",
    "Expectation",
    "ScenarioInstance",
    "ScenarioMatrix",
    "ScenarioOutcome",
    "ScenarioRun",
    "Step",
    "UnsupportedScenario",
    "build_scenario",
    "classify_verdict",
    "compile_scenario",
    "execute_scenario",
    "export_scenario",
    "parse_scenarios",
    "run_quick_chaos",
    "run_scenario_cell",
    "run_security_analysis",
    "scenario_trace",
]
