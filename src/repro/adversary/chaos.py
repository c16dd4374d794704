"""Chaos campaigns: the scenario corpus × every mechanism, supervised.

:func:`run_scenario_cell` interprets one scenario recipe against one
mechanism's runtime and classifies the observed outcome; the interpreter
never lets an exception escape the taxonomy — a scenario that crashes or
hangs the simulator is a **robustness bug** (a first-class finding of the
campaign), not a campaign failure.

:class:`ChaosCampaign` sweeps the corpus under the supervision layer
(deadlines, bounded retries, quarantine): the worker is the same
module-level function serial runs use, so a supervised sweep classifies
cells identically, and quarantined cells surface as robustness bugs with
their failure history.  A mechanism runtime that does not model a
scenario's attacker primitive yields an explicit ``unsupported`` verdict —
never a silent pass.  :func:`run_security_analysis` is the same campaign
over the whole corpus, in-process: the §VII detection matrix, printed by
:meth:`ScenarioMatrix.format_grid`.

The verdict of each cell compares the *observed* outcome against the
corpus's expected-verdict oracle:

================== ====================================================
as-expected         observation matches the oracle (detected where it
                    must/may, or a may-detect that legitimately missed)
missed-detection    a MUST_DETECT scenario went undetected — the only
                    verdict that fails the campaign
surprise-detection  a documented escape was detected after all (the
                    model is *stronger* than claimed: worth a look)
escape-confirmed    a KNOWN_ESCAPE landed silently, reported by name
unmodeled           the runtime does not model the attacker primitive
robustness-bug      the cell crashed, hung, or was quarantined
================== ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentTimeout, ReproError, WorkloadError
from ..faults.campaign import Deadline
from ..mechanisms.registry import REGISTRY, parse_mechanisms
from ..supervise import Task, dispatch
from .scenarios import (
    SCENARIOS,
    Expectation,
    ScenarioInstance,
    Step,
    build_scenario,
    parse_scenarios,
)


class UnsupportedScenario(ReproError):
    """The runtime does not expose the attacker primitive a step needs."""


def make_adapter(mechanism: str):
    """A fresh runtime for ``mechanism`` (strict: an unknown name raises
    :class:`~repro.mechanisms.registry.UnknownMechanismError` listing the
    registered choices)."""
    return REGISTRY.make_adapter(mechanism)


class ScenarioOutcome(Enum):
    """What actually happened when the recipe ran against a mechanism."""

    DETECTED = "detected"
    UNDETECTED = "undetected"
    UNSUPPORTED = "unsupported"
    CRASHED = "crashed"
    TIMED_OUT = "timed-out"


#: Verdict labels (observed vs expected); ``missed-detection`` is the only
#: campaign-failing one.
VERDICTS = (
    "as-expected",
    "missed-detection",
    "surprise-detection",
    "escape-confirmed",
    "unmodeled",
    "robustness-bug",
)


def classify_verdict(expected: Expectation, observed: ScenarioOutcome) -> str:
    """Fold (oracle claim, observation) into one verdict label."""
    if observed in (ScenarioOutcome.CRASHED, ScenarioOutcome.TIMED_OUT):
        return "robustness-bug"
    if observed is ScenarioOutcome.UNSUPPORTED:
        return "unmodeled"
    if expected is Expectation.UNSUPPORTED:
        # The runtime ran a recipe the oracle thought it could not model —
        # the observation wins, but flag the stale oracle entry loudly.
        return (
            "surprise-detection"
            if observed is ScenarioOutcome.DETECTED
            else "escape-confirmed"
        )
    if observed is ScenarioOutcome.DETECTED:
        return (
            "surprise-detection"
            if expected is Expectation.KNOWN_ESCAPE
            else "as-expected"
        )
    # observed UNDETECTED
    if expected is Expectation.MUST_DETECT:
        return "missed-detection"
    if expected is Expectation.KNOWN_ESCAPE:
        return "escape-confirmed"
    return "as-expected"  # MAY_DETECT: a miss is within the model


# ------------------------------------------------------------ interpreter


def _apply_step(runtime, env: Dict[str, Any], step: Step) -> None:
    """Execute one attacker action against ``runtime``."""
    if step.op == "malloc":
        env[step.obj] = runtime.malloc(step.size)
    elif step.op == "alias":
        env[step.obj] = env[step.src]
    elif step.op == "free":
        # Deliberately discard free()'s return value: the attacker's copy
        # in ``env`` stays stale (AOS hands back a re-signed locked
        # pointer precisely so honest code *loses* the dangling one).
        runtime.free(env[step.obj])
    elif step.op == "load":
        runtime.load(runtime.offset(env[step.obj], step.offset))
    elif step.op == "store":
        runtime.store(runtime.offset(env[step.obj], step.offset), step.value)
    elif step.op in {"call", "ret"}:
        action = getattr(runtime, step.op, None)
        if action is None:
            raise UnsupportedScenario(
                f"{runtime.name} does not model a call stack"
            )
        action()
    elif step.op == "smash-ret":
        smash = getattr(runtime, "smash_ret", None)
        if smash is None:
            raise UnsupportedScenario(
                f"{runtime.name} does not model a call stack"
            )
        smash(step.value)
    elif step.op == "zero-ahc":
        forge = getattr(runtime, "forge_ahc_zero", None)
        if forge is None:
            raise UnsupportedScenario(
                f"{runtime.name} has no AHC field to zero"
            )
        env[step.obj] = forge(env[step.obj])
    elif step.op == "forge-pac":
        forge = getattr(runtime, "forge_pac", None)
        if forge is None:
            raise UnsupportedScenario(
                f"{runtime.name} has no PAC field to forge"
            )
        forged = forge(env[step.obj], step.value)
        if forged == env[step.obj]:
            # Seeded guess collided with the real PAC; any flipped bit is
            # still a forgery.
            forged = forge(env[step.obj], step.value ^ 1)
        env[step.obj] = forged
    elif step.op == "craft":
        env[step.obj] = getattr(runtime.allocator.layout, step.region) + step.offset
    elif step.op == "raw-write":
        runtime.raw_write(env[step.obj] + step.offset, step.value)
    elif step.op == "brute-force":
        _brute_force(runtime, env[step.obj], budget=step.value)
    else:  # pragma: no cover - Step.__post_init__ rejects unknown ops
        raise WorkloadError(f"unknown scenario step op {step.op!r}")


#: Knuth's multiplicative-hash constant: attempt ``i`` guesses
#: ``i * _GUESS_STRIDE`` (reduced by the forger to its field's width), an
#: odd stride that visits every residue of a power-of-two space.
_GUESS_STRIDE = 2654435761


def _brute_force(runtime, pointer, budget: int) -> None:
    """Dereference up to ``budget`` forged copies of ``pointer``, each
    detection a retry; re-raise the last detection if no guess lands."""
    forge = getattr(runtime, "forge_pac", None) or getattr(runtime, "forge_tag", None)
    if forge is None:
        raise UnsupportedScenario(
            f"{runtime.name} carries no guessable pointer metadata"
        )
    detections = REGISTRY.detection_exceptions()
    for attempt in range(budget):
        try:
            runtime.load(forge(pointer, attempt * _GUESS_STRIDE))
        except detections as exc:
            last = exc
            continue
        return
    raise last


def execute_scenario(
    instance: ScenarioInstance,
    mechanism: str,
    deadline: Optional[Deadline] = None,
) -> Tuple[ScenarioOutcome, str]:
    """Run one recipe against one mechanism; returns (outcome, detail).

    Only :class:`ExperimentTimeout` propagates (the supervised worker owns
    the timed-out classification); everything else folds into the outcome.
    """
    runtime = make_adapter(mechanism)
    # Resolved at run time so plugin mechanisms registered after import
    # contribute their fault types to the detection set.
    detections = REGISTRY.detection_exceptions()
    env: Dict[str, Any] = {}
    for index, step in enumerate(instance.steps):
        if deadline is not None:
            deadline.check()
        try:
            _apply_step(runtime, env, step)
        except detections as exc:
            return (
                ScenarioOutcome.DETECTED,
                f"step {index} ({step.op}): {type(exc).__name__}: {exc}",
            )
        except UnsupportedScenario as exc:
            return ScenarioOutcome.UNSUPPORTED, str(exc)
        except ExperimentTimeout:
            raise
        except Exception as exc:
            # A recipe must never take the harness down: anything outside
            # the detection set is a robustness bug in the simulator.
            return (
                ScenarioOutcome.CRASHED,
                f"step {index} ({step.op}): {type(exc).__name__}: {exc}",
            )
    return ScenarioOutcome.UNDETECTED, "all steps completed silently"


# ------------------------------------------------------------------ cells


@dataclass
class ScenarioRun:
    """One classified (scenario, mechanism) cell."""

    scenario: str
    mechanism: str
    category: str
    expected: str  # Expectation value
    observed: str  # ScenarioOutcome value
    verdict: str  # one of VERDICTS
    detail: str = ""
    paper_ref: str = ""
    seed: int = 7
    elapsed: float = 0.0

    @property
    def failed(self) -> bool:
        return self.verdict == "missed-detection"

    def to_payload(self) -> dict:
        return dict(self.__dict__)

    def stable_payload(self) -> dict:
        """Payload minus wall-clock fields (committed-artifact form)."""
        data = self.to_payload()
        data.pop("elapsed", None)
        return data

    @classmethod
    def from_payload(cls, payload: dict) -> "ScenarioRun":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def run_scenario_cell(payload: Tuple[str, str, int, Optional[float]]) -> ScenarioRun:
    """Classify one cell.  Module-level and picklable-in/out, so the
    supervised and serial paths share it verbatim."""
    scenario_name, mechanism, seed, timeout_s = payload
    instance = build_scenario(scenario_name, seed=seed)
    expected = instance.expected(mechanism)
    deadline = Deadline(timeout_s)
    try:
        observed, detail = execute_scenario(instance, mechanism, deadline)
    except ExperimentTimeout as exc:
        observed, detail = ScenarioOutcome.TIMED_OUT, str(exc)
    return ScenarioRun(
        scenario=scenario_name,
        mechanism=mechanism,
        category=instance.category,
        expected=expected.value,
        observed=observed.value,
        verdict=classify_verdict(expected, observed),
        detail=detail,
        paper_ref=instance.paper_ref,
        seed=seed,
        elapsed=deadline.elapsed,
    )


# -------------------------------------------------------------- campaign


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos campaign over the corpus."""

    #: Scenario names (default: the full corpus, in registry order).
    scenarios: Sequence[str] = ()
    #: Mechanism names swept.  The empty default means *every mechanism
    #: registered at run time*, so plugins registered after this module
    #: imported still join the sweep.
    mechanisms: Sequence[str] = ()
    seed: int = 7
    #: Per-cell cooperative wall-clock budget (None = unbounded).
    timeout_s: Optional[float] = 20.0

    def scenario_names(self) -> List[str]:
        return parse_scenarios(self.scenarios or None)

    def mechanism_names(self) -> List[str]:
        return parse_mechanisms(self.mechanisms or None)

    def __post_init__(self) -> None:
        for mechanism in self.mechanisms:
            if mechanism not in REGISTRY:
                raise WorkloadError(
                    f"unknown mechanism {mechanism!r}; known: "
                    + ", ".join(REGISTRY.names())
                )
        self.scenario_names()  # validate scenario names eagerly

    @classmethod
    def quick(cls, **overrides) -> "ChaosConfig":
        """``attack --quick``: full corpus × three contrasting mechanisms
        (unprotected, plain AOS with its §VII-C escape, and PA+AOS)."""
        defaults = dict(mechanisms=("baseline", "aos", "pa+aos"))
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class ScenarioMatrix:
    """Every classified cell of a chaos campaign, plus the roll-ups."""

    runs: List[ScenarioRun] = field(default_factory=list)
    #: Cells the supervisor gave up on (scenario/mechanism/reason) —
    #: robustness bugs with their full failure history.
    quarantined: List[dict] = field(default_factory=list)
    #: SupervisionReport for supervised sweeps, None otherwise.
    supervision: Optional[object] = None

    def __len__(self) -> int:
        return len(self.runs)

    def must_detect_failures(self) -> List[ScenarioRun]:
        return [run for run in self.runs if run.failed]

    def robustness_bugs(self) -> List[dict]:
        bugs = [
            {
                "scenario": run.scenario,
                "mechanism": run.mechanism,
                "reason": f"{run.observed}: {run.detail}",
            }
            for run in self.runs
            if run.verdict == "robustness-bug"
        ]
        return bugs + list(self.quarantined)

    def known_escapes(self) -> List[ScenarioRun]:
        return [run for run in self.runs if run.verdict == "escape-confirmed"]

    @property
    def ok(self) -> bool:
        """The campaign's pass/fail: every MUST_DETECT cell detected.
        Robustness bugs are findings, not failures (module docstring)."""
        return not self.must_detect_failures()

    def verdict_counts(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for run in self.runs:
            counts[run.verdict] += 1
        return counts

    def cell(self, scenario: str, mechanism: str) -> Optional[ScenarioRun]:
        for run in self.runs:
            if run.scenario == scenario and run.mechanism == mechanism:
                return run
        return None

    def to_payload(self) -> dict:
        return {
            "kind": "scenario-matrix",
            "runs": [run.stable_payload() for run in self.runs],
            "quarantined": list(self.quarantined),
            "verdicts": self.verdict_counts(),
            "ok": self.ok,
        }

    def format_grid(self) -> str:
        """The §VII detection matrix: one row per scenario, one column per
        mechanism, ``DETECT`` / ``-`` / ``n/a`` (detected / undetected /
        unsupported)."""
        symbol = {"detected": "DETECT", "undetected": "-", "unsupported": "n/a"}
        cells = {(run.scenario, run.mechanism): run.observed for run in self.runs}
        scenarios = list(dict.fromkeys(run.scenario for run in self.runs))
        mechanisms = list(dict.fromkeys(run.mechanism for run in self.runs))
        header = f"{'attack':24s}" + "".join(f"{m:>12s}" for m in mechanisms)
        lines = [header, "-" * len(header)]
        for scenario in scenarios:
            observed = (cells[scenario, m] for m in mechanisms)
            lines.append(
                f"{scenario:24s}"
                + "".join(f"{symbol.get(o, o):>12s}" for o in observed)
            )
        return "\n".join(lines)

    def format_report(self) -> str:
        from ..stats.scenario_coverage import ScenarioCoverage

        coverage = ScenarioCoverage.from_matrix(self)
        counts = self.verdict_counts()
        lines = [
            "Adversarial scenario corpus — chaos campaign (cf. §VII)",
            "",
            coverage.format_table(),
            "",
            f"cells: {len(self.runs)}  "
            + "  ".join(f"{v}: {n}" for v, n in counts.items() if n),
        ]
        escapes = self.known_escapes()
        if escapes:
            lines.append("known escapes confirmed (never a silent pass):")
            for run in escapes:
                ref = f" [{run.paper_ref}]" if run.paper_ref else ""
                lines.append(f"  - {run.scenario} vs {run.mechanism}{ref}")
        failures = self.must_detect_failures()
        if failures:
            lines.append("MISSED DETECTIONS (campaign failure):")
            for run in failures:
                lines.append(
                    f"  - {run.scenario} vs {run.mechanism}: {run.detail}"
                )
        bugs = self.robustness_bugs()
        if bugs:
            lines.append("robustness bugs (simulator findings, not failures):")
            for bug in bugs:
                lines.append(
                    f"  - {bug['scenario']} vs {bug['mechanism']}: {bug['reason']}"
                )
        if self.supervision is not None:
            lines.append("")
            lines.append(self.supervision.format())
        return "\n".join(lines)


class ChaosCampaign:
    """Sweeps the scenario corpus across mechanisms, optionally supervised."""

    def __init__(self, config: ChaosConfig = ChaosConfig()) -> None:
        self.config = config

    def cells(self) -> List[Tuple[str, str]]:
        """The sweep grid, in deterministic order."""
        return [
            (scenario, mechanism)
            for scenario in self.config.scenario_names()
            for mechanism in self.config.mechanism_names()
        ]

    def run(self, supervise=None, jobs: int = 1, progress=None) -> ScenarioMatrix:
        """Classify every cell, fanned out over ``jobs`` worker processes.

        Under ``supervise`` (a :class:`~repro.supervise.SupervisorConfig`)
        hung or crashing workers are retried with deterministic backoff
        and repeat offenders become quarantined robustness-bug records."""
        cells = self.cells()
        tasks = [
            Task(
                key=json.dumps(["scenario", scenario, mechanism]),
                payload=(scenario, mechanism, self.config.seed, self.config.timeout_s),
            )
            for scenario, mechanism in cells
        ]
        runs, report = dispatch(
            run_scenario_cell,
            tasks,
            jobs=jobs,
            supervise=supervise,
            on_result=None if progress is None else lambda _, run: progress(run),
        )
        matrix = ScenarioMatrix(supervision=report)
        for task, (scenario, mechanism) in zip(tasks, cells):
            if task.key in runs:
                matrix.runs.append(runs[task.key])
            else:
                matrix.quarantined.append(
                    {
                        "scenario": scenario,
                        "mechanism": mechanism,
                        "reason": report.quarantined[task.key],
                    }
                )
        return matrix


def run_security_analysis(
    scenarios: Sequence[str] = (), mechanisms: Sequence[str] = (), seed: int = 7
) -> ScenarioMatrix:
    """The §VII detection matrix (``repro security``): every recipe of the
    corpus (or ``scenarios``) against every registered mechanism (or
    ``mechanisms``), unsupervised, in-process."""
    config = ChaosConfig(
        scenarios=tuple(scenarios or SCENARIOS),
        mechanisms=tuple(mechanisms),
        seed=seed,
    )
    return ChaosCampaign(config).run()


def run_quick_chaos(**overrides) -> ScenarioMatrix:
    """Convenience: the ``attack --quick`` campaign in one serial call."""
    return ChaosCampaign(ChaosConfig.quick(**overrides)).run()
