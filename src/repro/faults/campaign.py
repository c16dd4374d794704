"""Resilient fault-injection campaigns: sweep, classify, checkpoint.

A :class:`Campaign` sweeps fault kind × location × workload × mechanism.
Each cell builds a fresh :class:`~repro.faults.injector.FaultHarness`,
injects one fault and probes the process, then classifies the run into the
structured outcome taxonomy:

========== ==========================================================
detected    the mechanism raised/logged a violation (AOS exception,
            escalation kill, or a glibc allocator integrity check)
silent      the probe completed with no detection — the report notes
            whether memory integrity checks confirmed real corruption
crashed     a host-level error survived ``max_retries`` fresh-seed
            retries (simulator bug, not a simulated detection)
timed-out   the run exceeded its per-cell wall-clock deadline
========== ==========================================================

Deadlines are cooperative: the probe checks a :class:`Deadline` between
simulated operations, so a wedged cell surfaces as ``timed-out`` instead
of stalling the sweep.  Host-level errors are retried with a fresh seed
(transient state-space corners often clear), and completed cells stream to
a :class:`~repro.faults.checkpoint.CheckpointStore` so an interrupted
campaign resumes without re-running them.

``Campaign.run(jobs=N)`` hands the pending cells to
:func:`repro.supervise.dispatch`: every worker classifies its cell via the
same :func:`run_campaign_cell` (keeping its per-cell deadline and
fresh-seed retry machinery), the parent streams finished cells to the
checkpoint as they land, and the final report lists cells in
deterministic sweep order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.exceptions import AOSException
from ..errors import AllocatorError, ExperimentTimeout, FaultInjectionError
from ..os.handler import HandlerPolicy, ProcessTerminated
from ..stats.coverage import DetectionCoverage
from ..supervise import Task, dispatch
from .checkpoint import CheckpointStore
from .injector import (
    ALL_KINDS,
    POINTER_CORRUPTION_KINDS,
    FaultHarness,
    FaultInjector,
    FaultKind,
    FaultSpec,
)


class Deadline:
    """Cooperative wall-clock budget for one campaign cell."""

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed >= self.seconds

    def check(self) -> None:
        if self.expired():
            raise ExperimentTimeout(
                f"run exceeded its {self.seconds:.3g}s wall-clock budget"
            )


class RunOutcome(Enum):
    """The structured outcome taxonomy (see module docstring)."""

    DETECTED = "detected"
    SILENT = "silent"
    CRASHED = "crashed"
    TIMED_OUT = "timed-out"
    #: The mechanism reported nothing, but the ``--paranoid`` invariant
    #: oracle found corrupted simulator state: silent corruption promoted
    #: to a first-class outcome instead of a clean-looking cell.
    INVARIANT = "invariant-violation"


@dataclass
class RunResult:
    """One classified campaign cell."""

    workload: str
    mechanism: str
    kind: str
    location: int
    seed: int
    outcome: RunOutcome
    detections: int = 0
    expect_detection: bool = True
    detail: str = ""
    elapsed: float = 0.0
    retries: int = 0
    integrity_failures: int = 0
    invariant_violations: int = 0

    def to_payload(self) -> dict:
        data = self.__dict__.copy()
        data["outcome"] = self.outcome.value
        return data

    def stable_payload(self) -> dict:
        """The payload minus wall-clock fields: two runs of the same cell
        must agree byte-for-byte on this (the determinism tests compare
        supervised, parallel and serial runs)."""
        data = self.to_payload()
        data.pop("elapsed", None)
        return data

    @classmethod
    def from_payload(cls, payload: dict) -> "RunResult":
        data = dict(payload)
        data["outcome"] = RunOutcome(data["outcome"])
        return cls(**data)


@dataclass(frozen=True)
class CampaignConfig:
    """Shape and resilience knobs of one campaign."""

    workloads: Sequence[str] = ("gcc", "omnetpp", "povray")
    mechanisms: Sequence[str] = ("aos",)
    kinds: Sequence[FaultKind] = tuple(ALL_KINDS)
    #: Fault locations swept per kind (victim object/slot index).
    locations: int = 2
    seed: int = 7
    #: Live objects populated before injection.
    objects: int = 24
    #: Allocate/free churn pairs the probe runs after injection.
    churn: int = 4
    #: Per-cell wall-clock budget (None = unbounded).
    timeout_s: Optional[float] = 30.0
    #: Fresh-seed retries before a host-level error is declared CRASHED.
    max_retries: int = 2
    #: Escalation threshold forwarded to the AOS exception handler.
    max_violations: Optional[int] = 100
    #: Audit every cell's simulator state through the invariant oracle;
    #: silent cells with violated invariants become INVARIANT outcomes.
    paranoid: bool = False
    #: Run the (costlier) shadow-memory cross-check on ~1/N cells,
    #: sampled deterministically (1 = every cell).
    paranoid_shadow_sample: int = 1
    #: Hang-injection seam for supervision tests/CI: cells matching any
    #: ``"workload:mechanism:kind:location"`` pattern (``*`` wildcards
    #: per field) sleep ``hang_s`` before running, simulating a wedged
    #: worker the supervisor must detect and quarantine.
    hang_cells: Sequence[str] = ()
    hang_s: float = 30.0

    def matches_hang(self, workload: str, mechanism: str, spec: FaultSpec) -> bool:
        cell = (workload, mechanism, spec.kind.value, str(spec.location))
        for pattern in self.hang_cells:
            parts = pattern.split(":")
            if len(parts) != 4:
                raise FaultInjectionError(
                    f"hang pattern {pattern!r} is not workload:mechanism:kind:location"
                )
            if all(p == "*" or p == c for p, c in zip(parts, cell)):
                return True
        return False

    def to_payload(self) -> dict:
        """JSON-able form, for the distributed work queue's campaign row."""
        return {
            "workloads": list(self.workloads),
            "mechanisms": list(self.mechanisms),
            "kinds": [kind.value for kind in self.kinds],
            "locations": self.locations,
            "seed": self.seed,
            "objects": self.objects,
            "churn": self.churn,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "max_violations": self.max_violations,
            "paranoid": self.paranoid,
            "paranoid_shadow_sample": self.paranoid_shadow_sample,
            "hang_cells": list(self.hang_cells),
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignConfig":
        data = dict(payload)
        data["workloads"] = tuple(data["workloads"])
        data["mechanisms"] = tuple(data["mechanisms"])
        data["kinds"] = tuple(FaultKind(kind) for kind in data["kinds"])
        data["hang_cells"] = tuple(data.get("hang_cells", ()))
        return cls(**data)

    @classmethod
    def quick(cls, **overrides) -> "CampaignConfig":
        """The ``faultinject --quick`` shape: small but covers every kind."""
        defaults = dict(
            workloads=("gcc", "povray"),
            mechanisms=("aos",),
            locations=1,
            objects=12,
            churn=2,
            timeout_s=20.0,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class CampaignResult:
    """All classified cells plus the coverage roll-up."""

    results: List[RunResult] = field(default_factory=list)
    resumed: int = 0
    #: Cells the supervisor gave up on (each: workload/mechanism/kind/
    #: location/reason).  They have *no* RunResult and never reach the
    #: checkpointed result set or any cache.
    quarantined: List[dict] = field(default_factory=list)
    #: Quarantined cells skipped at resume time (subset of ``quarantined``).
    skipped_quarantined: int = 0
    #: The SupervisionReport of a supervised run, None for plain runs.
    supervision: Optional[object] = None

    def __len__(self) -> int:
        return len(self.results)

    def outcomes(self) -> dict:
        counts = {outcome: 0 for outcome in RunOutcome}
        for result in self.results:
            counts[result.outcome] += 1
        return counts

    def coverage(self) -> DetectionCoverage:
        coverage = DetectionCoverage(outcomes=[o.value for o in RunOutcome])
        for result in self.results:
            coverage.add(result.kind, result.outcome.value)
        return coverage

    def detection_rate(self, kinds: Optional[Sequence[FaultKind]] = None) -> float:
        """Detected fraction over ``kinds`` (default: every cell)."""
        names = None if kinds is None else {k.value for k in kinds}
        hits = total = 0
        for result in self.results:
            if names is not None and result.kind not in names:
                continue
            total += 1
            hits += result.outcome is RunOutcome.DETECTED
        return hits / total if total else 0.0

    @property
    def pointer_corruption_rate(self) -> float:
        """Detection rate over the §VII acceptance bucket: spatial/temporal
        pointer-corruption faults."""
        return self.detection_rate(POINTER_CORRUPTION_KINDS)

    @property
    def host_survived(self) -> bool:
        """True when every injected fault landed in the taxonomy (always,
        by construction — kept as an explicit, assertable claim)."""
        return all(isinstance(r.outcome, RunOutcome) for r in self.results)

    def format_report(self) -> str:
        coverage = self.coverage()
        counts = self.outcomes()
        lines = [
            "Fault-injection campaign — detection coverage (cf. §VII table)",
            "",
            coverage.format_table(),
            "",
            f"cells: {len(self.results)}  "
            + "  ".join(f"{o.value}: {n}" for o, n in counts.items()),
            f"resumed from checkpoint: {self.resumed}",
            f"retries spent on host errors: {sum(r.retries for r in self.results)}",
            (
                "spatial/temporal pointer-corruption detection: "
                f"{100.0 * self.pointer_corruption_rate:.1f}% "
                f"(kinds: {', '.join(k.value for k in POINTER_CORRUPTION_KINDS)})"
            ),
        ]
        silent_corrupted = [
            r for r in self.results
            if r.outcome is RunOutcome.SILENT and r.integrity_failures
        ]
        if silent_corrupted:
            lines.append(
                f"confirmed silent data corruption: {len(silent_corrupted)} cells"
            )
        invariant = [r for r in self.results if r.outcome is RunOutcome.INVARIANT]
        if invariant:
            lines.append(
                f"paranoid oracle promotions (silent -> invariant-violation): "
                f"{len(invariant)} cells"
            )
        if self.quarantined:
            lines.append(
                f"quarantined cells: {len(self.quarantined)} "
                f"({self.skipped_quarantined} skipped at resume)"
            )
            for cell in self.quarantined:
                lines.append(
                    f"  - {cell['workload']}/{cell['mechanism']}/"
                    f"{cell['kind']}@{cell['location']}: {cell['reason']}"
                )
        if self.supervision is not None:
            lines.append("")
            lines.append(self.supervision.format())
        return "\n".join(lines)


def run_campaign_cell(
    config: CampaignConfig,
    workload: str,
    mechanism: str,
    spec: FaultSpec,
    injector: Optional[FaultInjector] = None,
) -> RunResult:
    """Inject one fault, probe, classify — with timeout and retry.

    A module-level pure function of picklable arguments, so a worker
    process classifies a cell exactly the way an in-process run does.
    ``injector`` defaults to a fresh :class:`FaultInjector`; tests pass
    instrumented doubles.
    """
    injector = injector or FaultInjector()
    seed = spec.seed
    retries = 0
    while True:
        if config.matches_hang(workload, mechanism, spec):
            # Injected hang: simulate a wedged worker.  Under supervision
            # the parent's deadline fires and the worker is terminated
            # mid-sleep; unsupervised serial runs simply stall here.
            time.sleep(config.hang_s)
        deadline = Deadline(config.timeout_s)
        base = RunResult(
            workload=workload,
            mechanism=mechanism,
            kind=spec.kind.value,
            location=spec.location,
            seed=seed,
            outcome=RunOutcome.SILENT,
            retries=retries,
        )
        try:
            # Context-managed so ANY exit — detection, timeout, host error,
            # retry — disarms the injection seams before the next attempt
            # (or anything else) touches these components again.
            with FaultHarness(
                workload=workload,
                mechanism=mechanism,
                seed=seed,
                objects=config.objects,
                policy=HandlerPolicy.REPORT_AND_RESUME,
                max_violations=config.max_violations,
            ) as harness:
                harness.populate()
                record = injector.inject(harness, replace(spec, seed=seed))
                harness.probe(
                    deadline=deadline, churn=config.churn, burst=record.probe_burst
                )
                failures = harness.integrity_failures()
                detections = harness.detections
                base.detections = detections
                base.expect_detection = record.expect_detection
                base.integrity_failures = len(failures)
                base.elapsed = deadline.elapsed
                violations = []
                if config.paranoid:
                    from ..supervise.oracle import InvariantOracle

                    oracle = InvariantOracle(
                        shadow_sample=config.paranoid_shadow_sample
                    )
                    violations = oracle.audit_harness(
                        harness,
                        sample_token=(
                            f"{workload}:{mechanism}:"
                            f"{spec.kind.value}:{spec.location}"
                        ),
                    )
                    base.invariant_violations = len(violations)
            if detections:
                base.outcome = RunOutcome.DETECTED
                base.detail = f"{record.description}; {detections} violation(s)"
                if violations:
                    base.detail += (
                        f"; paranoid: {len(violations)} invariant violation(s)"
                    )
            elif violations:
                # The mechanism saw nothing, but simulator state is wrong:
                # silent corruption caught by the oracle, not a clean cell.
                shown = "; ".join(str(v) for v in violations[:3])
                if len(violations) > 3:
                    shown += f"; +{len(violations) - 3} more"
                base.outcome = RunOutcome.INVARIANT
                base.detail = f"{record.description}; paranoid: {shown}"
            else:
                base.outcome = RunOutcome.SILENT
                note = (
                    f"; data corruption confirmed ({len(failures)} objects)"
                    if failures
                    else "; integrity intact"
                )
                base.detail = record.description + note
            return base
        except ProcessTerminated as exc:
            base.outcome = RunOutcome.DETECTED
            base.detections = 1
            base.elapsed = deadline.elapsed
            base.detail = f"process terminated: {exc}"
            return base
        except (AOSException,) as exc:
            # An AOS exception escaping the guarded paths (e.g. raised
            # during injection-phase setup) is still a detection.
            base.outcome = RunOutcome.DETECTED
            base.detections = 1
            base.elapsed = deadline.elapsed
            base.detail = f"{type(exc).__name__}: {exc}"
            return base
        except AllocatorError as exc:
            # glibc's own integrity checks — the §VII convention counts
            # these as detections (same as the security matrix).
            base.outcome = RunOutcome.DETECTED
            base.detections = 1
            base.elapsed = deadline.elapsed
            base.detail = f"allocator integrity check: {exc}"
            return base
        except ExperimentTimeout as exc:
            base.outcome = RunOutcome.TIMED_OUT
            base.elapsed = deadline.elapsed
            base.detail = str(exc)
            return base
        except Exception as exc:  # host-level: retry with a fresh seed
            if retries < config.max_retries:
                retries += 1
                seed += 7919  # decorrelate the harness state
                continue
            base.outcome = RunOutcome.CRASHED
            base.retries = retries
            base.elapsed = deadline.elapsed
            base.detail = f"host error after {retries} retries: " \
                f"{type(exc).__name__}: {exc}"
            return base


def _cell_worker(args: Tuple[CampaignConfig, str, str, FaultSpec]) -> RunResult:
    return run_campaign_cell(*args)


def _quarantined(cell_key: list, reason: str) -> dict:
    """The :attr:`CampaignResult.quarantined` record of one cell key."""
    _, workload, mechanism, kind, location = cell_key
    return {
        "workload": workload,
        "mechanism": mechanism,
        "kind": kind,
        "location": location,
        "reason": reason,
    }


class Campaign:
    """Sweeps fault specs across workloads with checkpoint/resume."""

    def __init__(
        self,
        config: CampaignConfig = CampaignConfig(),
        checkpoint: Union[None, str, Path, CheckpointStore] = None,
    ) -> None:
        # Fail fast on a sweep that could never run: every cell would just
        # burn its retries and land in CRASHED, hiding the config error.
        for mechanism in config.mechanisms:
            if mechanism not in ("aos", "pa+aos"):
                raise FaultInjectionError(
                    f"fault campaigns target 'aos' or 'pa+aos', not {mechanism!r}"
                )
        self.config = config
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CheckpointStore(checkpoint, meta=self._meta())

    def _meta(self) -> dict:
        config = self.config
        return {
            "kind": "fault-campaign",
            "workloads": list(config.workloads),
            "mechanisms": list(config.mechanisms),
            "fault_kinds": [k.value for k in config.kinds],
            "locations": config.locations,
            "seed": config.seed,
            "objects": config.objects,
            # Paranoid runs classify cells differently (SILENT can become
            # INVARIANT), so their checkpoints must not mix with plain ones.
            "paranoid": config.paranoid,
        }

    # ------------------------------------------------------------- sweeping

    def cells(self) -> Iterator[Tuple[str, str, FaultSpec]]:
        """The sweep grid, in deterministic order."""
        for workload in self.config.workloads:
            for mechanism in self.config.mechanisms:
                for kind in self.config.kinds:
                    for location in range(self.config.locations):
                        yield workload, mechanism, FaultSpec(
                            kind=kind, location=location, seed=self.config.seed
                        )

    @staticmethod
    def _cell_key(workload: str, mechanism: str, spec: FaultSpec) -> list:
        """A cell's checkpoint key; ``["quarantine", *key[1:]]`` holds its
        quarantine record."""
        return ["cell", workload, mechanism, spec.kind.value, spec.location]

    def run(
        self,
        progress: Optional[Callable[[RunResult, bool], None]] = None,
        jobs: int = 1,
        supervise=None,
    ) -> CampaignResult:
        """Run (or resume) the full sweep; never lets a cell escape the
        outcome taxonomy.

        One resume pass takes every checkpointed cell, then the pending
        cells go to :meth:`_run_parallel` in one batch, and the result
        list is assembled in sweep order.  ``jobs>1`` shards the batch
        over worker processes; each finished cell streams to the
        checkpoint as it lands, so a killed campaign resumes without
        re-running it at any ``jobs``.

        ``supervise`` (a :class:`~repro.supervise.SupervisorConfig`) runs
        the batch under the supervision layer instead: every cell runs in
        a worker process, a hung or crashing cell is retried with
        deterministic backoff, and a repeat offender is quarantined *in
        the checkpoint* (a resumed supervised run skips it).  Results for
        surviving cells are identical to a serial run.
        """
        outcome = CampaignResult()
        order: List[str] = []
        done: Dict[str, RunResult] = {}
        tasks = []
        skipped: List[str] = []
        for workload, mechanism, spec in self.cells():
            key = self._cell_key(workload, mechanism, spec)
            task_key = json.dumps(key)
            order.append(task_key)
            if self.checkpoint is not None and key in self.checkpoint:
                done[task_key] = RunResult.from_payload(self.checkpoint.get(key))
                outcome.resumed += 1
                if progress is not None:
                    progress(done[task_key], True)
                continue
            quarantine_key = ["quarantine", *key[1:]]
            if (
                supervise is not None
                and self.checkpoint is not None
                and quarantine_key in self.checkpoint
            ):
                stored = self.checkpoint.get(quarantine_key) or {}
                reason = stored.get("reason", "quarantined")
                outcome.quarantined.append(_quarantined(key, reason))
                outcome.skipped_quarantined += 1
                skipped.append(task_key)
                continue
            tasks.append(
                Task(key=task_key, payload=(self.config, workload, mechanism, spec))
            )
        computed, report = self._run_parallel(tasks, progress, jobs, supervise)
        done.update(computed)
        if report is not None:
            report.skipped_quarantined.extend(skipped)
            for task_key, reason in report.quarantined.items():
                key = json.loads(task_key)
                if self.checkpoint is not None:
                    self.checkpoint.put(["quarantine", *key[1:]], {"reason": reason})
                outcome.quarantined.append(_quarantined(key, reason))
            outcome.supervision = report
        outcome.results = [done[key] for key in order if key in done]
        return outcome

    def _run_parallel(
        self,
        tasks: List[Task],
        progress: Optional[Callable[[RunResult, bool], None]],
        jobs: int,
        supervise,
    ):
        """Run the pending cells, streaming each to the checkpoint as it
        lands; returns :func:`~repro.supervise.dispatch`'s pair."""

        def on_result(task_key: str, result: RunResult) -> None:
            if self.checkpoint is not None:
                self.checkpoint.put(json.loads(task_key), result.to_payload())
            if progress is not None:
                progress(result, False)

        def on_error(task_key: str, exc: Exception) -> None:
            # Name *which* cell failed in campaign terms, so a reproduction
            # hunt starts from the cell, not from a task key.
            _, workload, mechanism, kind, location = json.loads(task_key)
            raise FaultInjectionError(
                f"campaign cell workload={workload} mechanism={mechanism} "
                f"kind={kind} location={location} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

        return dispatch(
            _cell_worker,
            tasks,
            jobs=jobs,
            supervise=supervise,
            on_result=on_result,
            on_error=on_error,
        )


def run_quick_campaign(**overrides) -> CampaignResult:
    """Convenience: the ``faultinject --quick`` campaign in one call."""
    return Campaign(CampaignConfig.quick(**overrides)).run()
