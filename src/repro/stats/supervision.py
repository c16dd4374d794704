"""Failure-taxonomy roll-up for supervised runs.

Collapses a :class:`~repro.supervise.supervisor.SupervisionReport` (or its
``to_payload()`` dict) into the taxonomy the docs promise — *clean /
retried / quarantined / skipped* — plus one row of attempt-outcome
counts.  Kept in :mod:`repro.stats` (not :mod:`repro.supervise`) because
it is pure presentation over plain dicts: anything that records attempts
with ``(key, attempt, outcome)`` can use it.

Taxonomy, in priority order (one class per task):

``quarantined``
    every attempt failed; the task was recorded as a poison cell.
``skipped``
    a previous run already quarantined the task; this run never tried it.
``retried``
    the task completed on a second or later attempt.
``clean``
    first attempt, done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

from .report import TableFormatter

#: Presentation order of the taxonomy classes.
TAXONOMY: Sequence[str] = ("clean", "retried", "quarantined", "skipped")

#: Presentation order of per-attempt outcomes.
ATTEMPT_OUTCOMES: Sequence[str] = ("ok", "error", "hang", "crash")


def _payload(report: Any) -> Dict[str, Any]:
    if hasattr(report, "to_payload"):
        return report.to_payload()
    return dict(report)


@dataclass
class SupervisionSummary:
    """``task -> taxonomy class`` with attempt-outcome counts."""

    per_task: Dict[str, str] = field(default_factory=dict)
    #: ``outcome -> attempt count`` (every attempt, not just final).
    attempt_counts: Dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in ATTEMPT_OUTCOMES}
    )
    backoff_s: float = 0.0

    @classmethod
    def from_report(cls, report: Any) -> "SupervisionSummary":
        data = _payload(report)
        summary = cls(backoff_s=float(data.get("backoff_s", 0.0)))
        counts = summary.attempt_counts
        for attempt in data.get("attempts", ()):
            outcome = attempt["outcome"]
            counts[outcome] = counts.get(outcome, 0) + 1
            if outcome == "ok":
                retried = attempt["attempt"] > 1
                summary.per_task[attempt["key"]] = "retried" if retried else "clean"
        for key in data.get("quarantined", {}):
            summary.per_task[key] = "quarantined"
        for key in data.get("skipped_quarantined", ()):
            summary.per_task[key] = "skipped"
        return summary

    def counts(self) -> Dict[str, int]:
        """Taxonomy class -> number of tasks, in presentation order."""
        counts = {name: 0 for name in TAXONOMY}
        for klass in self.per_task.values():
            counts[klass] = counts.get(klass, 0) + 1
        return counts

    def format_table(self) -> str:
        """One row of attempt-outcome counts (every attempt counted once)."""
        table = TableFormatter(columns=list(ATTEMPT_OUTCOMES), col_width=8)
        table.add_row("attempts", dict(self.attempt_counts))
        return table.render()

    def format(self) -> str:
        counts = self.counts()
        return "\n".join(
            [
                "Failure taxonomy: "
                + "  ".join(f"{name}: {counts[name]}" for name in TAXONOMY),
                self.format_table(),
                f"backoff slept: {self.backoff_s:.2f}s",
            ]
        )
