"""Scenario-corpus coverage roll-ups and Pareto data.

Aggregates :class:`~repro.adversary.chaos.ScenarioRun` cells into
per-mechanism detection coverage — the security axis of the
coverage-vs-overhead Pareto figure — reusing
:class:`~repro.stats.coverage.DetectionCoverage` for the per-category
breakdown.  Like its sibling this is pure presentation over plain
strings, so it lives in :mod:`repro.stats` rather than
:mod:`repro.adversary`.

Denominator convention: *modeled* cells only.  A cell whose runtime does
not model the attacker primitive (``unsupported``/``unmodeled``) says
nothing about detection strength and is excluded; crashed or timed-out
cells stay in the denominator and count **against** detection — a
mechanism gets no credit for a run that never produced a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping

from .coverage import DetectionCoverage
from .report import TableFormatter

#: Observed outcomes excluded from coverage denominators.
_UNMODELED = ("unsupported",)


@dataclass
class ScenarioCoverage:
    """Per-mechanism coverage over adversarial scenario runs."""

    #: Stable payload of every run (scenario, mechanism, category,
    #: expected, observed, verdict).
    records: List[dict] = field(default_factory=list)

    @classmethod
    def from_matrix(cls, matrix) -> "ScenarioCoverage":
        """Build from a :class:`~repro.adversary.chaos.ScenarioMatrix`."""
        coverage = cls()
        for run in matrix.runs:
            coverage.add_record(run.stable_payload())
        return coverage

    def add_record(self, record: dict) -> None:
        self.records.append(dict(record))

    # ------------------------------------------------------------ selection

    def mechanisms(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record["mechanism"] not in seen:
                seen.append(record["mechanism"])
        return seen

    def scenarios(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record["scenario"] not in seen:
                seen.append(record["scenario"])
        return seen

    def modeled(self, mechanism: str) -> List[dict]:
        """The coverage denominator for one mechanism."""
        return [
            r
            for r in self.records
            if r["mechanism"] == mechanism and r["observed"] not in _UNMODELED
        ]

    # ------------------------------------------------------------ roll-ups

    def detection_rate(self, mechanism: str) -> float:
        """Detected fraction of modeled cells (the Pareto security axis)."""
        modeled = self.modeled(mechanism)
        if not modeled:
            return 0.0
        hits = sum(1 for r in modeled if r["observed"] == "detected")
        return hits / len(modeled)

    def must_detect_rate(self, mechanism: str) -> float:
        """Detected fraction of the cells the oracle *requires*."""
        required = [
            r for r in self.modeled(mechanism) if r["expected"] == "must-detect"
        ]
        if not required:
            return 1.0
        hits = sum(1 for r in required if r["observed"] == "detected")
        return hits / len(required)

    def escapes(self, mechanism: str) -> List[str]:
        """Named confirmed escapes (never silent — always listed)."""
        return [
            r["scenario"]
            for r in self.records
            if r["mechanism"] == mechanism and r["verdict"] == "escape-confirmed"
        ]

    def by_category(self, mechanism: str) -> DetectionCoverage:
        """Per violation-category breakdown, reusing the campaign shape
        (scenario outcomes map onto the fault-campaign taxonomy:
        ``undetected`` cells are its ``silent`` column)."""
        coverage = DetectionCoverage()
        outcome_map = {"undetected": "silent"}
        for record in self.modeled(mechanism):
            observed = record["observed"]
            coverage.add(record["category"], outcome_map.get(observed, observed))
        return coverage

    # -------------------------------------------------------------- pareto

    def pareto_points(
        self, overheads: Mapping[str, float]
    ) -> List[dict]:
        """Join coverage with normalized-time overheads into Pareto points.

        ``overheads`` maps mechanism -> normalized execution time
        (baseline = 1.0, from the Fig. 14 machinery).  Mechanisms without
        an overhead number are skipped — silently dropping them from the
        figure would misread as zero cost, so callers log the omission.
        Returns one point per mechanism with ``frontier`` marking the
        non-dominated set (higher coverage, lower overhead)."""
        points = [
            {
                "mechanism": mechanism,
                "coverage": self.detection_rate(mechanism),
                "overhead": float(overheads[mechanism]),
            }
            for mechanism in self.mechanisms()
            if mechanism in overheads
        ]
        for point in points:
            point["frontier"] = not any(
                (
                    other["coverage"] >= point["coverage"]
                    and other["overhead"] <= point["overhead"]
                    and (
                        other["coverage"] > point["coverage"]
                        or other["overhead"] < point["overhead"]
                    )
                )
                for other in points
            )
        points.sort(key=lambda p: (p["overhead"], -p["coverage"]))
        return points

    # ---------------------------------------------------------- formatting

    def format_table(self) -> str:
        table = TableFormatter(
            columns=["modeled", "detected", "coverage", "must-detect", "escapes"],
            col_width=11,
            name_width=14,
        )
        for mechanism in self.mechanisms():
            modeled = self.modeled(mechanism)
            detected = sum(1 for r in modeled if r["observed"] == "detected")
            table.add_row(
                mechanism,
                {
                    "modeled": len(modeled),
                    "detected": detected,
                    "coverage": f"{100.0 * self.detection_rate(mechanism):.0f}%",
                    "must-detect": f"{100.0 * self.must_detect_rate(mechanism):.0f}%",
                    "escapes": len(self.escapes(mechanism)),
                },
            )
        return table.render()
