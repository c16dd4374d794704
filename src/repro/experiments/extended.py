"""Extended mechanism comparison: Fig. 14's set plus memory tagging (§X).

The paper compares AOS against Watchdog and PA in Fig. 14 and argues
*qualitatively* against memory tagging in §X ("moderate performance
overhead ... limited size of tags reduces security guarantees").  This
extension quantifies that comparison on the same workloads: an MTE-style
lowering (tag colouring at malloc/free, free per-access checks) next to
the Fig. 14 mechanisms, alongside the security trade-off from
:mod:`repro.security.entropy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..security.entropy import attempts_for_likelihood, single_shot_detection
from ..stats.report import TableFormatter, geomean
from .common import ExperimentSuite, SPEC_WORKLOADS
from .parallel import CellSpec

MECHANISMS = ["mte", "aos", "pa+aos"]


@dataclass
class ExtendedComparisonResult:
    #: workload -> mechanism -> normalized execution time.
    rows: Dict[str, Dict[str, float]]
    geomeans: Dict[str, float]

    def format(self) -> str:
        table = TableFormatter(MECHANISMS)
        for workload, values in self.rows.items():
            table.add_row(workload, values)
        table.add_row("Geomean", self.geomeans)
        security = (
            "\nSecurity trade-off: MTE 4-bit tags detect "
            f"{single_shot_detection(4):.1%} of violations per attempt "
            f"(bypass ~{attempts_for_likelihood(4, 0.5)} tries); AOS 16-bit "
            f"PACs detect {single_shot_detection(16):.3%} "
            f"(bypass ~{attempts_for_likelihood(16, 0.5)} tries, §VII-E)."
        )
        return (
            "Extended comparison — memory tagging (§X) vs AOS\n"
            + table.render()
            + security
        )


def cells(
    suite: ExperimentSuite, workloads: Optional[List[str]] = None
) -> List[CellSpec]:
    """The extended-comparison plan: each workload's baseline, MTE, AOS and
    PA+AOS cells."""
    return [
        CellSpec(workload, mechanism)
        for workload in workloads or SPEC_WORKLOADS
        for mechanism in ["baseline"] + MECHANISMS
    ]


def run_extended_comparison(
    suite: Optional[ExperimentSuite] = None,
    workloads: Optional[List[str]] = None,
) -> ExtendedComparisonResult:
    suite = suite or ExperimentSuite()
    workloads = workloads or SPEC_WORKLOADS
    plan = cells(suite, workloads)
    suite.ensure_cells(plan)
    rows: Dict[str, Dict[str, float]] = {workload: {} for workload in workloads}
    for cell in plan:
        if cell.mechanism != "baseline":
            rows[cell.workload][cell.mechanism] = suite.normalized_time(
                cell.workload, cell.mechanism
            )
    geomeans = {
        mech: geomean([rows[w][mech] for w in workloads]) for mech in MECHANISMS
    }
    return ExtendedComparisonResult(rows=rows, geomeans=geomeans)
