"""Fig. 14: normalized execution time of the five system configurations.

Paper headline numbers (geometric means over 16 SPEC 2006 workloads):

- Watchdog: ~1.194 (19.4 % overhead)
- PA:       ~1.0 on most workloads, ~1.1 on hmmer/omnetpp
- AOS:      ~1.084 (8.4 % overhead); gcc worst at ~2.16x; milc, namd,
  gobmk and astar slightly *better* than baseline (MCQ back-pressure
  damping wrong-path speculation)
- PA+AOS:   ~1.099 (an extra 1.5 % over AOS)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..stats.report import TableFormatter, geomean
from .common import MECHANISMS, SPEC_WORKLOADS, ExperimentSuite
from .parallel import CellSpec

#: Paper geomeans for the comparison block of EXPERIMENTS.md.
PAPER_GEOMEAN = {"watchdog": 1.194, "pa": 1.01, "aos": 1.084, "pa+aos": 1.099}


@dataclass
class Fig14Result:
    #: workload -> mechanism -> normalized execution time.
    rows: Dict[str, Dict[str, float]]
    geomeans: Dict[str, float]
    #: workload -> AOS HBT resize count (the §IX-A.1 aside).
    hbt_resizes: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        mechanisms = [m for m in MECHANISMS if m != "baseline"]
        table = TableFormatter(mechanisms)
        for workload, values in self.rows.items():
            table.add_row(workload, values)
        table.add_row("Geomean", self.geomeans)
        resizes = ", ".join(
            f"{w}({n})" for w, n in self.hbt_resizes.items() if n
        ) or "none"
        return (
            "Fig. 14 — Normalized execution time\n"
            + table.render()
            + f"\nHBT resizes during simulation: {resizes}"
            + f"\nPaper geomeans: {PAPER_GEOMEAN}"
        )


def cells(
    suite: ExperimentSuite, workloads: Optional[List[str]] = None
) -> List[CellSpec]:
    """The Fig. 14 plan: every workload under every mechanism, baseline
    included (Fig. 18 reads the same cells)."""
    return [
        CellSpec(workload, mechanism)
        for workload in workloads or SPEC_WORKLOADS
        for mechanism in MECHANISMS
    ]


def run_fig14(
    suite: Optional[ExperimentSuite] = None,
    workloads: Optional[List[str]] = None,
) -> Fig14Result:
    suite = suite or ExperimentSuite()
    workloads = workloads or SPEC_WORKLOADS
    plan = cells(suite, workloads)
    suite.ensure_cells(plan)

    rows: Dict[str, Dict[str, float]] = {workload: {} for workload in workloads}
    resizes: Dict[str, int] = {}
    for cell in plan:
        if cell.mechanism != "baseline":
            rows[cell.workload][cell.mechanism] = suite.normalized_time(
                cell.workload, cell.mechanism
            )
        if cell.mechanism == "aos":
            resizes[cell.workload] = suite.result(cell.workload, "aos").hbt_resizes

    mechanisms = [m for m in MECHANISMS if m != "baseline"]
    geomeans = {
        mech: geomean([rows[w][mech] for w in workloads]) for mech in mechanisms
    }
    return Fig14Result(rows=rows, geomeans=geomeans, hbt_resizes=resizes)
