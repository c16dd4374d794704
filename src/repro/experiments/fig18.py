"""Fig. 18: normalized network traffic (§IX-B).

Bytes moved between the caches and between the LLC and DRAM, normalized
to the unprotected baseline.  Paper averages: Watchdog +31 %, PA+AOS
+18 %; gcc, povray and omnetpp are the heavy AOS outliers (frequent
bounds-table accesses), with callouts of 4.2x/4.5x/3.4x on the worst
Watchdog bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats.report import TableFormatter, geomean
from .common import MECHANISMS, SPEC_WORKLOADS, ExperimentSuite
from .fig14 import cells

PAPER_AVERAGE = {"watchdog": 1.31, "pa+aos": 1.18}


@dataclass
class Fig18Result:
    #: workload -> mechanism -> normalized traffic.
    rows: Dict[str, Dict[str, float]]
    geomeans: Dict[str, float]

    def format(self) -> str:
        mechanisms = [m for m in MECHANISMS if m != "baseline"]
        table = TableFormatter(mechanisms)
        for workload, values in self.rows.items():
            table.add_row(workload, values)
        table.add_row("Geomean", self.geomeans)
        return (
            "Fig. 18 — Normalized network traffic\n"
            + table.render()
            + f"\nPaper averages: {PAPER_AVERAGE}"
        )


def run_fig18(
    suite: Optional[ExperimentSuite] = None,
    workloads: Optional[List[str]] = None,
) -> Fig18Result:
    suite = suite or ExperimentSuite()
    workloads = workloads or SPEC_WORKLOADS
    plan = cells(suite, workloads)  # Fig. 14's cells: one sweep, two measures
    suite.ensure_cells(plan)

    rows: Dict[str, Dict[str, float]] = {workload: {} for workload in workloads}
    for cell in plan:
        if cell.mechanism != "baseline":
            rows[cell.workload][cell.mechanism] = suite.normalized_traffic(
                cell.workload, cell.mechanism
            )
    mechanisms = [m for m in MECHANISMS if m != "baseline"]
    geomeans = {
        mech: geomean([max(rows[w][mech], 1e-9) for w in workloads])
        for mech in mechanisms
    }
    return Fig18Result(rows=rows, geomeans=geomeans)
