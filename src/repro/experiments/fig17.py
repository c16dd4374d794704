"""Fig. 17: bounds-table accesses per checked instruction and BWB hit rate.

The paper reports ~1 access per checked instruction for most workloads
(omnetpp highest at 1.17, driven by PAC collisions across its ~2M live
objects) and BWB hit rates above 80 % almost everywhere — evidence that
way iteration is not a significant overhead source (§IX-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats.report import TableFormatter
from .common import SPEC_WORKLOADS, ExperimentSuite
from .parallel import CellSpec


@dataclass
class Fig17Result:
    #: workload -> average bounds-table accesses per checked instruction.
    accesses_per_check: Dict[str, float]
    #: workload -> BWB hit rate.
    bwb_hit_rate: Dict[str, float]

    def format(self) -> str:
        table = TableFormatter(["# Access", "Hit Rate"])
        for workload in self.accesses_per_check:
            table.add_row(
                workload,
                {
                    "# Access": self.accesses_per_check[workload],
                    "Hit Rate": self.bwb_hit_rate[workload],
                },
            )
        return "Fig. 17 — Bounds-table accesses per check and BWB hit rate\n" + table.render()


def cells(
    suite: ExperimentSuite, workloads: Optional[List[str]] = None
) -> List[CellSpec]:
    """The Fig. 17 plan: each workload's AOS cell."""
    return [CellSpec(workload, "aos") for workload in workloads or SPEC_WORKLOADS]


def run_fig17(
    suite: Optional[ExperimentSuite] = None,
    workloads: Optional[List[str]] = None,
) -> Fig17Result:
    suite = suite or ExperimentSuite()
    plan = cells(suite, workloads)
    suite.ensure_cells(plan)
    accesses = {}
    hits = {}
    for cell in plan:
        result = suite.result(cell.workload, cell.mechanism)
        accesses[cell.workload] = result.bounds_accesses_per_check
        hits[cell.workload] = result.bwb_hit_rate
    return Fig17Result(accesses_per_check=accesses, bwb_hit_rate=hits)
