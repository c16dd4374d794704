"""Fig. 15: the AOS optimisation ablation (§IX-A "Cache pollution").

Four AOS variants over the SPEC suite, all normalized to the unprotected
baseline: no optimisation, L1-B cache only (§V-F1), bounds compression
only (§V-D), and both (the default AOS configuration).  The paper finds
the L1-B cache cuts ~10 % of overhead, compression another ~3 % on
average, with gcc and omnetpp improving by 60 % / 68 % with both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats.report import TableFormatter, geomean
from .common import SPEC_WORKLOADS, ExperimentSuite
from .parallel import CellSpec

#: Variant name -> (l1b_cache, bounds_compression).
VARIANTS = {
    "no-opt": (False, False),
    "l1b": (True, False),
    "compression": (False, True),
    "l1b+compression": (True, True),
}


@dataclass
class Fig15Result:
    #: workload -> variant -> normalized execution time.
    rows: Dict[str, Dict[str, float]]
    geomeans: Dict[str, float]

    def format(self) -> str:
        table = TableFormatter(list(VARIANTS), col_width=16)
        for workload, values in self.rows.items():
            table.add_row(workload, values)
        table.add_row("Geomean", self.geomeans)
        return "Fig. 15 — L1-B cache and bounds-compression ablation\n" + table.render()


def cells(
    suite: ExperimentSuite, workloads: Optional[List[str]] = None
) -> List[CellSpec]:
    """The Fig. 15 plan: each workload's baseline, then its four AOS
    variants in :data:`VARIANTS` order (memo key ``aos-<variant>``)."""
    workloads = workloads or SPEC_WORKLOADS
    configs = {
        variant: suite.config_for("aos").with_aos_options(
            l1b_cache=l1b, bounds_compression=compression
        )
        for variant, (l1b, compression) in VARIANTS.items()
    }
    return [CellSpec(workload, "baseline") for workload in workloads] + [
        CellSpec(workload, "aos", config=config, key=f"aos-{variant}")
        for workload in workloads
        for variant, config in configs.items()
    ]


def run_fig15(
    suite: Optional[ExperimentSuite] = None,
    workloads: Optional[List[str]] = None,
) -> Fig15Result:
    suite = suite or ExperimentSuite()
    workloads = workloads or SPEC_WORKLOADS
    plan = cells(suite, workloads)
    suite.ensure_cells(plan)

    rows: Dict[str, Dict[str, float]] = {workload: {} for workload in workloads}
    variant_of = {f"aos-{variant}": variant for variant in VARIANTS}
    for cell in plan:
        if cell.mechanism == "aos":
            rows[cell.workload][variant_of[cell.key]] = suite.normalized_time(
                cell.workload, "aos", config=cell.config, key=cell.key
            )

    geomeans = {
        variant: geomean([rows[w][variant] for w in workloads])
        for variant in VARIANTS
    }
    return Fig15Result(rows=rows, geomeans=geomeans)
