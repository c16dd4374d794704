"""A CACTI-flavoured SRAM cost model reproducing Table I (§V-G).

The paper sizes its new structures with CACTI 6.0 at 45 nm.  Re-deriving
CACTI's circuit models is out of scope for a Python reproduction; instead
we (a) compute each structure's *capacity* from its architectural field
widths — which independently validates the paper's "1.3 KB MCQ / 384 B
BWB" claims — and (b) estimate area, access time, dynamic energy and
leakage with per-metric power laws ``metric = a * bytes^b`` fitted to the
four published CACTI rows.  The fit doubles as a sanity check: all four
structures must lie on one smooth scaling curve, which they do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..config import SystemConfig, default_config


@dataclass(frozen=True)
class StructureSpec:
    """One hardware structure and its capacity in bytes."""

    name: str
    size_bytes: int
    description: str = ""


#: Published Table I rows: name -> (bytes, area mm^2, access ns,
#: dynamic energy pJ, leakage mW).
PUBLISHED_TABLE1: Dict[str, Tuple[int, float, float, float, float]] = {
    "MCQ": (1331, 0.0096, 0.1383, 0.0014, 3.2269),
    "BWB": (384, 0.00285, 0.12755, 0.00077, 1.10712),
    "L1-B Cache": (32 * 1024, 0.1573, 0.2984, 0.0347, 58.295),
    "L1-D Cache": (64 * 1024, 0.2628, 0.3217, 0.0436, 122.69),
}


def mcq_entry_bits() -> int:
    """Bit width of one MCQ entry from the §V-A.1 field list.

    Valid(1) + Type(2) + Addr(64) + BndData(64) + BndAddr(64) + Way(6) +
    Count(6) + Committed(1) + State(3) = 211 bits.
    """
    return 1 + 2 + 64 + 64 + 64 + 6 + 6 + 1 + 3


def bwb_entry_bits() -> int:
    """32-bit tag + way pointer + LRU state (§V-C)."""
    return 32 + 6 + 10


def table1_structures(config: SystemConfig = None) -> List[StructureSpec]:
    """The AOS structures sized from the architectural parameters."""
    config = config or default_config()
    mcq_bytes = config.core.mcq_entries * mcq_entry_bits() // 8
    bwb_bytes = config.bwb.entries * bwb_entry_bits() // 8
    return [
        StructureSpec("MCQ", mcq_bytes, f"{config.core.mcq_entries} entries x {mcq_entry_bits()} bits"),
        StructureSpec("BWB", bwb_bytes, f"{config.bwb.entries} entries x {bwb_entry_bits()} bits"),
        StructureSpec("L1-B Cache", config.memory.l1b.size_bytes, "bounds cache (§V-F1)"),
        StructureSpec("L1-D Cache", config.memory.l1d.size_bytes, "reference"),
    ]


class SRAMCostModel:
    """Power-law SRAM scaling fitted to the published CACTI 6.0 rows."""

    METRICS = ("area_mm2", "access_ns", "dynamic_pj", "leakage_mw")

    def __init__(self) -> None:
        sizes = np.array([row[0] for row in PUBLISHED_TABLE1.values()], dtype=float)
        self._coeffs: Dict[str, Tuple[float, float]] = {}
        for index, metric in enumerate(self.METRICS, start=1):
            values = np.array(
                [row[index] for row in PUBLISHED_TABLE1.values()], dtype=float
            )
            # Least-squares fit of log(metric) = log(a) + b*log(bytes).
            A = np.vstack([np.ones_like(sizes), np.log(sizes)]).T
            (log_a, b), *_ = np.linalg.lstsq(A, np.log(values), rcond=None)
            self._coeffs[metric] = (math.exp(log_a), float(b))

    def estimate(self, size_bytes: int) -> Dict[str, float]:
        """Estimated metrics for an SRAM structure of ``size_bytes``."""
        if size_bytes <= 0:
            raise ValueError("structure size must be positive")
        return {
            metric: a * size_bytes**b for metric, (a, b) in self._coeffs.items()
        }


def estimate_table1(config: SystemConfig = None) -> Dict[str, Dict[str, float]]:
    """Reproduce Table I: per-structure size + estimated cost metrics."""
    model = SRAMCostModel()
    table: Dict[str, Dict[str, float]] = {}
    for spec in table1_structures(config):
        row = {"size_bytes": float(spec.size_bytes)}
        row.update(model.estimate(spec.size_bytes))
        table[spec.name] = row
    return table
