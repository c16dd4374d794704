"""Fig. 16: statistics of instructions of interest (§IX-A).

For each workload under PA+AOS, counts per category — unsigned/signed
loads and stores, ``bndstr``/``bndclr``, and ``pac*/aut*/xpac*`` — scaled
to the paper's "per 1 B instructions" axis.  The paper's observations:
signed accesses exceed 80 % of memory ops in bzip2, gcc, hmmer and lbm
(hmmer above 99 %), and the bounds/pac instruction counts track each
workload's allocation rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..isa.instructions import Op
from ..stats.report import TableFormatter
from .common import SPEC_WORKLOADS, ExperimentSuite
from .parallel import CellSpec

CATEGORIES = [
    "UnsignedLoad",
    "UnsignedStore",
    "SignedLoad",
    "SignedStore",
    "bndstr/bndclr",
    "pac*/aut*/xpac*",
]

# Op codes of the program's ``ops`` column.
_LOAD, _STORE = Op.LOAD.value, Op.STORE.value
_BOUNDS_CODES = [Op.BNDSTR.value, Op.BNDCLR.value]
_PAC_CODES = [
    op.value
    for op in (
        Op.PACIA, Op.AUTIA, Op.PACDA, Op.AUTDA, Op.PACMA, Op.AUTM, Op.XPAC, Op.XPACM
    )
]


@dataclass
class Fig16Result:
    #: workload -> category -> count per 1B instructions (millions).
    rows: Dict[str, Dict[str, float]]
    #: workload -> fraction of memory ops that are signed.
    signed_fraction: Dict[str, float]

    def format(self) -> str:
        table = TableFormatter(CATEGORIES, col_width=16)
        for workload, values in self.rows.items():
            table.add_row(workload, values, fmt="{:.1f}")
        lines = [
            "Fig. 16 — Instructions of interest (millions per 1B instructions)",
            table.render(),
            "",
            "Signed fraction of memory accesses:",
        ]
        for workload, frac in self.signed_fraction.items():
            lines.append(f"  {workload:12s} {frac:6.1%}")
        return "\n".join(lines)


def instruction_mix(lowered) -> dict:
    """The Fig. 16 counts of one lowered program: ``{"counts": {category:
    count}, "instructions": program length}``, integers only, so a fresh
    mix and a cached one are equal.  A load or store is signed when its
    address carries bits above the virtual-address mask."""
    program = lowered.program
    ops = np.frombuffer(program.ops, dtype=np.uint8)
    signed = program.addresses > lowered.pointer_layout.va_mask
    loads, stores = ops == _LOAD, ops == _STORE
    masks = (
        loads & ~signed,
        stores & ~signed,
        loads & signed,
        stores & signed,
        np.isin(ops, _BOUNDS_CODES),
        np.isin(ops, _PAC_CODES),
    )
    counts = {
        category: int(np.count_nonzero(mask))
        for category, mask in zip(CATEGORIES, masks)
    }
    return {"counts": counts, "instructions": len(program)}


def cells(
    suite: ExperimentSuite, workloads: Optional[List[str]] = None
) -> List[CellSpec]:
    """The plan of Fig. 16: one PA+AOS mix cell per workload.  Under
    ``repro all`` it shares its group's PA+AOS lowering with Fig. 14."""
    return [CellSpec(w, "pa+aos", mix=True) for w in workloads or SPEC_WORKLOADS]


def run_fig16(
    suite: Optional[ExperimentSuite] = None,
    workloads: Optional[List[str]] = None,
) -> Fig16Result:
    suite = suite or ExperimentSuite()
    plan = cells(suite, workloads)
    suite.ensure_cells(plan)

    rows: Dict[str, Dict[str, float]] = {}
    signed_fraction: Dict[str, float] = {}
    for cell in plan:
        mix = suite.outcome(cell)
        counts = mix["counts"]
        # Scale to "millions per 1B instructions" like the paper's axis.
        scale = 1e9 / mix["instructions"] / 1e6
        rows[cell.workload] = {k: counts[k] * scale for k in CATEGORIES}
        signed = counts["SignedLoad"] + counts["SignedStore"]
        mem_ops = signed + counts["UnsignedLoad"] + counts["UnsignedStore"]
        signed_fraction[cell.workload] = signed / mem_ops if mem_ops else 0.0
    return Fig16Result(rows=rows, signed_fraction=signed_fraction)
