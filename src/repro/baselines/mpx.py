"""A functional Intel MPX-style two-level bounds-table model [12].

MPX associates bounds with the *memory location a pointer is stored in*:
``bndstx``/``bndldx`` walk a two-level structure — bounds directory (BD)
then bounds table (BT) — indexed by the pointer's storage address
(Fig. 4c).  That walk is the paper's Challenge 5: "approximately three
register-to-register moves, three shifts, and two memory loads" per
metadata access, versus AOS's single add (base + PAC) and one load.

This model implements the BD/BT walk functionally and exposes the
per-access instruction cost so the Challenge-5 comparison is quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime


@dataclass(frozen=True)
class AddressingCost:
    """Instruction cost of one metadata (bounds) access."""

    moves: int
    shifts: int
    adds: int
    memory_loads: int

    @property
    def total_instructions(self) -> int:
        return self.moves + self.shifts + self.adds + self.memory_loads


#: Challenge 5: the MPX two-level walk (§III-A).
MPX_ADDRESSING_COST = AddressingCost(moves=3, shifts=3, adds=0, memory_loads=2)
#: AOS: BndAddr = BND_BASE + (PAC << shift) (Eq. 1/2) and one line load.
AOS_ADDRESSING_COST = AddressingCost(moves=0, shifts=1, adds=1, memory_loads=1)


class MPXFault(Exception):
    """An MPX bounds check failed."""


class MPXRuntime(HeapRuntime):
    """Two-level (BD -> BT) bounds storage keyed by pointer location.

    Not a registered mechanism: ``load``/``store`` take the pointer's
    storage location as well, which the scenario corpus does not model."""

    name = "mpx"

    #: Geometry loosely following MPX on 64-bit: BD indexed by the upper
    #: pointer-location bits, BT entries by the lower ones.
    BD_SHIFT = 20
    BT_MASK = (1 << 20) - 1

    def __init__(self, layout: AddressSpaceLayout = DEFAULT_LAYOUT) -> None:
        super().__init__(layout)
        #: Bounds directory: BD index -> bounds table (dict).
        self._directory: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self.table_loads = 0
        self.check_failures = 0

    # -------------------------------------------------------------- bndstx

    def bndstx(self, pointer_location: int, lower: int, upper: int) -> None:
        """Store bounds for the pointer held at ``pointer_location``."""
        bd_index = pointer_location >> self.BD_SHIFT
        table = self._directory.setdefault(bd_index, {})
        table[pointer_location & self.BT_MASK] = (lower, upper)

    def bndldx(self, pointer_location: int) -> Optional[Tuple[int, int]]:
        """The two-level walk: BD load, then BT load (2 memory loads)."""
        self.table_loads += 2
        table = self._directory.get(pointer_location >> self.BD_SHIFT)
        if table is None:
            return None
        return table.get(pointer_location & self.BT_MASK)

    # -------------------------------------------------------------- checks

    def check(self, pointer_location: int, address: int, size: int = 8) -> None:
        """bndcl/bndcu against the bounds bound to the pointer's slot.

        MPX treats missing bounds as unbounded (it must, for compatibility
        with uninstrumented code) — one of its soundness gaps.
        """
        bounds = self.bndldx(pointer_location)
        if bounds is None:
            return
        lower, upper = bounds
        if address < lower or address + size > upper:
            self.check_failures += 1
            raise MPXFault(
                f"bounds violation: [{address:#x}, {address + size:#x}) outside "
                f"[{lower:#x}, {upper:#x})"
            )

    def load(self, pointer_location: int, pointer: int, size: int = 8) -> int:
        self.check(pointer_location, pointer, size)
        return self.read(pointer, size)

    def store(self, pointer_location: int, pointer: int, value: int, size: int = 8) -> None:
        self.check(pointer_location, pointer, size)
        self.write(pointer, value, size)
