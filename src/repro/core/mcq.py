r"""The memory check queue (MCQ) and its finite state machines — §V-A, Fig. 8.

Every memory instruction issued to the LSU is also enqueued here; ``bndstr``
and ``bndclr`` are issued directly here.  Each entry walks one of two FSMs:

``load/store`` (Fig. 8a)::

    Init --signed--> BndChk --succeed--> Done
      \--!signed--> Done      \--fail--> IncCnt --count<W--> BndChk
                                             \--count==W--> Fail

``bndstr/bndclr`` (Fig. 8b)::

    Init --> OccChk --succeed--> BndStr --committed--> Done
                 \--fail--> IncCnt --count<W--> OccChk
                                 \--count==W--> Fail

Each ``BndChk``/``OccChk`` visit loads one 64-byte HBT way line and checks
up to eight bounds in parallel (§V-A).  The MCU drives the FSM steps and
charges one bounds-line access per visit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Deque, List, Optional

from ..errors import SimulationError
from .hbt import HashedBoundsTable


class MCQState(Enum):
    """Operation states of the Fig. 8 FSMs."""

    INIT = auto()
    OCC_CHK = auto()
    BND_CHK = auto()
    BND_STR = auto()
    INC_CNT = auto()
    FAIL = auto()
    DONE = auto()


class MCQType(Enum):
    """The Type field: bounds-table management vs load/store (§V-A.1)."""

    LOAD = auto()
    STORE = auto()
    BNDSTR = auto()
    BNDCLR = auto()


@dataclass(slots=True)
class MCQEntry:
    """One in-flight bounds operation (the fields of §V-A.1).

    ``slots=True``: one entry is allocated per table op / reference-kernel
    signed check, so the per-instance ``__dict__`` is measurable overhead.
    """

    entry_type: MCQType
    #: Stripped pointer address being validated / managed.
    address: int
    #: The PAC extracted from the pointer (row index).
    pac: int
    #: The AHC (0 means unsigned: no checking needed).
    ahc: int
    #: Object size for bndstr.
    size: int = 0
    #: Way to access next (seeded by the BWB hint for checks).
    way: int = 0
    #: Ways accessed so far for this operation.
    count: int = 0
    #: Set when the instruction retires from the ROB; bounds stores may only
    #: be sent to memory afterwards (store-store ordering, §V-A.1).
    committed: bool = False
    state: MCQState = MCQState.INIT
    valid: bool = True
    #: Way where the operation succeeded (for BWB update on retirement).
    result_way: Optional[int] = None
    #: Line addresses loaded (the MCU charges one cache access each).
    lines_accessed: List[int] = field(default_factory=list)

    @property
    def is_signed(self) -> bool:
        return self.ahc != 0

    @property
    def is_table_op(self) -> bool:
        return self.entry_type in (MCQType.BNDSTR, MCQType.BNDCLR)

    # ------------------------------------------------------------- FSM steps

    def step(self, table: HashedBoundsTable) -> MCQState:
        """Advance the FSM by one state transition against ``table``.

        Returns the new state.  Callers drive this until the entry reaches
        DONE or FAIL.
        """
        if self.state is MCQState.INIT:
            self._step_init()
        elif self.state is MCQState.OCC_CHK:
            self._step_occ_chk(table)
        elif self.state is MCQState.BND_CHK:
            self._step_bnd_chk(table)
        elif self.state is MCQState.INC_CNT:
            self._step_inc_cnt(table)
        elif self.state is MCQState.BND_STR:
            self._step_bnd_str()
        elif self.state in (MCQState.DONE, MCQState.FAIL):
            raise SimulationError("stepping a completed MCQ entry")
        return self.state

    def _step_init(self) -> None:
        if self.is_table_op:
            self.state = MCQState.OCC_CHK
        elif self.is_signed:
            self.state = MCQState.BND_CHK
        else:
            self.state = MCQState.DONE

    def _step_occ_chk(self, table: HashedBoundsTable) -> None:
        self.lines_accessed.extend(table.way_line_addresses(self.pac, self.way))
        if self.entry_type is MCQType.BNDSTR:
            succeeded = table.way_has_free_slot(self.pac, self.way)
        else:  # BNDCLR: the loaded lower bound must equal the pointer address
            succeeded = table.way_has_lower(self.pac, self.way, self.address)
        if succeeded:
            self.result_way = self.way
            self.state = MCQState.BND_STR
        else:
            self.state = MCQState.INC_CNT

    def _step_bnd_chk(self, table: HashedBoundsTable) -> None:
        self.lines_accessed.extend(table.way_line_addresses(self.pac, self.way))
        if table.way_holds(self.pac, self.way, self.address):
            self.result_way = self.way
            self.state = MCQState.DONE
        else:
            self.state = MCQState.INC_CNT

    def _step_inc_cnt(self, table: HashedBoundsTable) -> None:
        self.count += 1
        if self.count >= table.ways:
            self.state = MCQState.FAIL
        else:
            # Recalculate BndAddr for the next way (wrapping from the hint).
            self.way = (self.way + 1) % table.ways
            self.state = MCQState.OCC_CHK if self.is_table_op else MCQState.BND_CHK

    def _step_bnd_str(self) -> None:
        # Waits for Committed; the store request is sent by the MCU, which
        # performs the actual table mutation and the store-load replay check.
        if self.committed:
            self.state = MCQState.DONE

    def replay(self, start_way: int = 0) -> None:
        """Store-load replay (§V-E): restart the walk with Count reset."""
        if self.state is MCQState.DONE:
            return  # completed entries found valid bounds; no replay needed
        self.count = 0
        self.way = start_way
        self.state = MCQState.INIT


class MemoryCheckQueue:
    """The 48-entry (Table IV) FIFO holding in-flight bounds operations."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = 48) -> None:
        if capacity < 1:
            raise SimulationError("MCQ capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[MCQEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def enqueue(self, entry: MCQEntry) -> None:
        if self.full:
            raise SimulationError("enqueue on a full MCQ (issue must stall)")
        self._entries.append(entry)

    def head(self) -> Optional[MCQEntry]:
        return self._entries[0] if self._entries else None

    def retire_head(self) -> MCQEntry:
        """Deallocate the head entry (must be DONE+committed or FAIL)."""
        if not self._entries:
            raise SimulationError("retiring from an empty MCQ")
        head = self._entries[0]
        if head.state not in (MCQState.DONE, MCQState.FAIL):
            raise SimulationError("retiring an MCQ entry that has not completed")
        return self._entries.popleft()

    def newer_than(self, entry: MCQEntry) -> List[MCQEntry]:
        """Entries younger than ``entry`` (for store-load replay, §V-E)."""
        entries = list(self._entries)
        for idx, candidate in enumerate(entries):
            if candidate is entry:  # identity: value-equal entries may coexist
                return entries[idx + 1 :]
        return []

    def __iter__(self):
        return iter(self._entries)
