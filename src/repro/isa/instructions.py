"""The instruction vocabulary executed by the trace-driven core model.

The simulator is trace-driven: workload generators emit *events* (compute,
memory access, malloc, call...) and the compiler passes (:mod:`repro.compiler`)
lower them into a :class:`~repro.isa.program.Program` per mechanism, one
typed column per instruction field:

- the opcode (:class:`Op`), and the dispatch kind the kernels derive from
  it (a mispredicted branch is a kind of its own);
- the (possibly signed) pointer value of memory and pointer ops;
- the access size in bytes, or the allocation size for ``bndstr``;
- the relative distances to earlier producing instructions, used by the
  out-of-order timing model for dependency stalls;
- the execution latency of the fixed-latency ops, resolved from
  :data:`DEFAULT_LATENCY` (or a hand-built stream's override);
- an opcode-specific payload (e.g. the object id of an access).
"""

from __future__ import annotations

from enum import Enum, auto


class Op(Enum):
    """Opcodes understood by the core model."""

    # Ordinary computation.
    ALU = auto()          # integer arithmetic / logic
    FALU = auto()         # floating point
    NOP = auto()

    # Control flow.
    BRANCH = auto()       # conditional branch (may be flagged mispredicted)
    CALL = auto()
    RET = auto()

    # Memory.
    LOAD = auto()
    STORE = auto()

    # Stock Arm PA (used by the PA/PARTS baseline and PA+AOS, §II-B).
    PACIA = auto()        # sign return address / code pointer
    AUTIA = auto()        # authenticate return address / code pointer
    PACDA = auto()        # sign data pointer (PARTS data-pointer integrity)
    AUTDA = auto()        # authenticate data pointer
    XPAC = auto()         # strip PAC

    # AOS ISA extension (§IV-A).
    PACMA = auto()        # sign data pointer with PAC + AHC
    XPACM = auto()        # strip PAC and AHC
    AUTM = auto()         # authenticate AHC != 0 (on-load authentication)
    BNDSTR = auto()       # compute + store bounds into the HBT
    BNDCLR = auto()       # clear bounds in the HBT

    # Watchdog baseline micro-ops (Fig. 5a).
    WCHK = auto()         # lock-and-key + bounds check µop
    WMETA = auto()        # metadata propagation instruction

    # Trace markers (zero-latency, not real instructions).
    MALLOC_MARK = auto()  # records an allocation site boundary
    FREE_MARK = auto()


#: Per-op default execution latencies (cycles).  Loads/stores get their
#: latency from the cache hierarchy instead.  Only the latency table of
#: :mod:`repro.isa.program` reads this; both kernels read its resolved
#: ``latencies`` column.
DEFAULT_LATENCY = {
    Op.ALU: 1,
    Op.FALU: 3,
    Op.NOP: 1,
    Op.BRANCH: 1,
    Op.CALL: 1,
    Op.RET: 1,
    Op.PACIA: 4,
    Op.AUTIA: 4,
    Op.PACDA: 4,
    Op.AUTDA: 4,
    Op.PACMA: 4,
    Op.AUTM: 1,   # AHC != 0 comparison only, no QARMA (§VII-B)
    Op.XPAC: 1,
    Op.XPACM: 1,
    Op.BNDSTR: 1,  # occupies MCU; latency modelled there
    Op.BNDCLR: 1,
    Op.WCHK: 1,    # check µop; metadata access latency modelled separately
    Op.WMETA: 1,
    Op.MALLOC_MARK: 0,
    Op.FREE_MARK: 0,
}
