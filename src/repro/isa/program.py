"""Program containers: lowered dynamic instruction streams, held as typed columns.

A :class:`Program` is an immutable, lowered dynamic instruction trace ready
for the timing model.  It holds one column per instruction field, the one
layout both kernels walk: the reference scoreboard
(:meth:`repro.cpu.pipeline.PipelineModel.run`) reads the columns as
Python lists, and the C loop (``repro/kernel/_fast.c``, loaded by
:mod:`repro.kernel.fast`) reads the same buffers in place through the
buffer protocol, with no copy and no per-instruction conversion:

- ``kinds``         — one dispatch code per instruction (``bytes``, so
  dispatch is integer compares instead of enum identity chains; see the
  ``KIND_*`` constants; a mispredicted branch is ``KIND_BRANCH_MISS``);
- ``addresses``     — the pointer operand (``uint64``);
- ``latencies``     — the resolved execution latency of the fixed-latency
  kinds (``float64``: the op's :data:`~repro.isa.instructions.DEFAULT_LATENCY`
  entry, or the instruction's ``latency`` override; 0.0 for markers,
  loads, stores and check µops, whose latency the memory system decides).
  This table is the one place an op's latency is resolved;
- ``dep_offsets`` and ``dep_distances`` — the dependency distances in CSR
  form (``int64``): instruction ``i`` depends on
  ``dep_distances[dep_offsets[i]:dep_offsets[i + 1]]``;
- ``sizes``         — the access/allocation size (``uint64``; ``bndstr``
  reads it);

plus ``ops`` (``Op.value`` per instruction, ``bytes``; Fig. 16's
instruction mix counts it) and the sparse ``meta``, a tuple of
(instruction index, value) pairs (the lowering goldens and tests read
it).  Every typed column is a read-only ``numpy`` array, so a consumer
that tries to mutate one raises instead of corrupting a later run of the
same program.

Programs come from two places.  The lowering passes
(:mod:`repro.compiler.passes`) assemble whole columns in bulk and call
:meth:`Program.from_columns`; hand-built streams (tests, random programs)
go through :class:`ProgramBuilder`, which range-checks every address and
size at build time.  Both take a per-instruction mispredicted flag and
derive ``kinds`` from it; the builder also takes a ``latency`` override
and folds it into ``latencies``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .instructions import DEFAULT_LATENCY, Op

#: Dispatch codes: dense small ints so the hot loop compares integers.
KIND_MARKER = 0  # malloc/free trace markers (zero-latency bookkeeping)
KIND_LOAD = 1
KIND_STORE = 2
KIND_WCHK = 3  # watchdog check µop (metadata access, unmasked address)
KIND_BRANCH_MISS = 4  # mispredicted branch (predicted ones are KIND_OTHER)
KIND_BNDSTR = 5
KIND_BNDCLR = 6
KIND_OTHER = 7  # fixed-latency ALU/FP/crypto/branch-hit/...

_KIND_OF_OP = {
    Op.MALLOC_MARK: KIND_MARKER,
    Op.FREE_MARK: KIND_MARKER,
    Op.LOAD: KIND_LOAD,
    Op.STORE: KIND_STORE,
    Op.WCHK: KIND_WCHK,
    Op.BNDSTR: KIND_BNDSTR,
    Op.BNDCLR: KIND_BNDCLR,
}
#: Kinds whose latency the memory system decides, not the latency column.
_UNTIMED_KINDS = frozenset({KIND_MARKER, KIND_LOAD, KIND_STORE, KIND_WCHK})

#: ``Op.value`` -> kind (a predicted branch is KIND_OTHER;
#: :meth:`Program.from_columns` patches the mispredicted ones).
_KIND_TABLE = np.full(256, KIND_OTHER, dtype=np.uint8)
#: ``Op.value`` -> resolved default latency (0.0 for the untimed kinds).
_LATENCY_TABLE = np.zeros(256, dtype=np.float64)
for _op in Op:
    _kind = _KIND_OF_OP.get(_op, KIND_OTHER)
    _KIND_TABLE[_op.value] = _kind
    if _kind not in _UNTIMED_KINDS:
        _LATENCY_TABLE[_op.value] = DEFAULT_LATENCY[_op]
_BRANCH = Op.BRANCH.value


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Program:
    """An immutable dynamic instruction trace, one column per field.

    Build one with :meth:`from_columns` or :class:`ProgramBuilder`; both
    derive ``kinds`` and ``latencies`` from what was emitted.
    """

    kinds: bytes
    addresses: np.ndarray
    latencies: np.ndarray
    dep_offsets: np.ndarray
    dep_distances: np.ndarray
    sizes: np.ndarray
    ops: bytes
    meta: Tuple[Tuple[int, object], ...]
    name: str

    @classmethod
    def from_columns(
        cls,
        name: str,
        ops: np.ndarray,
        addresses: np.ndarray,
        sizes: np.ndarray,
        dep_offsets: np.ndarray,
        dep_distances: np.ndarray,
        mispredicted: np.ndarray,
        meta: Dict[int, object],
        overrides: Optional[Dict[int, int]] = None,
    ) -> "Program":
        """A program of whole columns: ``ops`` (``uint8``), ``addresses``
        and ``sizes`` (``uint64``), the CSR dependencies (``int64``),
        ``mispredicted`` (``uint8``, 0 or 1 per instruction), the sparse
        ``meta`` and the sparse latency ``overrides`` (index -> value).
        The dispatch kinds and resolved latencies are derived here, in one
        pass each; the arrays become the program's own, read-only,
        columns."""
        kinds = _KIND_TABLE[ops]
        kinds[(mispredicted != 0) & (ops == _BRANCH)] = KIND_BRANCH_MISS
        latencies = _LATENCY_TABLE[ops]
        for index, latency in (overrides or {}).items():
            if kinds[index] not in _UNTIMED_KINDS:
                latencies[index] = float(latency)
        return cls(
            kinds=kinds.tobytes(),
            addresses=_frozen(addresses),
            latencies=_frozen(latencies),
            dep_offsets=_frozen(dep_offsets),
            dep_distances=_frozen(dep_distances),
            sizes=_frozen(sizes),
            ops=ops.tobytes(),
            meta=tuple(meta.items()),
            name=name,
        )

    def __len__(self) -> int:
        return len(self.kinds)


def _u64_column(values: List[int], field: str) -> np.ndarray:
    """``values`` as a ``uint64`` column; a value outside 0..2**64-1 raises
    :class:`SimulationError` naming the instruction.

    The range is checked here, not left to the conversion: some ``numpy``
    releases wrap a negative int onto ``uint64`` without an error.
    """
    if values and (min(values) < 0 or max(values) >= 1 << 64):
        for index, value in enumerate(values):
            if not 0 <= value < 1 << 64:
                raise SimulationError(
                    f"instruction {index}: {field} {value} is outside 0..2**64-1"
                )
    return np.array(values, dtype=np.uint64)


class ProgramBuilder:
    """Appends hand-built instructions, then builds their :class:`Program`.

    The rarely set fields (``latency``, ``mispredicted``, ``meta``) are
    kept sparse; :meth:`build` range-checks every address and size.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.ops = bytearray()
        self.addresses: List[int] = []
        self.sizes: List[int] = []
        self.deps: List[Tuple[int, ...]] = []
        #: index -> value, for the instructions that set the field.
        self.meta: Dict[int, object] = {}
        self.overrides: Dict[int, int] = {}
        self.mispredicted: List[int] = []

    def __len__(self) -> int:
        return len(self.ops)

    def emit_op(
        self,
        op: Op,
        address: int = 0,
        size: int = 8,
        deps: Tuple[int, ...] = (),
        latency: int = 0,
        mispredicted: bool = False,
        meta: Optional[object] = None,
    ) -> None:
        """Append one instruction: ``address`` is its pointer operand,
        ``size`` its access or allocation size, ``deps`` the distances
        (>= 1) to the earlier instructions it depends on, ``latency`` a
        fixed-latency override (0 keeps the op's default), ``mispredicted``
        marks a branch that mispredicts, ``meta`` is a free-form payload."""
        index = len(self.ops)
        self.ops.append(op.value)
        self.addresses.append(address)
        self.sizes.append(size)
        self.deps.append(tuple(deps))
        if latency:
            self.overrides[index] = latency
        if mispredicted:
            self.mispredicted.append(index)
        if meta is not None:
            self.meta[index] = meta

    def build(self) -> Program:
        n = len(self.ops)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(deps) for deps in self.deps], out=offsets[1:])
        mispredicted = np.zeros(n, dtype=np.uint8)
        mispredicted[self.mispredicted] = 1
        return Program.from_columns(
            self.name,
            np.frombuffer(self.ops, dtype=np.uint8).copy(),
            _u64_column(self.addresses, "address"),
            _u64_column(self.sizes, "size"),
            offsets,
            np.array(list(chain.from_iterable(self.deps)), dtype=np.int64),
            mispredicted,
            self.meta,
            self.overrides,
        )
