"""Program containers: lowered dynamic instruction streams, held as typed columns.

A :class:`Program` is an immutable, lowered dynamic instruction trace ready
for the timing model.  It holds one column per instruction field, the
layout the fast kernel walks: its C loop (``repro/kernel/_fast.c``, loaded
by :mod:`repro.kernel.fast`) reads these buffers in place through the
buffer protocol, with no copy and no per-instruction conversion:

- ``kinds``         — one dispatch code per instruction (``bytes``, so
  dispatch is integer compares instead of enum identity chains; see the
  ``KIND_*`` constants);
- ``addresses``     — the pointer operand (``uint64``);
- ``latencies``     — the resolved execution latency of the fixed-latency
  kinds (``float64``: the op's entry in a 256-entry table, or its
  ``latency`` override — exactly the value the reference loop's ``else``
  branch computes; 0.0 for markers, loads, stores and check µops, whose
  latency the memory system decides);
- ``dep_offsets`` and ``dep_distances`` — the dependency distances in CSR
  form (``int64``): instruction ``i`` depends on
  ``dep_distances[dep_offsets[i]:dep_offsets[i + 1]]``;
- ``sizes``         — the access/allocation size (``uint64``; ``bndstr``
  reads it);

plus the columns only the :class:`~repro.isa.instructions.Instruction`
view needs: ``ops`` (``Op.value`` per instruction) and ``mispredicted``
(``bytes``), and the sparse ``overrides`` (the ``latency`` field) and
``meta``, tuples of (instruction index, value) pairs.  Every typed column
is a read-only ``numpy`` array, so a consumer that tries to mutate one
raises instead of corrupting a later run of the same program.

Programs come from two places.  The lowering passes
(:mod:`repro.compiler.passes`) assemble whole columns in bulk and call
:meth:`Program.from_columns`; hand-built streams (tests, random programs)
go through ``Program(instructions)`` and :class:`ProgramBuilder`, which
range-checks every address and size at build time.  The ``instructions``
tuple is built lazily, only for the reference pipeline and for tests, and
holds Python ints and dependency tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .instructions import DEFAULT_LATENCY, Instruction, Op

#: Dispatch codes: dense small ints so the hot loop compares integers.
KIND_MARKER = 0  # malloc/free trace markers (zero-latency bookkeeping)
KIND_LOAD = 1
KIND_STORE = 2
KIND_WCHK = 3  # watchdog check µop (metadata access, unmasked address)
KIND_BRANCH_MISS = 4  # mispredicted branch (predicted ones are KIND_OTHER)
KIND_BNDSTR = 5
KIND_BNDCLR = 6
KIND_OTHER = 7  # fixed-latency ALU/FP/crypto/branch-hit/...

#: ``Op.value`` -> ``Op`` (the ``ops`` column stores values).
_OP_OF_CODE: List[Optional[Op]] = [None] * 256
for _op in Op:
    _OP_OF_CODE[_op.value] = _op

_KIND_OF_OP = {
    Op.MALLOC_MARK: KIND_MARKER,
    Op.FREE_MARK: KIND_MARKER,
    Op.LOAD: KIND_LOAD,
    Op.STORE: KIND_STORE,
    Op.WCHK: KIND_WCHK,
    Op.BNDSTR: KIND_BNDSTR,
    Op.BNDCLR: KIND_BNDCLR,
}
#: op code -> kind (a predicted branch is KIND_OTHER; :func:`_columns`
#: patches the mispredicted ones).
_KIND_TABLE = np.array(
    [_KIND_OF_OP.get(op, KIND_OTHER) for op in _OP_OF_CODE], dtype=np.uint8
)
#: Kinds whose latency the memory system decides, not the latency column.
_UNTIMED_KINDS = frozenset({KIND_MARKER, KIND_LOAD, KIND_STORE, KIND_WCHK})


def _default_latency(op: Optional[Op]) -> float:
    """The resolved default latency of ``op`` as the latency column holds it."""
    if op is None or _KIND_OF_OP.get(op) in _UNTIMED_KINDS:
        return 0.0
    return float(DEFAULT_LATENCY[op])


#: op code -> resolved default latency.
_LATENCY_TABLE = np.array(
    [_default_latency(op) for op in _OP_OF_CODE], dtype=np.float64
)
_BRANCH = Op.BRANCH.value


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _columns(
    name: str,
    ops: np.ndarray,
    addresses: np.ndarray,
    sizes: np.ndarray,
    dep_offsets: np.ndarray,
    dep_distances: np.ndarray,
    mispredicted: np.ndarray,
    overrides: Dict[int, int],
    meta: Dict[int, object],
) -> dict:
    """Every :class:`Program` field from the emitted columns: the dispatch
    kinds and resolved latencies are derived here, in one pass each."""
    kinds = _KIND_TABLE[ops]
    kinds[(mispredicted != 0) & (ops == _BRANCH)] = KIND_BRANCH_MISS
    latencies = _LATENCY_TABLE[ops]
    for index, latency in overrides.items():
        if kinds[index] not in _UNTIMED_KINDS:
            latencies[index] = float(latency)
    return dict(
        kinds=kinds.tobytes(),
        addresses=_frozen(addresses),
        latencies=_frozen(latencies),
        dep_offsets=_frozen(dep_offsets),
        dep_distances=_frozen(dep_distances),
        sizes=_frozen(sizes),
        ops=ops.tobytes(),
        mispredicted=mispredicted.tobytes(),
        overrides=tuple(overrides.items()),
        meta=tuple(meta.items()),
        name=name,
    )


@dataclass(frozen=True, init=False, eq=False)
class Program:
    """An immutable dynamic instruction trace, one column per field."""

    kinds: bytes
    addresses: np.ndarray
    latencies: np.ndarray
    dep_offsets: np.ndarray
    dep_distances: np.ndarray
    sizes: np.ndarray
    ops: bytes
    mispredicted: bytes
    overrides: Tuple[Tuple[int, int], ...]
    meta: Tuple[Tuple[int, object], ...]
    name: str

    def __init__(
        self, instructions: Iterable[Instruction] = (), name: str = "program"
    ) -> None:
        """The program of ``instructions``, in order (hand-built streams;
        the lowering passes assemble theirs with :meth:`from_columns`)."""
        builder = ProgramBuilder(name)
        builder.emit_all(instructions)
        self.__dict__.update(builder.columns())

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
    ) -> "Program":
        """A program of whole columns: ``ops`` (``uint8``), ``addresses``
        and ``sizes`` (``uint64``), the CSR dependencies (``int64``),
        ``mispredicted`` (``uint8``, 0 or 1 per instruction) and the
        sparse ``meta`` (index -> value).  The arrays become the program's
        own, read-only, columns."""
        program = cls.__new__(cls)
        program.__dict__.update(
            _columns(
                name,
                ops,
                addresses,
                sizes,
                dep_offsets,
                dep_distances,
                mispredicted,
                {},
                meta,
            )
        )
        return program

    @cached_property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The :class:`Instruction` view, built on first use."""
        ops = _OP_OF_CODE
        overrides, meta = dict(self.overrides), dict(self.meta)
        offsets = self.dep_offsets.tolist()
        distances = self.dep_distances.tolist()
        deps = [tuple(distances[a:b]) for a, b in zip(offsets, offsets[1:])]
        return tuple(
            Instruction(
                ops[code],
                address,
                size,
                dep,
                overrides.get(index, 0),
                bool(miss),
                meta.get(index),
            )
            for index, (code, address, size, dep, miss) in enumerate(
                zip(
                    self.ops,
                    self.addresses.tolist(),
                    self.sizes.tolist(),
                    deps,
                    self.mispredicted,
                )
            )
        )

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def op_histogram(self) -> Dict[Op, int]:
        """Dynamic instruction counts per opcode."""
        return {_OP_OF_CODE[code]: n for code, n in Counter(self.ops).items()}

    def memory_op_count(self) -> int:
        return self.kinds.count(KIND_LOAD) + self.kinds.count(KIND_STORE)

    def instruction_overhead_vs(self, other: "Program") -> float:
        """Fractional dynamic-instruction overhead of ``self`` over ``other``.

        This is the metric behind the paper's "Watchdog showed 44 % more
        dynamic instructions" observation (§I).
        """
        if len(other) == 0:
            raise ValueError("cannot compare against an empty program")
        return len(self) / len(other) - 1.0


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
        """Append one instruction with every :class:`Instruction` field."""
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

    def emit_all(self, instructions: Iterable[Instruction]) -> None:
        for inst in instructions:
            self.emit_op(
                inst.op,
                inst.address,
                inst.size,
                inst.deps,
                inst.latency,
                inst.mispredicted,
                inst.meta,
            )

    def columns(self) -> dict:
        """Every :class:`Program` field, as the built program holds it."""
        n = len(self.ops)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(deps) for deps in self.deps], out=offsets[1:])
        mispredicted = np.zeros(n, dtype=np.uint8)
        mispredicted[self.mispredicted] = 1
        return _columns(
            self.name,
            np.frombuffer(self.ops, dtype=np.uint8).copy(),
            _u64_column(self.addresses, "address"),
            _u64_column(self.sizes, "size"),
            offsets,
            np.array(list(chain.from_iterable(self.deps)), dtype=np.int64),
            mispredicted,
            dict(self.overrides),
            dict(self.meta),
        )

    def build(self) -> Program:
        program = Program.__new__(Program)
        program.__dict__.update(self.columns())
        return program
