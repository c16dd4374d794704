"""Program containers: lowered dynamic instruction streams, held as columns.

A :class:`Program` is an immutable, lowered dynamic instruction trace ready
for the timing model.  It holds one column per instruction field, the
layout the fast kernel walks: its C loop (``repro/kernel/_fast.c``, loaded
by :mod:`repro.kernel.fast`) reads these ``bytes`` and tuples in place,
with no copy or conversion pass:

- ``kinds``      — one dispatch code per instruction (``bytes``, so
  indexing yields a small int and dispatch is integer compares instead of
  enum identity chains; see the ``KIND_*`` constants);
- ``addresses``  — the pointer operand;
- ``latencies``  — the resolved execution latency of the fixed-latency
  kinds (the ``latency`` override or the per-op default — exactly the
  value the reference loop's ``else`` branch computes; 0.0 for markers,
  loads, stores and check µops, whose latency the memory system decides);
- ``deps``       — the dependency-distance tuples (most are empty);
- ``sizes``      — the access/allocation size (``bndstr`` reads it);

plus the columns only the :class:`~repro.isa.instructions.Instruction`
view needs: ``ops`` (``Op.value`` per instruction), ``mispredicted``,
``overrides`` (the ``latency`` field) and ``meta``.  Every column is
``bytes`` or a tuple, so a consumer that tries to mutate one raises instead
of corrupting a later run of the same program.

:class:`ProgramBuilder` appends straight to those columns; the lowering
passes (:mod:`repro.compiler.passes`) use its :meth:`~ProgramBuilder.emit`
fast path with raw op codes.  The ``instructions`` tuple is built lazily,
only for the reference pipeline and for tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .instructions import DEFAULT_LATENCY, Instruction, Op

#: Dispatch codes: dense small ints so the hot loop compares integers.
KIND_MARKER = 0    # malloc/free trace markers (zero-latency bookkeeping)
KIND_LOAD = 1
KIND_STORE = 2
KIND_WCHK = 3      # watchdog check µop (metadata access, unmasked address)
KIND_BRANCH_MISS = 4   # mispredicted branch (predicted ones are KIND_OTHER)
KIND_BNDSTR = 5
KIND_BNDCLR = 6
KIND_OTHER = 7     # fixed-latency ALU/FP/crypto/branch-hit/...

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
#: ``bytes.translate`` table: op code -> kind (a predicted branch is
#: KIND_OTHER; :meth:`ProgramBuilder.build` patches the mispredicted ones).
_KIND_TABLE = bytes(
    _KIND_OF_OP.get(op, KIND_OTHER) if op is not None else KIND_OTHER
    for op in _OP_OF_CODE
)
#: Kinds whose latency the memory system decides, not the latency column.
_UNTIMED_KINDS = frozenset({KIND_MARKER, KIND_LOAD, KIND_STORE, KIND_WCHK})
#: op code -> resolved default latency as the latency column holds it.
_LATENCY_OF_CODE = tuple(
    0.0 if op is None or _KIND_OF_OP.get(op) in _UNTIMED_KINDS
    else float(DEFAULT_LATENCY[op])
    for op in _OP_OF_CODE
)
_BRANCH = Op.BRANCH.value


@dataclass(frozen=True, init=False)
class Program:
    """An immutable dynamic instruction trace, one column per field."""

    kinds: bytes
    addresses: Tuple[int, ...]
    latencies: Tuple[float, ...]
    deps: Tuple[Tuple[int, ...], ...]
    sizes: Tuple[int, ...]
    ops: bytes
    mispredicted: bytes
    overrides: Tuple[int, ...]
    meta: Tuple[object, ...]
    name: str

    def __init__(
        self, instructions: Iterable[Instruction] = (), name: str = "program"
    ) -> None:
        """The program of ``instructions``, in order (hand-built streams;
        the lowering passes build through :class:`ProgramBuilder`)."""
        builder = ProgramBuilder(name)
        builder.emit_all(instructions)
        self.__dict__.update(builder.columns())

    @cached_property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The :class:`Instruction` view, built on first use."""
        ops = _OP_OF_CODE
        return tuple(
            Instruction(ops[code], address, size, deps, latency, bool(miss), meta)
            for code, address, size, deps, latency, miss, meta in zip(
                self.ops,
                self.addresses,
                self.sizes,
                self.deps,
                self.overrides,
                self.mispredicted,
                self.meta,
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
        dynamic instruction counts" observation (§I).
        """
        if len(other) == 0:
            raise ValueError("cannot compare against an empty program")
        return len(self) / len(other) - 1.0


class ProgramBuilder:
    """Appends instructions to the columns of a :class:`Program`.

    :meth:`emit` is the lowering passes' fast path: an ``Op.value`` code,
    an address and a deps tuple go straight onto the dense columns.  The
    rarely set fields (``size``, ``meta``, ``latency``, ``mispredicted``)
    are kept sparse until :meth:`build`.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.ops = bytearray()
        self.addresses: List[int] = []
        self.deps: List[Tuple[int, ...]] = []
        #: index -> value, for the instructions that set the field.
        self.sizes: Dict[int, int] = {}
        self.meta: Dict[int, object] = {}
        self.overrides: Dict[int, int] = {}
        self.mispredicted: List[int] = []

    def __len__(self) -> int:
        return len(self.ops)

    def emit(self, code: int, address: int = 0, deps: Tuple[int, ...] = ()) -> None:
        """Append one instruction by ``Op.value`` code."""
        self.ops.append(code)
        self.addresses.append(address)
        self.deps.append(deps)

    def emit_run(self, code: int, addresses: range, meta: object) -> None:
        """Append one dependency-free ``code`` instruction per address,
        each carrying ``meta`` (token, tag and colouring store runs)."""
        first = len(self.ops)
        count = len(addresses)
        self.ops.extend(bytes((code,)) * count)
        self.addresses.extend(addresses)
        self.deps.extend([()] * count)
        self.meta.update(dict.fromkeys(range(first, first + count), meta))

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
        self.emit(op.value, address, tuple(deps))
        if size != 8:
            self.sizes[index] = size
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

    def columns(self) -> Dict[str, object]:
        """Every :class:`Program` field, as the built program holds it."""
        ops = bytes(self.ops)
        n = len(ops)
        kinds = ops.translate(_KIND_TABLE)
        latencies = list(map(_LATENCY_OF_CODE.__getitem__, ops))
        mispredicted = bytearray(n)
        if self.mispredicted:
            patched = bytearray(kinds)
            for index in self.mispredicted:
                mispredicted[index] = 1
                if ops[index] == _BRANCH:
                    patched[index] = KIND_BRANCH_MISS
            kinds = bytes(patched)
        overrides = [0] * n
        for index, latency in self.overrides.items():
            overrides[index] = latency
            if kinds[index] not in _UNTIMED_KINDS:
                latencies[index] = float(latency)
        sizes = [8] * n
        for index, size in self.sizes.items():
            sizes[index] = size
        meta: List[object] = [None] * n
        for index, value in self.meta.items():
            meta[index] = value
        return dict(
            kinds=kinds,
            addresses=tuple(self.addresses),
            latencies=tuple(latencies),
            deps=tuple(self.deps),
            sizes=tuple(sizes),
            ops=ops,
            mispredicted=bytes(mispredicted),
            overrides=tuple(overrides),
            meta=tuple(meta),
            name=self.name,
        )

    def build(self) -> Program:
        program = Program.__new__(Program)
        program.__dict__.update(self.columns())
        return program
