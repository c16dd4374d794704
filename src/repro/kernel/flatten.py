"""Program flattening for the fast-path kernel.

The reference pipeline (:mod:`repro.cpu.pipeline`) touches several
:class:`~repro.isa.instructions.Instruction` attributes per dynamic
instruction (``op`` identity tests, ``address``, ``deps``, ``latency``,
``mispredicted``).  The fast kernel instead walks preallocated parallel
columns indexed by instruction position:

- ``kinds``      — one dispatch code per instruction (``bytes``, so
  indexing yields a small int and dispatch is integer compares instead of
  enum identity chains);
- ``addresses``  — the pointer operand (0 where unused);
- ``latencies``  — the resolved execution latency for non-memory kinds
  (``inst.latency`` override or the per-op default — exactly the value the
  reference loop's ``else`` branch computes);
- ``deps``       — the original dependency-distance tuples (interned
  as-is: they are already tuples, and most are empty);
- ``sizes``      — the ``bndstr`` allocation size.

All columns are immutable (``bytes``/tuples): the flattened view is cached
on the program and reused by every later run of it, so accidental mutation
must raise rather than corrupt a later run.

Flattening is pure bookkeeping — no timing decision is made here — and is
memoized on the (frozen, hashable-by-identity) :class:`Program` so repeated
runs of one lowered workload flatten once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..isa.instructions import DEFAULT_LATENCY, Op
from ..isa.program import Program

#: Dispatch codes: dense small ints so the hot loop compares integers.
KIND_MARKER = 0    # malloc/free trace markers (zero-latency bookkeeping)
KIND_LOAD = 1
KIND_STORE = 2
KIND_WCHK = 3      # watchdog check µop (metadata access, unmasked address)
KIND_BRANCH_MISS = 4   # mispredicted branch (predicted ones are KIND_OTHER)
KIND_BNDSTR = 5
KIND_BNDCLR = 6
KIND_OTHER = 7     # fixed-latency ALU/FP/crypto/branch-hit/...

#: Attribute used to memoize the flattened view on the Program instance.
_CACHE_ATTR = "_kernel_flat_cache"


@dataclass(frozen=True)
class FlatProgram:
    """Columnar view of one lowered program (immutable parallel arrays)."""

    count: int
    kinds: bytes
    addresses: Tuple[int, ...]
    latencies: Tuple[float, ...]
    deps: Tuple[Tuple[int, ...], ...]
    sizes: Tuple[int, ...]


def _flatten(program: Program) -> FlatProgram:
    instructions = program.instructions
    n = len(instructions)
    kinds = bytearray(n)
    addresses = [0] * n
    latencies = [0.0] * n
    deps: list = [()] * n
    sizes = [0] * n

    load, store, wchk = Op.LOAD, Op.STORE, Op.WCHK
    branch, bndstr, bndclr = Op.BRANCH, Op.BNDSTR, Op.BNDCLR
    malloc_mark, free_mark = Op.MALLOC_MARK, Op.FREE_MARK

    for i, inst in enumerate(instructions):
        op = inst.op
        if op is malloc_mark or op is free_mark:
            continue  # kinds[i] stays KIND_MARKER
        addresses[i] = inst.address
        deps[i] = inst.deps
        if op is load:
            kinds[i] = KIND_LOAD
        elif op is store:
            kinds[i] = KIND_STORE
        elif op is wchk:
            kinds[i] = KIND_WCHK
        else:
            if op is bndstr:
                kinds[i] = KIND_BNDSTR
                sizes[i] = inst.size
            elif op is bndclr:
                kinds[i] = KIND_BNDCLR
            elif op is branch and inst.mispredicted:
                kinds[i] = KIND_BRANCH_MISS
            else:
                kinds[i] = KIND_OTHER
            # Same resolution the reference loop's else-branch performs.
            latencies[i] = float(inst.latency if inst.latency else DEFAULT_LATENCY[op])

    return FlatProgram(
        count=n,
        kinds=bytes(kinds),
        addresses=tuple(addresses),
        latencies=tuple(latencies),
        deps=tuple(deps),
        sizes=tuple(sizes),
    )


def flatten_program(program: Program) -> FlatProgram:
    """Flatten ``program`` into parallel columns (memoized per instance)."""
    cached = getattr(program, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    flat = _flatten(program)
    # Program is a frozen dataclass; stash the memo without tripping the
    # frozen __setattr__ (instructions are immutable, so the memo is safe).
    object.__setattr__(program, _CACHE_ATTR, flat)
    return flat
