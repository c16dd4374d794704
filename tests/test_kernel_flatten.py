"""Property tests for program flattening and its memoisation contract.

:mod:`repro.kernel.flatten` promises three things the fast kernel leans
on:

- **correctness**: the columnar view agrees with the instruction stream
  (dispatch codes, addresses, resolved latencies) for any program — pinned
  property-based over random instruction streams;
- **memoisation**: ``flatten_program`` runs once per :class:`Program`
  instance, so every run of one lowered program shares one view;
- **immutability**: all columns are ``bytes``/tuples, so a buggy consumer
  raises instead of corrupting a later run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import DEFAULT_LATENCY, Instruction, Op
from repro.isa.program import Program
from repro.kernel.flatten import (
    KIND_BNDCLR,
    KIND_BNDSTR,
    KIND_BRANCH_MISS,
    KIND_LOAD,
    KIND_MARKER,
    KIND_OTHER,
    KIND_STORE,
    KIND_WCHK,
    flatten_program,
)

_OPS = st.sampled_from([
    Op.LOAD, Op.STORE, Op.WCHK, Op.BRANCH, Op.BNDSTR, Op.BNDCLR,
    Op.ALU, Op.MALLOC_MARK, Op.FREE_MARK,
])

_instruction = st.builds(
    Instruction,
    op=_OPS,
    address=st.integers(min_value=0, max_value=1 << 47),
    size=st.integers(min_value=1, max_value=512),
    deps=st.lists(
        st.integers(min_value=1, max_value=64), max_size=3
    ).map(tuple),
    latency=st.integers(min_value=0, max_value=30),
    mispredicted=st.booleans(),
)

_programs = st.lists(_instruction, max_size=60).map(
    lambda instructions: Program(instructions=tuple(instructions), name="fuzz")
)

_EXPECTED_KIND = {
    Op.LOAD: KIND_LOAD,
    Op.STORE: KIND_STORE,
    Op.WCHK: KIND_WCHK,
    Op.BNDSTR: KIND_BNDSTR,
    Op.BNDCLR: KIND_BNDCLR,
    Op.MALLOC_MARK: KIND_MARKER,
    Op.FREE_MARK: KIND_MARKER,
}


@given(_programs)
@settings(max_examples=60, deadline=None)
def test_columns_agree_with_instructions(program):
    flat = flatten_program(program)
    assert flat.count == len(program)
    for i, inst in enumerate(program):
        if inst.op is Op.BRANCH:
            expected = KIND_BRANCH_MISS if inst.mispredicted else KIND_OTHER
        else:
            expected = _EXPECTED_KIND.get(inst.op, KIND_OTHER)
        assert flat.kinds[i] == expected
        if expected == KIND_MARKER:
            # Markers are pure bookkeeping: no operand reaches the kernels.
            assert flat.addresses[i] == 0
            assert flat.deps[i] == ()
        else:
            assert flat.addresses[i] == inst.address
            assert flat.deps[i] == inst.deps
        if expected in (KIND_BNDSTR, KIND_BNDCLR, KIND_BRANCH_MISS, KIND_OTHER):
            want = float(inst.latency or DEFAULT_LATENCY[inst.op])
            assert flat.latencies[i] == want


@given(_programs)
@settings(max_examples=30, deadline=None)
def test_flatten_is_memoized_per_program_instance(program):
    assert flatten_program(program) is flatten_program(program)


def test_distinct_program_instances_flatten_independently():
    instructions = (Instruction(op=Op.LOAD, address=64),)
    a, b = Program(instructions, name="a"), Program(instructions, name="b")
    assert flatten_program(a) is not flatten_program(b)


# --------------------------------------------------------------- immutability


def test_columns_are_immutable():
    flat = flatten_program(
        Program((Instruction(op=Op.LOAD, address=64),), name="frozen")
    )
    with pytest.raises(TypeError):
        flat.kinds[0] = 9  # bytes
    with pytest.raises(TypeError):
        flat.addresses[0] = 1  # tuple
    with pytest.raises((AttributeError, TypeError)):
        flat.count = 99  # frozen dataclass
