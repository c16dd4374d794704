"""Property tests for the columnar :class:`~repro.isa.program.Program`.

A program holds one column per instruction field, appended by
:class:`~repro.isa.program.ProgramBuilder` and read directly by the fast
kernel.  Three things the kernel leans on:

- **correctness**: for any program built through ``ProgramBuilder`` —
  its ``emit_op``, ``emit`` and ``emit_run`` paths mixed — the columns
  agree with the ``Instruction`` view (dispatch codes, addresses,
  resolved latencies, deps, sizes), and the view is the emitted stream;
- **one column set per program**: the columns are built once, every run
  of a program reads that one set, and the fast kernel never builds the
  ``Instruction`` view;
- **immutability**: every column is ``bytes`` or a tuple, so a buggy
  consumer raises instead of corrupting a later run.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import Simulator
from repro.experiments.common import scaled_config
from repro.isa.instructions import DEFAULT_LATENCY, Instruction, Op
from repro.isa.program import (
    KIND_BNDCLR,
    KIND_BNDSTR,
    KIND_BRANCH_MISS,
    KIND_LOAD,
    KIND_MARKER,
    KIND_OTHER,
    KIND_STORE,
    KIND_WCHK,
    Program,
    ProgramBuilder,
)

_OPS = st.sampled_from([
    Op.LOAD, Op.STORE, Op.WCHK, Op.BRANCH, Op.BNDSTR, Op.BNDCLR,
    Op.ALU, Op.PACMA, Op.MALLOC_MARK, Op.FREE_MARK,
])
_ADDRESSES = st.integers(min_value=0, max_value=1 << 47)
_DEPS = st.lists(st.integers(min_value=1, max_value=64), max_size=3).map(tuple)

_instruction = st.builds(
    Instruction,
    op=_OPS,
    address=_ADDRESSES,
    size=st.integers(min_value=1, max_value=512),
    deps=_DEPS,
    latency=st.integers(min_value=0, max_value=30),
    mispredicted=st.booleans(),
    meta=st.sampled_from([None, "token", "stg"]),
)

# One builder call each: (method, arguments, the instructions it appends).
_steps = st.one_of(
    _instruction.map(lambda inst: ("emit_op", inst, [inst])),
    st.tuples(_OPS, _ADDRESSES, _DEPS).map(
        lambda args: ("emit", args, [Instruction(args[0], args[1], deps=args[2])])
    ),
    st.tuples(_ADDRESSES, st.integers(min_value=0, max_value=5)).map(
        lambda args: (
            "emit_run",
            args,
            [
                Instruction(Op.STORE, address, meta="token")
                for address in range(args[0], args[0] + 64 * args[1], 64)
            ],
        )
    ),
)


def _build(steps) -> tuple:
    """The program the ``steps`` build, and the stream they emitted."""
    builder = ProgramBuilder("fuzz")
    emitted = []
    for method, args, instructions in steps:
        if method == "emit_op":
            inst = args
            builder.emit_op(
                inst.op, inst.address, inst.size, inst.deps, inst.latency,
                inst.mispredicted, inst.meta,
            )
        elif method == "emit":
            op, address, deps = args
            builder.emit(op.value, address, deps)
        else:
            first, count = args
            tokens = range(first, first + 64 * count, 64)
            builder.emit_run(Op.STORE.value, tokens, "token")
        emitted.extend(instructions)
    return builder.build(), emitted


_EXPECTED_KIND = {
    Op.LOAD: KIND_LOAD,
    Op.STORE: KIND_STORE,
    Op.WCHK: KIND_WCHK,
    Op.BNDSTR: KIND_BNDSTR,
    Op.BNDCLR: KIND_BNDCLR,
    Op.MALLOC_MARK: KIND_MARKER,
    Op.FREE_MARK: KIND_MARKER,
}


@given(st.lists(_steps, max_size=40))
@settings(max_examples=80, deadline=None)
def test_columns_agree_with_instructions(steps):
    program, emitted = _build(steps)
    assert program.instructions == tuple(emitted)
    assert len(program) == len(emitted)
    for i, inst in enumerate(emitted):
        if inst.op is Op.BRANCH:
            expected = KIND_BRANCH_MISS if inst.mispredicted else KIND_OTHER
        else:
            expected = _EXPECTED_KIND.get(inst.op, KIND_OTHER)
        assert program.kinds[i] == expected
        assert program.addresses[i] == inst.address
        assert program.deps[i] == inst.deps
        assert program.sizes[i] == inst.size
        if expected in (KIND_BNDSTR, KIND_BNDCLR, KIND_BRANCH_MISS, KIND_OTHER):
            # Same resolution the reference loop's else-branch performs.
            want = float(inst.latency or DEFAULT_LATENCY[inst.op])
        else:
            want = 0.0  # the memory system decides, or a zero-cost marker
        assert program.latencies[i] == want


def test_one_column_set_per_program():
    """Every run reads the program's one column set; the fast kernel never
    builds the ``Instruction`` view, and the view is built once."""
    program = Program(
        [Instruction(op=Op.LOAD, address=64 * i) for i in range(50)], name="one"
    )
    columns = [getattr(program, f.name) for f in dataclasses.fields(program)]
    simulator = Simulator(scaled_config("baseline", 1))
    first, second = simulator.run(program), simulator.run(program)
    assert first.cycles == second.cycles
    assert "instructions" not in vars(program)
    assert all(
        getattr(program, f.name) is column
        for f, column in zip(dataclasses.fields(program), columns)
    )
    assert program.instructions is program.instructions


def test_distinct_programs_hold_distinct_views():
    instructions = (Instruction(op=Op.LOAD, address=64),)
    a, b = Program(instructions, name="a"), Program(instructions, name="b")
    assert a.kinds == b.kinds
    assert a.instructions == b.instructions
    assert a.instructions is not b.instructions


# --------------------------------------------------------------- immutability


def test_columns_are_immutable():
    builder = ProgramBuilder("frozen")
    builder.emit_op(Op.LOAD, address=64, meta="m")
    program = builder.build()
    for field in dataclasses.fields(program):
        column = getattr(program, field.name)
        if field.name != "name":
            with pytest.raises(TypeError):
                column[0] = column[0]  # bytes / tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(program, field.name, column)
