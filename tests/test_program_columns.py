"""Property tests for the columnar :class:`~repro.isa.program.Program`.

A program holds one typed column per instruction field — ``uint64``
addresses and sizes, ``float64`` latencies, CSR dependencies — built by
:class:`~repro.isa.program.ProgramBuilder` for hand-built streams (the
lowering passes assemble theirs in bulk) and read directly by the fast
kernel.  Four things the kernel leans on:

- **correctness**: for any program built through ``ProgramBuilder``, the
  columns agree with the ``Instruction`` view (dispatch codes, addresses,
  resolved latencies, deps, sizes), and the view is the emitted stream;
- **one column set per program**: the columns are built once, every run
  of a program reads that one set, and the fast kernel never builds the
  ``Instruction`` view;
- **immutability**: every column is ``bytes``, a tuple or a read-only
  array, so a buggy consumer raises instead of corrupting a later run;
- **range**: an address or size outside 0..2**64-1 is refused when the
  program is built, naming the instruction.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lower_trace
from repro.cpu.core import Simulator
from repro.errors import SimulationError
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
from repro.workloads import generate_trace, get_profile

_OPS = st.sampled_from([
    Op.LOAD, Op.STORE, Op.WCHK, Op.BRANCH, Op.BNDSTR, Op.BNDCLR,
    Op.ALU, Op.PACMA, Op.MALLOC_MARK, Op.FREE_MARK,
])
_ADDRESSES = st.integers(min_value=0, max_value=(1 << 64) - 1)
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


def _build(instructions) -> Program:
    builder = ProgramBuilder("fuzz")
    for inst in instructions:
        builder.emit_op(
            inst.op, inst.address, inst.size, inst.deps, inst.latency,
            inst.mispredicted, inst.meta,
        )
    return builder.build()


_EXPECTED_KIND = {
    Op.LOAD: KIND_LOAD,
    Op.STORE: KIND_STORE,
    Op.WCHK: KIND_WCHK,
    Op.BNDSTR: KIND_BNDSTR,
    Op.BNDCLR: KIND_BNDCLR,
    Op.MALLOC_MARK: KIND_MARKER,
    Op.FREE_MARK: KIND_MARKER,
}


@given(st.lists(_instruction, max_size=40))
@settings(max_examples=80, deadline=None)
def test_columns_agree_with_instructions(emitted):
    program = _build(emitted)
    assert program.instructions == tuple(emitted)
    assert len(program) == len(emitted)
    assert program.dep_offsets[0] == 0
    assert program.dep_offsets[-1] == len(program.dep_distances)
    for i, inst in enumerate(emitted):
        if inst.op is Op.BRANCH:
            expected = KIND_BRANCH_MISS if inst.mispredicted else KIND_OTHER
        else:
            expected = _EXPECTED_KIND.get(inst.op, KIND_OTHER)
        assert program.kinds[i] == expected
        assert program.addresses[i] == inst.address
        deps = program.dep_distances[program.dep_offsets[i] : program.dep_offsets[i + 1]]
        assert tuple(deps.tolist()) == inst.deps
        assert program.sizes[i] == inst.size
        if expected in (KIND_BNDSTR, KIND_BNDCLR, KIND_BRANCH_MISS, KIND_OTHER):
            # Same resolution the reference loop's else-branch performs.
            want = float(inst.latency or DEFAULT_LATENCY[inst.op])
        else:
            want = 0.0  # the memory system decides, or a zero-cost marker
        assert program.latencies[i] == want


def test_columns_are_typed_buffers():
    """A lowered program's columns are the typed buffers the fast kernel
    reads in place."""
    config = scaled_config("aos", 64)
    trace = generate_trace(get_profile("gcc"), instructions=1000, seed=7, scale=64)
    program = lower_trace(trace, "aos", config=config).program
    n = len(program)
    for name, dtype, length in (
        ("addresses", np.uint64, n),
        ("sizes", np.uint64, n),
        ("latencies", np.float64, n),
        ("dep_offsets", np.int64, n + 1),
        ("dep_distances", np.int64, int(program.dep_offsets[-1])),
    ):
        column = getattr(program, name)
        assert column.dtype == dtype and column.shape == (length,), name
        assert column.flags.c_contiguous and not column.flags.writeable, name
    assert isinstance(program.ops, bytes) and len(program.ops) == n


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
    builder.emit_op(Op.LOAD, address=64, deps=(1,), latency=3, meta="m")
    builder.emit_op(Op.BRANCH, mispredicted=True)
    program = builder.build()
    for field in dataclasses.fields(program):
        column = getattr(program, field.name)
        if isinstance(column, np.ndarray):
            # Typed buffers: neither the array nor a view of its memory
            # may be written.
            with pytest.raises(ValueError):
                column[0] = column[0]
            with pytest.raises(TypeError):
                memoryview(column)[0] = column[0]
        elif field.name != "name":
            with pytest.raises(TypeError):
                column[0] = column[0]  # bytes / tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(program, field.name, column)


@pytest.mark.parametrize("field", ["address", "size"])
@pytest.mark.parametrize("value", [-1, 1 << 64])
def test_out_of_range_values_are_refused_when_built(field, value):
    """A 64-bit column cannot hold the value: building the program raises
    SimulationError naming the instruction, instead of wrapping."""
    instructions = [Instruction(Op.LOAD, 64), Instruction(Op.STORE, 128)]
    instructions.append(Instruction(Op.LOAD, **{field: value}))
    with pytest.raises(SimulationError, match=f"instruction 2: {field} {value}"):
        Program(instructions, name="wide")
    top = Instruction(Op.LOAD, **{field: (1 << 64) - 1})
    assert getattr(Program([top]).instructions[0], field) == (1 << 64) - 1
