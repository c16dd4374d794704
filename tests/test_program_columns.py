"""Property tests for the columnar :class:`~repro.isa.program.Program`.

A program holds one typed column per instruction field — ``uint64``
addresses and sizes, ``float64`` latencies, CSR dependencies — built by
:class:`~repro.isa.program.ProgramBuilder` for hand-built streams (the
lowering passes assemble theirs in bulk) and read directly by both
kernels.  Four things the kernels lean on:

- **correctness**: for any program built through ``ProgramBuilder``, the
  columns agree with the emitted stream (opcodes, dispatch codes,
  addresses, resolved latencies, deps, sizes, meta);
- **one column set per program**: the columns are built once, every run
  of a program reads that one set, and no other copy of the program is
  built;
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
from repro.isa.instructions import DEFAULT_LATENCY, Op
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

#: One instruction: the keyword arguments of ``ProgramBuilder.emit_op``.
_instruction = st.fixed_dictionaries(
    dict(
        op=_OPS,
        address=_ADDRESSES,
        size=st.integers(min_value=1, max_value=512),
        deps=_DEPS,
        latency=st.integers(min_value=0, max_value=30),
        mispredicted=st.booleans(),
        meta=st.sampled_from([None, "token", "stg"]),
    )
)


def _build(instructions, name="fuzz") -> Program:
    builder = ProgramBuilder(name)
    for fields in instructions:
        builder.emit_op(**fields)
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
    assert len(program) == len(emitted)
    assert program.ops == bytes(inst["op"].value for inst in emitted)
    assert program.meta == tuple(
        (i, inst["meta"]) for i, inst in enumerate(emitted) if inst["meta"] is not None
    )
    assert program.dep_offsets[0] == 0
    assert program.dep_offsets[-1] == len(program.dep_distances)
    for i, inst in enumerate(emitted):
        op = inst["op"]
        if op is Op.BRANCH:
            expected = KIND_BRANCH_MISS if inst["mispredicted"] else KIND_OTHER
        else:
            expected = _EXPECTED_KIND.get(op, KIND_OTHER)
        assert program.kinds[i] == expected
        assert program.addresses[i] == inst["address"]
        deps = program.dep_distances[program.dep_offsets[i] : program.dep_offsets[i + 1]]
        assert tuple(deps.tolist()) == inst["deps"]
        assert program.sizes[i] == inst["size"]
        if expected in (KIND_BNDSTR, KIND_BNDCLR, KIND_BRANCH_MISS, KIND_OTHER):
            # The fixed-latency kinds: the override, else the op's default.
            want = float(inst["latency"] or DEFAULT_LATENCY[op])
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
    """A program is its columns and nothing else (no per-instruction object
    view), and every run, on either kernel, reads that one column set and
    adds nothing to the program."""
    program = _build([dict(op=Op.LOAD, address=64 * i) for i in range(50)], "one")
    fields = ["kinds", "addresses", "latencies", "dep_offsets", "dep_distances"]
    fields += ["sizes", "ops", "meta", "name"]
    assert [f.name for f in dataclasses.fields(program)] == fields
    columns = [getattr(program, name) for name in fields]
    config = scaled_config("baseline", 1)
    runs = [Simulator(config).run(program) for _ in range(2)]
    runs.append(Simulator(config, kernel="reference").run(program))
    assert len({run.cycles for run in runs}) == 1
    assert sorted(vars(program)) == sorted(fields)
    assert all(getattr(program, n) is c for n, c in zip(fields, columns))


def test_distinct_programs_hold_distinct_views():
    """Two programs of one stream hold equal columns in separate buffers."""
    stream = [dict(op=Op.LOAD, address=64, deps=(1,))]
    a, b = _build(stream, "a"), _build(stream, "b")
    assert a.kinds == b.kinds
    for name in ("addresses", "latencies", "dep_offsets", "dep_distances", "sizes"):
        column_a, column_b = getattr(a, name), getattr(b, name)
        assert np.array_equal(column_a, column_b), name
        assert not np.shares_memory(column_a, column_b), name


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
    instructions = [dict(op=Op.LOAD, address=64), dict(op=Op.STORE, address=128)]
    instructions.append({"op": Op.LOAD, field: value})
    with pytest.raises(SimulationError, match=f"instruction 2: {field} {value}"):
        _build(instructions, "wide")
    top = _build([{"op": Op.LOAD, field: (1 << 64) - 1}])
    column = {"address": top.addresses, "size": top.sizes}[field]
    assert column.tolist() == [(1 << 64) - 1]
