"""ISA container tests: instructions and programs."""

import pytest

from repro.isa.instructions import (
    CRYPTO_OPS,
    DEFAULT_LATENCY,
    Instruction,
    Op,
    is_alu_op,
    is_memory_op,
)
from repro.isa.program import Program, ProgramBuilder


class TestInstruction:
    def test_defaults(self):
        inst = Instruction(op=Op.ALU)
        assert inst.deps == ()
        assert inst.size == 8
        assert not inst.mispredicted

    def test_with_address(self):
        inst = Instruction(op=Op.LOAD, address=0x1000, deps=(2,))
        moved = inst.with_address(0x2000)
        assert moved.address == 0x2000
        assert moved.deps == (2,)
        assert moved.op is Op.LOAD

    def test_classifiers(self):
        assert is_memory_op(Op.LOAD) and is_memory_op(Op.STORE)
        assert not is_memory_op(Op.ALU)
        assert is_alu_op(Op.ALU)

    def test_every_op_has_default_latency_or_is_memory(self):
        for op in Op:
            if op in (Op.LOAD, Op.STORE):
                continue
            assert op in DEFAULT_LATENCY, op

    def test_crypto_ops_cost_qarma_latency(self):
        for op in CRYPTO_OPS:
            if op is Op.AUTM:
                continue  # AHC compare only, 1 cycle (§VII-B)
            assert DEFAULT_LATENCY[op] == 4


class TestProgram:
    def build(self, ops):
        b = ProgramBuilder("t")
        for op in ops:
            b.emit_op(op)
        return b.build()

    def test_len_iter_index(self):
        p = self.build([Op.ALU, Op.LOAD, Op.ALU])
        assert len(p) == 3
        assert p[1].op is Op.LOAD
        assert [i.op for i in p] == [Op.ALU, Op.LOAD, Op.ALU]

    def test_histogram(self):
        p = self.build([Op.ALU, Op.ALU, Op.LOAD])
        hist = p.op_histogram()
        assert hist[Op.ALU] == 2
        assert hist[Op.LOAD] == 1

    def test_memory_op_count(self):
        p = self.build([Op.LOAD, Op.STORE, Op.ALU])
        assert p.memory_op_count() == 2

    def test_instruction_overhead(self):
        small = self.build([Op.ALU] * 100)
        big = self.build([Op.ALU] * 144)
        assert big.instruction_overhead_vs(small) == pytest.approx(0.44)

    def test_overhead_vs_empty_rejected(self):
        p = self.build([Op.ALU])
        with pytest.raises(ValueError):
            p.instruction_overhead_vs(Program(instructions=(), name="e"))

    def test_builder_emit_all(self):
        b = ProgramBuilder()
        b.emit_all([Instruction(op=Op.ALU)] * 5)
        assert len(b) == 5
