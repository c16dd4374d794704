"""ISA container tests: the instruction vocabulary and programs."""

from repro.isa.instructions import DEFAULT_LATENCY, Op
from repro.isa.program import KIND_LOAD, KIND_OTHER, ProgramBuilder


class TestInstruction:
    def test_defaults(self):
        """An instruction emitted with no fields: no address or deps, an
        8-byte size, no latency override, not mispredicted, no meta."""
        b = ProgramBuilder("t")
        b.emit_op(Op.BRANCH)
        p = b.build()
        assert p.addresses.tolist() == [0]
        assert p.sizes.tolist() == [8]
        assert p.dep_offsets.tolist() == [0, 0]
        assert p.kinds[0] == KIND_OTHER  # a predicted branch
        assert p.latencies.tolist() == [float(DEFAULT_LATENCY[Op.BRANCH])]
        assert p.meta == ()

    def test_every_op_has_default_latency_or_is_memory(self):
        for op in Op:
            if op in (Op.LOAD, Op.STORE):
                continue
            assert op in DEFAULT_LATENCY, op

    def test_crypto_ops_cost_qarma_latency(self):
        for op in (Op.PACIA, Op.AUTIA, Op.PACDA, Op.AUTDA, Op.PACMA):
            assert DEFAULT_LATENCY[op] == 4
        assert DEFAULT_LATENCY[Op.AUTM] == 1  # AHC compare only (§VII-B)


class TestProgram:
    def build(self, ops):
        b = ProgramBuilder("t")
        for op in ops:
            b.emit_op(op)
        return b.build()

    def test_len_iter_index(self):
        """A program's length and its columns follow the emitted order."""
        p = self.build([Op.ALU, Op.LOAD, Op.ALU])
        assert len(p) == 3
        assert p.ops[1] == Op.LOAD.value and p.kinds[1] == KIND_LOAD
        assert [Op(code) for code in p.ops] == [Op.ALU, Op.LOAD, Op.ALU]
