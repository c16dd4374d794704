"""Timing-model tests: the scoreboard pipeline's first-order behaviours."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import default_config
from repro.cpu.pipeline import PipelineModel
from repro.isa.instructions import Op
from repro.isa.program import ProgramBuilder


def run_program(instructions, mechanism="baseline", mcu=None, config=None):
    """Run a stream of instructions, each a dict of
    :meth:`~repro.isa.program.ProgramBuilder.emit_op` arguments."""
    config = config or default_config(mechanism)
    hierarchy = MemoryHierarchy(config.memory, use_l1b=False)
    model = PipelineModel(config, hierarchy, mcu=mcu)
    builder = ProgramBuilder("t")
    for fields in instructions:
        builder.emit_op(**fields)
    return model.run(builder.build())


def alus(n, **kwargs):
    return [dict(op=Op.ALU, **kwargs) for _ in range(n)]


class TestThroughput:
    def test_width_limits_ipc(self):
        result = run_program(alus(8000))
        assert result.ipc <= 8.0
        assert result.ipc > 6.0  # independent ALUs should nearly saturate

    def test_more_instructions_more_cycles(self):
        short = run_program(alus(1000))
        long = run_program(alus(5000))
        assert long.cycles > short.cycles

    def test_dependencies_reduce_ipc(self):
        free = run_program(alus(4000))
        chained = run_program(alus(4000, deps=(1,)))
        assert chained.cycles > free.cycles
        assert chained.ipc <= 1.1  # serial chain: ~1 per cycle

    def test_markers_cost_nothing(self):
        with_markers = run_program(
            alus(1000) + [dict(op=Op.MALLOC_MARK)] * 500 + alus(1000)
        )
        without = run_program(alus(2000))
        assert with_markers.cycles == pytest.approx(without.cycles, rel=0.01)
        assert with_markers.instructions == 2000


class TestMemory:
    def test_load_miss_slower_than_hit(self):
        # Same address twice: second run of loads mostly hits.
        miss = run_program(
            [dict(op=Op.LOAD, address=0x1000 + 64 * i, deps=(1,)) for i in range(500)]
        )
        hit = run_program(
            [dict(op=Op.LOAD, address=0x1000, deps=(1,)) for _ in range(500)]
        )
        assert miss.cycles > hit.cycles

    def test_crypto_ops_cost_their_latency(self):
        plain = run_program(alus(2000, deps=(1,)))
        crypto = run_program([dict(op=Op.PACIA, deps=(1,)) for _ in range(2000)])
        assert crypto.cycles > plain.cycles * 2

    def test_latency_override_is_the_executed_latency(self):
        """A hand-built stream's latency override replaces the op's
        default latency (the program's resolved ``latencies`` column)."""
        default = run_program(alus(2000, deps=(1,)))
        slow = run_program(alus(2000, deps=(1,), latency=5))
        assert slow.cycles == pytest.approx(default.cycles * 5, rel=0.01)


class TestBranches:
    def test_mispredicts_add_cycles(self):
        good = run_program(
            [dict(op=Op.BRANCH, mispredicted=False) for _ in range(2000)]
        )
        bad = run_program(
            [dict(op=Op.BRANCH, mispredicted=True) for _ in range(2000)]
        )
        assert bad.cycles > good.cycles
        assert bad.branch_mispredicts == 2000

    def test_penalty_scales(self):
        import dataclasses
        config = default_config("baseline")
        cheap = dataclasses.replace(
            config, core=dataclasses.replace(config.core, branch_mispredict_penalty=2)
        )
        insts = [dict(op=Op.BRANCH, mispredicted=True) for _ in range(1000)]
        assert run_program(insts).cycles > run_program(insts, config=cheap).cycles


class TestMCUIntegration:
    def make_mcu(self, hierarchy=None):
        from repro.config import AOSOptions
        from repro.core.hbt import HashedBoundsTable
        from repro.core.mcu import MemoryCheckUnit
        from repro.isa.encoding import PointerLayout

        layout = PointerLayout(pac_bits=16)
        hbt = HashedBoundsTable(pac_bits=16, initial_ways=1)
        mcu = MemoryCheckUnit(hbt=hbt, layout=layout, options=AOSOptions())
        return mcu, layout

    def test_signed_loads_slower_than_unsigned(self):
        mcu, layout = self.make_mcu()
        signed_ptr = layout.sign(0x20001000, pac=0x12, ahc=1)
        mcu.hbt.insert(0x12, 0x20001000, 64)
        unsigned = [dict(op=Op.LOAD, address=0x20001000) for _ in range(2000)]
        signed = [dict(op=Op.LOAD, address=signed_ptr) for _ in range(2000)]
        r_unsigned = run_program(unsigned, mcu=mcu)
        mcu2, _ = self.make_mcu()
        mcu2.hbt.insert(0x12, 0x20001000, 64)
        r_signed = run_program(signed, mcu=mcu2)
        assert r_signed.cycles > r_unsigned.cycles

    def test_bndstr_does_not_delay_commit_like_checks(self):
        """Fig. 8b: table ops retire before their walk completes."""
        mcu, layout = self.make_mcu()
        stores = [
            dict(op=Op.BNDSTR, address=layout.sign(0x20000000 + 0x40 * i, 0x12, 1), size=16)
            for i in range(8)
        ]
        result = run_program(stores + alus(2000), mcu=mcu)
        baseline = run_program(alus(2000))
        assert result.cycles < baseline.cycles * 1.5

    def test_validation_fault_counted(self):
        mcu, layout = self.make_mcu()
        bad = layout.sign(0x20001000, pac=0x12, ahc=1)  # no bounds stored
        result = run_program([dict(op=Op.LOAD, address=bad)], mcu=mcu)
        assert result.validation_faults == 1

    def test_mcu_port_bandwidth_binds_dense_checks(self):
        """A signed-load stream beyond the MCU's port bandwidth queues
        behind it (the hmmer delayed-retirement effect, §IX-A)."""
        mcu, layout = self.make_mcu()
        mcu.hbt.insert(0x12, 0x20001000, 64)
        signed = layout.sign(0x20001000, pac=0x12, ahc=1)
        dense = [dict(op=Op.LOAD, address=signed) for _ in range(4000)]
        r_dense = run_program(dense, mcu=mcu)
        # Independent unsigned loads to the same line commit at full width;
        # the signed stream is capped by the two MCU ports.
        unsigned = [dict(op=Op.LOAD, address=0x20001000) for _ in range(4000)]
        mcu2, _ = self.make_mcu()
        r_unsigned = run_program(unsigned, mcu=mcu2)
        assert r_dense.cycles > r_unsigned.cycles * 1.5

    def test_congested_mcq_discounts_mispredict_penalty(self):
        """§IX-A: back-pressure curbs speculation; a congested MCQ makes
        mispredicted branches cheaper than in an uncongested stream."""
        mcu, layout = self.make_mcu()
        mcu.hbt.insert(0x12, 0x20001000, 64)
        signed = layout.sign(0x20001000, pac=0x12, ahc=1)

        def mixed(n_loads):
            program = []
            for _ in range(200):
                program.extend(
                    dict(op=Op.LOAD, address=signed) for _ in range(n_loads)
                )
                program.append(dict(op=Op.BRANCH, mispredicted=True))
            return program

        # Dense memory stream (congested MCQ) vs sparse: the per-branch
        # cost difference shows the discount is active.
        congested = run_program(mixed(12), mcu=mcu)
        assert congested.branch_mispredicts == 200
