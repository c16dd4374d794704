"""End-to-end simulator tests: generate -> lower -> simulate, per mechanism."""

import pytest

from repro.compiler import lower_trace
from repro.cpu.core import Simulator
from repro.experiments.common import scaled_config
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def results():
    trace = generate_trace(get_profile("soplex"), instructions=15_000, seed=2)
    out = {}
    for mech in ("baseline", "watchdog", "pa", "aos", "pa+aos"):
        config = scaled_config(mech, 8)
        out[mech] = Simulator(config).run(lower_trace(trace, mech, config=config))
    return out


class TestOrdering:
    def test_all_mechanisms_ran(self, results):
        for mech, r in results.items():
            assert r.cycles > 0
            assert r.instructions > 0
            assert r.mechanism == mech

    def test_watchdog_slowest(self, results):
        """§I / Fig. 14: Watchdog's extra instructions cost the most."""
        assert results["watchdog"].cycles > results["aos"].cycles
        assert results["watchdog"].cycles > results["baseline"].cycles

    def test_pa_cheapest_protection(self, results):
        assert results["pa"].cycles < results["watchdog"].cycles
        assert results["pa"].cycles <= results["aos"].cycles * 1.05

    def test_pa_aos_close_to_aos(self, results):
        """§IX-A: pointer integrity adds ~1.5 % on top of AOS."""
        ratio = results["pa+aos"].cycles / results["aos"].cycles
        assert 0.98 < ratio < 1.10

    def test_no_validation_faults_on_benign_traces(self, results):
        for r in results.values():
            assert r.validation_faults == 0

    def test_aos_reports_mcu_statistics(self, results):
        r = results["aos"]
        assert r.bounds_accesses_per_check >= 0.5
        assert 0.0 <= r.bwb_hit_rate <= 1.0

    def test_traffic_counted(self, results):
        for r in results.values():
            assert r.network_traffic_bytes > 0
        assert (
            results["watchdog"].network_traffic_bytes
            > results["baseline"].network_traffic_bytes
        )


class TestRepeatability:
    def test_same_lowering_same_result(self):
        trace = generate_trace(get_profile("gobmk"), instructions=8_000, seed=9)
        config = scaled_config("aos", 8)
        lowered = lower_trace(trace, "aos", config=config)
        a = Simulator(config).run(lowered)
        b = Simulator(config).run(lowered)
        # hbt_factory must give each run a fresh table: identical results.
        assert a.cycles == b.cycles
        assert a.hbt_resizes == b.hbt_resizes

    def test_plain_program_accepted(self):
        from repro.isa.instructions import Op
        from repro.isa.program import ProgramBuilder

        builder = ProgramBuilder("bare")
        for _ in range(100):
            builder.emit_op(Op.ALU)
        program = builder.build()
        result = Simulator(scaled_config("baseline", 1)).run(program)
        assert result.instructions == 100
