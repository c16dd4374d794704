"""Compiler pass tests: mechanism lowerings and instrumentation sequences."""

from collections import Counter

import numpy as np
import pytest

from repro.compiler import lower_trace
from repro.isa.instructions import Op
from repro.workloads import generate_trace, get_profile
from repro.workloads.generator import (
    FLAG_PTR,
    TAG_ALU,
    TAG_FREE,
    TAG_LD,
    TAG_MALLOC,
    TAG_ST,
    EventColumns,
)

MECHANISMS = ["baseline", "watchdog", "pa", "aos", "pa+aos"]


def ops_of(program) -> list:
    """The program's opcodes, in order, from its ``ops`` column."""
    return [Op(code) for code in program.ops]


def op_histogram(program) -> Counter:
    """Dynamic instruction counts per opcode."""
    return Counter(ops_of(program))


def heap_load_addresses(program, va_mask: int) -> list:
    """The address operands, in order, of the loads whose target
    (``address & va_mask``) is on the heap."""
    return [
        address
        for op, address in zip(ops_of(program), program.addresses.tolist())
        if op is Op.LOAD and 0x20000000 <= (address & va_mask) < (1 << 33)
    ]


def stg_count(program) -> int:
    """The MTE colouring stores (``meta`` "stg")."""
    store = Op.STORE.value
    return sum(
        1 for i, meta in program.meta if meta == "stg" and program.ops[i] == store
    )


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_profile("povray"), instructions=15_000, seed=11)


@pytest.fixture(scope="module")
def lowered(trace):
    return {m: lower_trace(trace, m) for m in MECHANISMS}


class TestCommonProperties:
    def test_all_mechanisms_lower(self, lowered):
        for mech, low in lowered.items():
            assert len(low.program) > 0
            assert low.mechanism == mech

    def test_baseline_has_no_instrumentation(self, lowered):
        hist = op_histogram(lowered["baseline"].program)
        for op in (Op.PACMA, Op.BNDSTR, Op.BNDCLR, Op.WCHK, Op.PACIA, Op.AUTDA):
            assert op not in hist

    def test_same_trace_same_heap_addresses(self, trace):
        """Every mechanism must see the identical address stream."""
        base = lower_trace(trace, "baseline")
        wd = lower_trace(trace, "watchdog")

        every_bit = (1 << 64) - 1
        base_loads = heap_load_addresses(base.program, every_bit)
        assert base_loads[:50] == heap_load_addresses(wd.program, every_bit)[:50]

    def test_instruction_overhead_ordering(self, lowered):
        """Watchdog must add the most dynamic instructions (§I: +44%)."""
        base = len(lowered["baseline"].program)
        overhead = {m: len(low.program) / base for m, low in lowered.items()}
        assert overhead["watchdog"] > overhead["pa+aos"] >= overhead["aos"]
        assert overhead["watchdog"] > 1.15
        assert overhead["aos"] < 1.10


class TestAOSLowering:
    def test_fig7a_malloc_sequence(self, lowered):
        """malloc is followed by pacma then bndstr."""
        program = lowered["aos"].program
        ops = ops_of(program)
        pacma_sites = [
            i for i, op in enumerate(ops[:-1])
            if op is Op.PACMA and ops[i + 1] is Op.BNDSTR
        ]
        assert pacma_sites, "no pacma;bndstr pairs found"

    def test_fig7b_free_sequence(self, lowered):
        """free is bndclr ; xpacm ; (allocator) ; pacma."""
        program = lowered["aos"].program
        ops = ops_of(program)
        for i, op in enumerate(ops):
            if op is Op.BNDCLR:
                assert ops[i + 1] is Op.XPACM
                window = ops[i + 2 : i + 8]
                assert Op.PACMA in window
                break
        else:
            pytest.fail("no bndclr found")

    def test_heap_accesses_signed(self, lowered):
        low = lowered["aos"]
        va_mask = low.pointer_layout.va_mask
        heap_loads = heap_load_addresses(low.program, va_mask)
        signed = [address for address in heap_loads if address > va_mask]
        assert len(signed) / len(heap_loads) > 0.95

    def test_hbt_prewarmed_with_preamble(self, lowered, trace):
        hbt = lowered["aos"].hbt
        assert hbt.total_records() >= len(trace.preamble_ids)

    def test_hbt_factory_returns_fresh_copies(self, lowered):
        a = lowered["aos"].hbt
        b = lowered["aos"].hbt
        assert a is not b
        assert a.total_records() == b.total_records()

    def test_pac_bits_scaled_with_live_set(self, trace):
        low = lower_trace(trace, "aos")
        assert low.pointer_layout.pac_bits == 16 - 3  # scale 8

    def test_pa_aos_adds_autm_and_pacia(self, lowered):
        hist = op_histogram(lowered["pa+aos"].program)
        assert hist.get(Op.AUTM, 0) > 0
        assert hist.get(Op.PACIA, 0) > 0
        aos_hist = op_histogram(lowered["aos"].program)
        assert Op.AUTM not in aos_hist


class TestWatchdogLowering:
    def test_wchk_before_heap_accesses(self, lowered):
        program = lowered["watchdog"].program
        ops = ops_of(program)
        wchk = sum(1 for op in ops if op is Op.WCHK)
        assert wchk > 0
        # Every heap access is preceded by a check µop.
        for i, op in enumerate(ops):
            if op is Op.WCHK:
                assert ops[i + 1] in (Op.LOAD, Op.STORE)

    def test_wmeta_propagation_instructions(self, lowered):
        hist = op_histogram(lowered["watchdog"].program)
        assert hist.get(Op.WMETA, 0) > 0


class TestPALowering:
    def test_call_ret_signing(self, lowered):
        hist = op_histogram(lowered["pa"].program)
        assert hist.get(Op.PACIA, 0) > 0
        assert hist.get(Op.AUTIA, 0) > 0

    def test_data_pointer_signing(self, lowered):
        hist = op_histogram(lowered["pa"].program)
        assert hist.get(Op.AUTDA, 0) > 0
        assert hist.get(Op.PACDA, 0) > 0

    def test_no_bounds_ops(self, lowered):
        hist = op_histogram(lowered["pa"].program)
        assert Op.BNDSTR not in hist


class TestMTELowering:
    def test_colouring_stores_at_malloc(self, trace):
        low = lower_trace(trace, "mte")
        base = lower_trace(trace, "baseline")
        # MTE adds IRG + STG colouring around allocation events only.
        assert len(low.program) > len(base.program)
        mallocs = np.count_nonzero(trace.tags == TAG_MALLOC)
        assert stg_count(low.program) >= mallocs  # one colouring store per malloc

    def test_no_per_access_instrumentation(self, trace):
        """Tag checks travel with the access: no extra per-access µops."""
        low = lower_trace(trace, "mte")
        hist = op_histogram(low.program)
        assert Op.WCHK not in hist
        assert Op.BNDSTR not in hist

    def test_colouring_scales_with_object_size(self):
        from repro.workloads import generate_trace, get_profile
        import dataclasses

        profile = dataclasses.replace(
            get_profile("povray"),
            size_classes=((4096, 1.0),),
            mallocs_per_kinst=2.0,
        )
        big = lower_trace(generate_trace(profile, instructions=10_000, seed=2), "mte")
        small_profile = dataclasses.replace(profile, size_classes=((32, 1.0),))
        small = lower_trace(
            generate_trace(small_profile, instructions=10_000, seed=2), "mte"
        )
        assert stg_count(big.program) > stg_count(small.program) * 4


def test_unknown_mechanism(trace):
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        lower_trace(trace, "cheri")


@pytest.mark.parametrize("ilp_distance", [1, 2, 3, 10, 16, 17, (1 << 31) + 1, 1 << 40])
def test_dependency_draws_match_the_randrange_loop(ilp_distance):
    """The base pass's dice inline ``randrange``: the same values from the
    same stream as the loop they replace, on every interpreter CI runs, in
    the C module and in its Python reference."""
    import random

    from repro.compiler.base import dependency_draws

    from .stream_paths import stream_paths

    for seed, dep_prob in ((7, 0.5), (11, 1.0), (13, 0.0)):
        rng = random.Random(seed)
        want = [
            1 + rng.randrange(ilp_distance) if rng.random() < dep_prob else 0
            for _ in range(500)
        ]
        for path, context in stream_paths().items():
            with context:
                got = dependency_draws(seed, 500, dep_prob, ilp_distance)
            assert got.dtype == np.int64, path
            assert got.tolist() == want, path


def test_trace_using_an_unallocated_object_is_refused(trace):
    """An access to an object that is neither in the preamble nor
    allocated before it cannot be lowered."""
    import dataclasses

    from repro.errors import WorkloadError

    events = EventColumns()
    events.add(TAG_ALU)
    events.add(TAG_LD, 10**9)
    stray = dataclasses.replace(trace, **events.columns)
    with pytest.raises(WorkloadError, match="object 1000000000"):
        lower_trace(stray, "baseline")


@pytest.mark.parametrize("ilp_distance", [0, -3])
@pytest.mark.parametrize("dep_prob", [0.0, 0.5])
def test_dependency_draws_refuse_an_ilp_distance_below_one(ilp_distance, dep_prob):
    from repro.compiler.base import dependency_draws

    from .stream_paths import stream_paths

    for context in stream_paths().values():
        with context, pytest.raises(ValueError, match="ilp_distance"):
            dependency_draws(7, 100, dep_prob, ilp_distance)


def test_dependency_draws_refuse_an_ilp_distance_past_int64():
    """A distance of 2**63 or more has draws an ``int64`` cannot hold."""
    from repro.compiler.base import dependency_draws

    from .stream_paths import stream_paths

    for context in stream_paths().values():
        with context, pytest.raises(ValueError, match="below 2\\*\\*63"):
            dependency_draws(7, 100, 0.5, 1 << 63)
    assert dependency_draws(7, 3, 1.0, (1 << 63) - 1).dtype == np.int64


@pytest.mark.parametrize(
    "ids", [[], [0, 1, 2, 3], [40, 7, 9, 7, 1 << 40], [5, 3, 1]], ids=repr
)
def test_preamble_slots_match_a_dict_lookup(ids):
    """Each key's position in ``ids`` (the last one, if repeated), -1 if
    absent, for dense, sparse, repeated and empty ids."""
    from repro.compiler.base import _slots

    keys = [0, 1, 3, 7, 9, 40, 41, 1 << 40, -1]
    position = {obj: index for index, obj in enumerate(ids)}
    got = _slots(np.array(ids, dtype=np.int64), np.array(keys, dtype=np.int64))
    assert got.tolist() == [position.get(key, -1) for key in keys]


def test_trace_without_a_preamble_lowers(trace):
    """A window whose objects are all allocated inside it lowers under
    every mechanism."""
    import dataclasses

    events = EventColumns()
    events.add(TAG_MALLOC, 3, size=64)
    events.add(TAG_LD, 3, 8)
    events.add(TAG_ST, 3, 0, flags=FLAG_PTR)
    events.add(TAG_FREE, 3)
    bare = dataclasses.replace(
        trace, preamble_ids=[], preamble_sizes=[], **events.columns
    )
    for mechanism in ("baseline", "watchdog", "aos", "rest", "mte", "cryptsan"):
        assert len(lower_trace(bare, mechanism).program) > len(bare)
