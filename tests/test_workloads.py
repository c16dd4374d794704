"""Workload profile and trace generator tests."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import (
    TAG_FREE,
    TAG_LD,
    TAG_MALLOC,
    TAG_ST,
    generate_trace,
)
from repro.workloads.profiles import (
    REALWORLD_PROFILES,
    SPEC2006_PROFILES,
    get_profile,
)

#: Paper Table II, complete and verbatim: (max active, allocs, deallocs).
TABLE2_SPOT = {
    "bzip2": (10, 29, 25),
    "gcc": (81825, 1846825, 1829255),
    "mcf": (6, 8, 8),
    "milc": (61, 6523, 6474),
    "namd": (1316, 1328, 1326),
    "gobmk": (1021, 137369, 137358),
    "soplex": (140, 98955, 34025),
    "povray": (11667, 2461247, 2461107),
    "hmmer": (1450, 1474128, 1474128),
    "sjeng": (6, 6, 2),
    "libquantum": (5, 180, 180),
    "h264ref": (13857, 38275, 38273),
    "lbm": (5, 7, 7),
    "omnetpp": (1993737, 21244416, 21244416),
    "astar": (190984, 1116621, 1116621),
    "sphinx3": (200686, 14224690, 14024020),
}

#: Paper Table III, complete and verbatim.
TABLE3_SPOT = {
    "pbzip2": (110, 12425, 12423),
    "pigz": (110, 24511, 24511),
    "axel": (172, 473, 473),
    "md5sum": (32, 34, 34),
    "apache": (7592, 13360000, 13360000),
    "mysql": (5380, 28622, 28621),
}


class TestProfiles:
    def test_all_16_spec_workloads_present(self):
        assert len(SPEC2006_PROFILES) == 16

    def test_all_6_realworld_benchmarks_present(self):
        assert len(REALWORLD_PROFILES) == 6

    @pytest.mark.parametrize("name,expected", TABLE2_SPOT.items())
    def test_table2_values_verbatim(self, name, expected):
        p = get_profile(name)
        assert (p.table_max_active, p.table_allocations, p.table_deallocations) == expected

    @pytest.mark.parametrize("name,expected", TABLE3_SPOT.items())
    def test_table3_values_verbatim(self, name, expected):
        p = get_profile(name)
        assert (p.table_max_active, p.table_allocations, p.table_deallocations) == expected

    def test_unknown_profile(self):
        with pytest.raises(WorkloadError):
            get_profile("doom")

    def test_hmmer_signedness_dominates(self):
        """Fig. 16: hmmer needs checking for >99% of memory accesses."""
        assert get_profile("hmmer").heap_frac > 0.99

    def test_mix_fractions_valid(self):
        for p in {**SPEC2006_PROFILES, **REALWORLD_PROFILES}.values():
            assert p.mem_frac + p.branch_frac + p.falu_frac < 1.0


class TestGenerator:
    def make(self, name="gobmk", n=20_000, seed=3, scale=8):
        return generate_trace(get_profile(name), instructions=n, seed=seed, scale=scale)

    def test_deterministic(self):
        a = self.make(seed=5)
        b = self.make(seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        assert self.make(seed=1) != self.make(seed=2)

    def test_event_count_close_to_requested(self):
        trace = self.make(n=20_000)
        assert 19_000 <= len(trace) <= 22_000

    def test_preamble_scaled(self):
        full = generate_trace(get_profile("astar"), instructions=2000, scale=1)
        scaled = generate_trace(get_profile("astar"), instructions=2000, scale=8)
        full_n, scaled_n = len(full.preamble_ids), len(scaled.preamble_ids)
        assert scaled_n * 7 <= full_n <= scaled_n * 9

    def test_rejects_tiny_window(self):
        with pytest.raises(WorkloadError):
            self.make(n=10)

    def test_rejects_non_power_of_two_scale(self):
        with pytest.raises(WorkloadError):
            self.make(scale=3)

    def test_mallocs_balanced_by_frees(self):
        trace = generate_trace(get_profile("omnetpp"), instructions=30_000, scale=64)
        mallocs = np.count_nonzero(trace.tags == TAG_MALLOC)
        frees = np.count_nonzero(trace.tags == TAG_FREE)
        assert mallocs > 50
        assert abs(mallocs - frees) <= mallocs * 0.2

    def test_no_access_to_freed_objects(self):
        trace = generate_trace(get_profile("omnetpp"), instructions=30_000, scale=64)
        freed = set()
        for tag, obj in zip(trace.tags.tolist(), trace.objs.tolist()):
            if tag == TAG_FREE:
                freed.add(obj)
            elif tag in (TAG_LD, TAG_ST):
                assert obj not in freed

    def test_offsets_within_object(self):
        trace = self.make(n=20_000)
        sizes = dict(zip(trace.preamble_ids.tolist(), trace.preamble_sizes.tolist()))
        mallocs = trace.tags == TAG_MALLOC
        sizes.update(zip(trace.objs[mallocs].tolist(), trace.sizes[mallocs].tolist()))
        accesses = (trace.tags == TAG_LD) | (trace.tags == TAG_ST)
        for obj, offset in zip(
            trace.objs[accesses].tolist(), trace.offsets[accesses].tolist()
        ):
            assert 0 <= offset <= max(sizes[obj] - 8, 0)

    def test_mispredict_rate_sane(self):
        rate = self.make(n=30_000).branch_mispredict_rate
        assert 0.0 < rate < 0.45

    def test_predictable_workload_lower_mispredicts(self):
        branchy = generate_trace(get_profile("gobmk"), instructions=30_000)
        steady = generate_trace(get_profile("lbm"), instructions=30_000)
        assert steady.branch_mispredict_rate < branchy.branch_mispredict_rate


class TestBranchPredictor:
    def test_biased_stream_learned(self):
        from repro.cpu.branch import GShareBranchPredictor

        pred = GShareBranchPredictor(table_bits=10, history_bits=2)
        miss = 0
        for i in range(2000):
            miss += pred.predict_and_update(0x400, taken=True)
        assert pred.misprediction_rate < 0.01

    def test_random_stream_half_wrong(self):
        import random

        from repro.cpu.branch import GShareBranchPredictor

        rng = random.Random(1)
        pred = GShareBranchPredictor()
        for _ in range(4000):
            pred.predict_and_update(0x400, taken=rng.random() < 0.5)
        assert 0.35 < pred.misprediction_rate < 0.65

    def test_rejects_bad_geometry(self):
        from repro.cpu.branch import GShareBranchPredictor

        with pytest.raises(ValueError):
            GShareBranchPredictor(table_bits=0)
