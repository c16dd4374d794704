"""Parallel experiment engine + artifact cache tests.

Covers the PR-level guarantees: serial and ``jobs>1`` sweeps are
bit-identical, the persistent cache hits/misses/invalidates correctly
(corrupted entries count as misses), and a parallel fault campaign
resumes from a killed run's checkpoint.
"""

import dataclasses
import json
import pickle
from collections import Counter

import pytest

from repro.experiments import ArtifactCache, CellSpec, RunSettings, cell_fingerprint
from repro.experiments.common import ExperimentSuite, scaled_config
from repro.experiments.parallel import (
    generate_cell_trace,
    run_cells,
    simulate_cell,
    trace_fingerprint,
)
from repro.faults import Campaign, CampaignConfig, FaultKind
from repro.supervise import SupervisorConfig

SETTINGS = RunSettings(instructions=4000, seed=7, scale=8)

#: Two workloads x two mechanisms: small enough for a pool on a laptop,
#: wide enough to exercise the deterministic merge.
SMALL_SWEEP = [
    CellSpec(workload, mechanism)
    for workload in ("gobmk", "povray")
    for mechanism in ("baseline", "aos")
]


def payloads(results):
    return {key: dataclasses.asdict(result) for key, result in results.items()}


# --------------------------------------------------------------- fingerprints


class TestFingerprints:
    def test_deterministic(self):
        cell = CellSpec("gcc", "aos")
        assert cell_fingerprint(SETTINGS, cell) == cell_fingerprint(SETTINGS, cell)

    def test_settings_change_invalidates(self):
        cell = CellSpec("gcc", "aos")
        longer = dataclasses.replace(SETTINGS, instructions=8000)
        assert cell_fingerprint(SETTINGS, cell) != cell_fingerprint(longer, cell)

    def test_config_change_invalidates(self):
        plain = CellSpec("gcc", "aos")
        tuned = CellSpec(
            "gcc",
            "aos",
            config=scaled_config("aos", SETTINGS.scale).with_aos_options(
                bwb_enabled=False
            ),
        )
        assert cell_fingerprint(SETTINGS, plain) != cell_fingerprint(SETTINGS, tuned)

    def test_key_is_a_label_not_content(self):
        # ``key`` names the memo slot; the cache is addressed purely by
        # content, so relabelling an identical run must still hit.
        plain = CellSpec("gcc", "aos")
        labelled = CellSpec("gcc", "aos", key="aos-variant")
        assert cell_fingerprint(SETTINGS, plain) == cell_fingerprint(SETTINGS, labelled)

    def test_trace_fingerprint_distinguishes_workloads(self):
        assert trace_fingerprint(SETTINGS, "gcc") != trace_fingerprint(SETTINGS, "mcf")


# ---------------------------------------------------------------- disk cache


class TestArtifactCache:
    def test_result_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"cycles": 123, "pipeline": {"mcq_stall_cycles": 4.0}}
        cache.put_result("a" * 64, payload)
        assert cache.get_result("a" * 64) == payload
        assert cache.info() == {"hits": 1, "misses": 0, "stores": 1, "corrupt": 0}

    def test_miss_counted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get_result("b" * 64) is None
        assert cache.stats.misses == 1

    def test_corrupted_result_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_result("c" * 64, {"cycles": 1})
        path = tmp_path / "results" / ("c" * 64 + ".json")
        path.write_bytes(b'{"cycles": 1')  # torn write
        assert cache.get_result("c" * 64) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_wrong_payload_type_is_corrupt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = tmp_path / "results" / ("d" * 64 + ".json")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.get_result("d" * 64) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.hits == 0

    def test_trace_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        trace = generate_cell_trace(SETTINGS, "gobmk")
        cache.put_trace("e" * 64, trace)
        loaded = cache.get_trace("e" * 64)
        assert pickle.dumps(loaded) == pickle.dumps(trace)

    def test_corrupted_trace_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_trace("f" * 64, generate_cell_trace(SETTINGS, "gobmk"))
        path = tmp_path / "traces" / ("f" * 64 + ".pkl")
        path.write_bytes(b"\x80\x04 not a pickle")
        assert cache.get_trace("f" * 64) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()


# --------------------------------------------------------------- determinism


class TestParallelDeterminism:
    def test_serial_vs_jobs4_bit_identical(self):
        serial = run_cells(SETTINGS, SMALL_SWEEP, jobs=1)
        parallel = run_cells(SETTINGS, SMALL_SWEEP, jobs=4)
        assert payloads(serial) == payloads(parallel)

    def test_run_cells_matches_simulate_cell(self):
        cell = CellSpec("gobmk", "aos")
        direct = simulate_cell(SETTINGS, cell)
        via_engine = run_cells(SETTINGS, [cell], jobs=2)[cell.cache_key]
        assert dataclasses.asdict(direct) == dataclasses.asdict(via_engine)

    def test_suite_ensure_cells_matches_result(self):
        lazy = ExperimentSuite(SETTINGS)
        eager = ExperimentSuite(SETTINGS, jobs=4)
        eager.ensure_cells(SMALL_SWEEP)
        for cell in SMALL_SWEEP:
            workload, key = cell.cache_key
            assert dataclasses.asdict(
                lazy.result(workload, cell.mechanism)
            ) == dataclasses.asdict(eager.result(workload, cell.mechanism))
        # result() simulates through the suite's memoised lowering.
        assert lazy.cache_info()["lowered"] == len(SMALL_SWEEP)

    def test_supervised_suite_matches_serial(self):
        serial = ExperimentSuite(SETTINGS)
        serial.ensure_cells(SMALL_SWEEP)
        supervised = ExperimentSuite(
            SETTINGS, jobs=2, supervise=SupervisorConfig(jobs=2)
        )
        supervised.ensure_cells(SMALL_SWEEP)
        assert supervised.result_payloads() == serial.result_payloads()
        assert len(supervised.supervision_reports) == 1
        assert supervised.supervision_reports[0].quarantined == {}


# ------------------------------------------------------- shared trace work


class TestSharedTraceWork:
    """Each trace's shared work runs once per ``ensure_cells`` call."""

    def test_fig14_and_fig15_do_trace_work_once(self, monkeypatch):
        from repro.compiler import passes
        from repro.core.signing import PointerSigner
        from repro.experiments import SPEC_WORKLOADS, parallel
        from repro.experiments.fig14 import run_fig14
        from repro.experiments.fig15 import run_fig15
        from repro.memory.allocator import HeapAllocator

        generated, signed, preamble_mallocs = [], [], []
        in_preamble = []

        def counting(fn, record):
            def wrapper(*args, **kwargs):
                record.append(args)
                return fn(*args, **kwargs)

            return wrapper

        def preamble(fn):
            def wrapper(self, *args):
                in_preamble.append(self)
                try:
                    return fn(self, *args)
                finally:
                    in_preamble.pop()

            return wrapper

        real_malloc = HeapAllocator.malloc

        def malloc(self, request):
            if in_preamble:
                preamble_mallocs.append(request)
            return real_malloc(self, request)

        monkeypatch.setattr(
            parallel, "generate_trace", counting(parallel.generate_trace, generated)
        )
        monkeypatch.setattr(
            PointerSigner, "pacma_batch", counting(PointerSigner.pacma_batch, signed)
        )
        monkeypatch.setattr(HeapAllocator, "malloc", malloc)
        monkeypatch.setattr(
            passes.BasePass,
            "_allocate_preamble",
            preamble(passes.BasePass._allocate_preamble),
        )

        tiny = RunSettings(instructions=1000, seed=7, scale=64)
        run_fig14(ExperimentSuite(tiny))
        run_fig15(ExperimentSuite(tiny))

        # One generation per workload per ensure_cells call (Fig. 14, Fig. 15).
        names = sorted(args[0].name for args in generated)
        assert names == sorted(SPEC_WORKLOADS * 2)
        # One signing per (workload, PA config): AOS and PA+AOS share it in
        # Fig. 14, the four AOS variants in Fig. 15.
        assert len(signed) == 2 * len(SPEC_WORKLOADS)
        assert preamble_mallocs == []

    def test_one_base_pass_and_prototype_per_trace_and_pa_config(self, monkeypatch):
        """Fig. 14's five mechanisms share one base pass per workload, and
        AOS and PA+AOS one pre-warmed HBT; Fig. 15's AOS variants share a
        base and pre-warm once per bounds-compression setting."""
        from repro.compiler import passes
        from repro.experiments import SPEC_WORKLOADS
        from repro.experiments.fig14 import run_fig14
        from repro.experiments.fig15 import run_fig15
        from repro.memory.allocator import HeapAllocator

        calls = Counter()

        def counting(cls, name):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(HeapAllocator, "malloc_many")
        counting(passes.AOSLowering, "_make_hbt")

        tiny = RunSettings(instructions=1000, seed=7, scale=64)
        run_fig14(ExperimentSuite(tiny))
        run_fig15(ExperimentSuite(tiny))

        assert calls["malloc_many"] == 2 * len(SPEC_WORKLOADS)
        assert calls["_make_hbt"] == 3 * len(SPEC_WORKLOADS)

    @pytest.mark.parametrize(
        "workloads, jobs, tasks",
        [(("gobmk",), 1, 1), (("gobmk",), 2, 2), (("gobmk", "povray"), 2, 2)],
    )
    def test_one_task_per_trace_unless_workers_would_idle(
        self, monkeypatch, workloads, jobs, tasks
    ):
        """A task is one trace's cells; with fewer traces than workers,
        each cell is its own task.  Either way results equal a serial run."""
        import repro.supervise
        from repro.experiments import parallel

        cells = [CellSpec(w, m) for w in workloads for m in ("baseline", "aos")]
        serial = run_cells(SETTINGS, cells, jobs=1)
        submitted = []
        real = repro.supervise.dispatch

        def counting(worker, batch, *args, **kwargs):
            submitted.append([task.key for task in batch])
            return real(worker, batch, *args, **kwargs)

        monkeypatch.setattr(repro.supervise, "dispatch", counting)
        results = parallel.run_cells(SETTINGS, cells, jobs=jobs)
        assert len(submitted[0]) == tasks
        assert payloads(results) == payloads(serial)
        assert list(results) == list(serial)

    def test_repro_all_plans_once(self, monkeypatch, capsys):
        """``repro all`` computes every artifact's timed rows in one
        dispatch: each workload's trace is generated once there, and
        only Fig. 16, the REST-without-quarantine row and the resize
        growth trace generate theirs in the parent."""
        import repro.supervise
        import repro.workloads
        from repro import cli
        from repro.experiments import parallel

        generated = Counter()
        real_generate = parallel.generate_trace

        def generate(profile, *args, **kwargs):
            generated[profile.name] += 1
            return real_generate(profile, *args, **kwargs)

        dispatched = Counter()
        real_dispatch = repro.supervise.dispatch

        def dispatch(worker, tasks, *args, **kwargs):
            dispatched[worker.__name__] += 1
            return real_dispatch(worker, tasks, *args, **kwargs)

        monkeypatch.setattr(parallel, "generate_trace", generate)
        monkeypatch.setattr(repro.workloads, "generate_trace", generate)
        monkeypatch.setattr(repro.supervise, "dispatch", dispatch)
        assert cli.main(["all", "--quick", "--jobs", "1", "--no-cache"]) == 0
        capsys.readouterr()
        # gcc/povray/gobmk: the dispatch and Fig. 16; omnetpp: the dispatch,
        # the REST row and the resize trace; hmmer: the dispatch.
        assert generated == {
            "gcc": 2,
            "povray": 2,
            "gobmk": 2,
            "omnetpp": 3,
            "hmmer": 1,
        }
        assert dispatched["_group_worker"] == 1


# ----------------------------------------------------------- suite-level cache


class TestSuiteCache:
    def test_cold_then_warm_rerun(self, tmp_path):
        cold = ExperimentSuite(SETTINGS, cache=tmp_path)
        cold.ensure_cells(SMALL_SWEEP)
        reference = cold.result_payloads()
        assert cold.cache.stats.stores >= len(SMALL_SWEEP)

        warm = ExperimentSuite(SETTINGS, cache=tmp_path)
        warm.ensure_cells(SMALL_SWEEP)
        assert warm.result_payloads() == reference
        assert warm.cache.stats.hits == len(SMALL_SWEEP)
        assert warm.cache.stats.misses == 0
        # Nothing was re-lowered: every cell came straight off disk.
        assert warm.cache_info()["lowered"] == 0

    def test_settings_change_misses(self, tmp_path):
        ExperimentSuite(SETTINGS, cache=tmp_path).ensure_cells(SMALL_SWEEP)
        changed = dataclasses.replace(SETTINGS, instructions=6000)
        suite = ExperimentSuite(changed, cache=tmp_path)
        suite.ensure_cells(SMALL_SWEEP)
        assert suite.cache.stats.hits == 0
        assert suite.cache.stats.misses == len(SMALL_SWEEP)

    def test_corrupted_entry_resimulated(self, tmp_path):
        cold = ExperimentSuite(SETTINGS, cache=tmp_path)
        cold.ensure_cells(SMALL_SWEEP)
        reference = cold.result_payloads()
        victim = tmp_path / "results" / (
            cell_fingerprint(SETTINGS, SMALL_SWEEP[0]) + ".json"
        )
        victim.write_bytes(b"garbage")

        warm = ExperimentSuite(SETTINGS, cache=tmp_path)
        warm.ensure_cells(SMALL_SWEEP)
        assert warm.result_payloads() == reference
        assert warm.cache.stats.corrupt == 1

    def test_cached_trace_reused(self, tmp_path):
        first = ExperimentSuite(SETTINGS, cache=tmp_path)
        trace = first.trace("gobmk")
        second = ExperimentSuite(SETTINGS, cache=tmp_path)
        assert pickle.dumps(second.trace("gobmk")) == pickle.dumps(trace)
        assert second.cache.stats.hits == 1


# ----------------------------------------------------------- parallel campaign


def campaign_config(**overrides):
    defaults = dict(
        workloads=("gcc",),
        mechanisms=("aos",),
        kinds=tuple(FaultKind)[:4],
        locations=1,
        objects=8,
        churn=2,
        timeout_s=30.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def taxonomy(outcome):
    """The deterministic projection of a campaign (drops wall-clock noise)."""
    return [
        (r.workload, r.mechanism, r.kind, r.location, r.outcome.value, r.detections)
        for r in outcome.results
    ]


class TestParallelCampaign:
    def test_jobs2_matches_serial(self):
        config = campaign_config()
        serial = Campaign(config).run()
        parallel = Campaign(config).run(jobs=2)
        assert taxonomy(serial) == taxonomy(parallel)

    def test_parallel_resume_after_kill(self, tmp_path):
        config = campaign_config()
        checkpoint = tmp_path / "campaign.jsonl"
        seen = []

        def die_after_two(result, resumed):
            seen.append(result)
            if len(seen) == 2:
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            Campaign(config, checkpoint=checkpoint).run(progress=die_after_two)

        resumed = Campaign(config, checkpoint=checkpoint).run(jobs=2)
        assert resumed.resumed == 2
        assert taxonomy(resumed) == taxonomy(Campaign(config).run())
