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
    GROWTH,
    generate_cell_trace,
    run_cells,
    simulate_cell,
    supervised_cell_key,
    trace_fingerprint,
    trace_group_key,
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


def spy(monkeypatch, owner, name) -> list:
    """Record the positional arguments of every call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


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

    def test_trace_fingerprint_distinguishes_variants(self):
        plain = trace_fingerprint(SETTINGS, "omnetpp")
        assert plain != trace_fingerprint(SETTINGS, "omnetpp", GROWTH)


class TestCellVariants:
    """A growth-phase cell and a Fig. 16 mix cell never pass for their
    plain counterparts: every key and fingerprint tells them apart."""

    @staticmethod
    def keys(cell):
        suite = ExperimentSuite(SETTINGS)
        return {
            "trace_group_key": trace_group_key(cell),
            "cell_fingerprint": cell_fingerprint(SETTINGS, cell),
            "cache_key": cell.cache_key,
            "supervised_cell_key": supervised_cell_key(cell),
            "identity": suite._identity(cell),
        }

    def test_growth_cell_keys_differ_from_plain(self):
        for mechanism in ("baseline", "aos"):
            plain = self.keys(CellSpec("omnetpp", mechanism))
            growth = self.keys(CellSpec("omnetpp", mechanism, variant=GROWTH))
            assert growth["trace_group_key"] == "omnetpp@growth"
            assert all(growth[name] != plain[name] for name in plain), mechanism

    def test_mix_cell_keys_differ_from_plain(self):
        plain = self.keys(CellSpec("gcc", "pa+aos"))
        mix = self.keys(CellSpec("gcc", "pa+aos", mix=True))
        # One trace group, so a mix cell shares its group's PA+AOS lowering.
        assert mix.pop("trace_group_key") == plain.pop("trace_group_key")
        assert all(mix[name] != plain[name] for name in plain)

    def test_growth_baseline_is_its_own_run(self):
        suite = ExperimentSuite(SETTINGS)
        plain = CellSpec("omnetpp", "baseline")
        growth = CellSpec("omnetpp", "baseline", variant=GROWTH)
        suite.ensure_cells([plain, growth])
        assert suite.outcome(plain).cycles != suite.outcome(growth).cycles

    def test_mix_cell_round_trips_through_the_cache(self, tmp_path):
        mix = CellSpec("gobmk", "pa+aos", mix=True)
        cold = ExperimentSuite(SETTINGS, cache=tmp_path)
        cold.ensure_cells([mix])
        counts = cold.outcome(mix)
        assert set(counts) == {"counts", "instructions"}
        warm = ExperimentSuite(SETTINGS, cache=tmp_path)
        warm.ensure_cells([mix])
        assert warm.cache.stats.misses == 0
        assert warm.outcome(mix) == counts
        # Mix counts stay out of the simulation results.
        assert warm.result_payloads() == {}


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
        serial, _ = run_cells(SETTINGS, SMALL_SWEEP, jobs=1)
        parallel, _ = run_cells(SETTINGS, SMALL_SWEEP, jobs=4)
        assert payloads(serial) == payloads(parallel)

    def test_run_cells_matches_simulate_cell(self):
        cell = CellSpec("gobmk", "aos")
        direct = simulate_cell(SETTINGS, cell)
        via_engine = run_cells(SETTINGS, [cell], jobs=2)[0][cell.cache_key]
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
        assert lazy.cache_info() == {"traces": 0, "results": len(SMALL_SWEEP)}

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


# ------------------------------------------------------------------ one path


class TestOnePath:
    """A suite computes every cell it does not know through
    ``ensure_cells`` and ``run_cells``, planned or not."""

    def test_unplanned_result_is_identical_on_every_suite(self, monkeypatch):
        from repro.experiments import parallel

        dispatched = spy(monkeypatch, parallel, "run_cells")
        suites = [
            ExperimentSuite(SETTINGS),
            ExperimentSuite(SETTINGS, jobs=2),
            ExperimentSuite(SETTINGS, jobs=2, supervise=SupervisorConfig(jobs=2)),
        ]
        texts = set()
        for suite in suites:
            for cell in SMALL_SWEEP:
                suite.result(cell.workload, cell.mechanism)
            rows = sorted(suite.result_payloads().items())
            texts.add(json.dumps([[list(k), v] for k, v in rows], sort_keys=True))
        assert len(texts) == 1
        # One dispatch of one cell per result() call, on every suite.
        assert [len(args[1]) for args in dispatched] == [1] * 3 * len(SMALL_SWEEP)
        assert len(suites[2].supervision_reports) == len(SMALL_SWEEP)

    def test_unplanned_normalized_time_generates_its_trace_once(self, monkeypatch):
        from repro.experiments import parallel

        generated = spy(monkeypatch, parallel, "generate_trace")
        dispatched = spy(monkeypatch, parallel, "run_cells")
        suite = ExperimentSuite(SETTINGS)
        suite.normalized_time("gobmk", "aos")
        suite.normalized_traffic("gobmk", "aos")
        assert len(generated) == 1
        assert [len(args[1]) for args in dispatched] == [2]


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
        serial, _ = run_cells(SETTINGS, cells, jobs=1)
        submitted = []
        real = repro.supervise.dispatch

        def counting(worker, batch, *args, **kwargs):
            submitted.append([task.key for task in batch])
            return real(worker, batch, *args, **kwargs)

        monkeypatch.setattr(repro.supervise, "dispatch", counting)
        results, report = parallel.run_cells(SETTINGS, cells, jobs=jobs)
        assert report is None
        assert len(submitted[0]) == tasks
        assert payloads(results) == payloads(serial)
        assert list(results) == list(serial)

    def test_repro_all_plans_once(self, monkeypatch, capsys):
        """``repro all`` computes every artifact's rows in one dispatch:
        each trace is generated once there, Fig. 16's mix cells count the
        PA+AOS lowering without simulating it, and nothing runs in the
        parent.  The other two dispatches are the fault-injection
        campaign and the security matrix's chaos campaign."""
        import repro.supervise
        import repro.workloads
        from repro import cli
        from repro.adversary import chaos
        from repro.cpu.core import Simulator
        from repro.experiments import parallel
        from repro.faults import campaign

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

        runs = []
        real_run = Simulator.run

        def run(self, *args, **kwargs):
            runs.append(self.config.mechanism)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(parallel, "generate_trace", generate)
        monkeypatch.setattr(repro.workloads, "generate_trace", generate)
        monkeypatch.setattr(repro.supervise, "dispatch", dispatch)
        monkeypatch.setattr(campaign, "dispatch", dispatch)
        monkeypatch.setattr(chaos, "dispatch", dispatch)
        monkeypatch.setattr(Simulator, "run", run)
        assert cli.main(["all", "--quick", "--jobs", "1", "--no-cache"]) == 0
        capsys.readouterr()
        # omnetpp: its plain trace and the resize ablation's growth phase.
        assert generated == {
            "gcc": 1,
            "povray": 1,
            "gobmk": 1,
            "omnetpp": 2,
            "hmmer": 1,
        }
        assert dispatched == {
            "_group_worker": 1,
            "_cell_worker": 1,
            "run_scenario_cell": 1,
        }
        assert len(runs) == 44


# ----------------------------------------------------------- suite-level cache


class TestSuiteCache:
    def test_cold_then_warm_rerun(self, tmp_path, monkeypatch):
        from repro.experiments import parallel

        cold = ExperimentSuite(SETTINGS, cache=tmp_path)
        cold.ensure_cells(SMALL_SWEEP)
        reference = cold.result_payloads()
        assert cold.cache.stats.stores >= len(SMALL_SWEEP)

        lowered = spy(monkeypatch, parallel, "lower_trace")
        warm = ExperimentSuite(SETTINGS, cache=tmp_path)
        warm.ensure_cells(SMALL_SWEEP)
        assert warm.result_payloads() == reference
        assert warm.cache.stats.hits == len(SMALL_SWEEP)
        assert warm.cache.stats.misses == 0
        # Nothing was re-lowered: every cell came straight off disk.
        assert lowered == []

    def test_lowering_count_sees_a_rerun_without_the_cache(self, monkeypatch):
        """The spy of the warm rerun above is not vacuous: the same sweep
        with no cache attached lowers every cell."""
        from repro.experiments import parallel

        lowered = spy(monkeypatch, parallel, "lower_trace")
        ExperimentSuite(SETTINGS).ensure_cells(SMALL_SWEEP)
        mechanisms = sorted(args[1] for args in lowered)
        assert mechanisms == sorted(cell.mechanism for cell in SMALL_SWEEP)

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

    def test_one_fingerprint_per_cell(self, tmp_path, monkeypatch):
        """A cold Fig. 14 and a Fig. 15 on its cache fingerprint each cell
        they look up once: the store after a miss reuses the lookup's."""
        from repro.experiments import parallel
        from repro.experiments.fig14 import run_fig14
        from repro.experiments.fig15 import run_fig15

        real = parallel.cell_fingerprint
        calls = []

        def counted(settings, cell):
            calls.append(cell)
            return real(settings, cell)

        monkeypatch.setattr(parallel, "cell_fingerprint", counted)
        workloads = ["gobmk", "povray"]
        fig14 = ExperimentSuite(SETTINGS, cache=tmp_path)
        run_fig14(fig14, workloads)
        # 16 cells, 10 distinct simulations: each one looked up and stored.
        assert len(calls) == len(set(calls)) == fig14.cache.stats.stores == 10
        fig15 = ExperimentSuite(SETTINGS, cache=tmp_path)
        run_fig15(fig15, workloads)
        stats = fig15.cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (4, 6, 6)
        assert len(calls) == 10 + stats.hits + stats.misses

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
