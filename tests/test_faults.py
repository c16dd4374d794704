"""Fault-injection subsystem tests: injector, campaign, checkpoint."""

import json

import pytest

from repro.errors import CheckpointError, ExperimentTimeout, FaultInjectionError
from repro.faults import (
    Campaign,
    CampaignConfig,
    CheckpointStore,
    Deadline,
    FaultHarness,
    FaultInjector,
    FaultKind,
    FaultSpec,
    POINTER_CORRUPTION_KINDS,
    RunOutcome,
    RunResult,
)
from repro.faults.campaign import run_campaign_cell
from repro.stats import DetectionCoverage

#: A small-but-real harness shape shared by the injection tests.
HARNESS_KW = dict(workload="gcc", seed=11, objects=10)


def small_config(**overrides):
    defaults = dict(
        workloads=("gcc",),
        mechanisms=("aos",),
        locations=1,
        objects=8,
        churn=2,
        timeout_s=30.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def run_one(kind, mechanism="aos", location=0, **config_kw):
    config = small_config(kinds=(kind,), **config_kw)
    return run_campaign_cell(
        config, "gcc", mechanism, FaultSpec(kind=kind, location=location)
    )


# --------------------------------------------------------------------- deadline


class TestDeadline:
    def test_unbounded(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        deadline.check()  # never raises

    def test_expired_raises(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(ExperimentTimeout):
            deadline.check()

    def test_elapsed_monotonic(self):
        deadline = Deadline(60.0)
        assert deadline.elapsed >= 0.0
        assert not deadline.expired()


# ------------------------------------------------------------------- checkpoint


class TestCheckpointStore:
    META = {"kind": "test", "seed": 7}

    def test_put_get_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "cp.jsonl", meta=self.META)
        key = ["cell", "gcc", "aos", "ptr-pac-flip", 0]
        assert key not in store
        store.put(key, {"outcome": "detected"})
        assert key in store
        assert store.get(key) == {"outcome": "detected"}
        assert len(store) == 1

    def test_resume_across_instances(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        first = CheckpointStore(path, meta=self.META)
        first.put(["a"], 1)
        first.put(["b"], 2)
        second = CheckpointStore(path, meta=self.META)
        assert second.resumed_cells == 2
        assert second.get(["a"]) == 1
        assert sorted(map(tuple, second.keys())) == [("a",), ("b",)]

    def test_torn_tail_line_skipped(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        store = CheckpointStore(path, meta=self.META)
        store.put(["a"], 1)
        with open(path, "a") as fh:
            fh.write('{"k": ["b"], "v": 2')  # interrupted mid-write
        reopened = CheckpointStore(path, meta=self.META)
        assert ["a"] in reopened
        assert ["b"] not in reopened

    def test_torn_tail_does_not_eat_next_put(self, tmp_path):
        """A torn tail must be newline-terminated on open so the next
        append does not glue onto the garbage and get lost too."""
        path = tmp_path / "cp.jsonl"
        CheckpointStore(path, meta=self.META).put(["a"], 1)
        with open(path, "a") as fh:
            fh.write('{"k": ["b"], "v": 2')  # no trailing newline
        reopened = CheckpointStore(path, meta=self.META)
        reopened.put(["c"], 3)
        third = CheckpointStore(path, meta=self.META)
        assert third.resumed_cells == 2
        assert third.get(["c"]) == 3

    def test_meta_mismatch_restarts(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        old = CheckpointStore(path, meta=self.META)
        old.put(["a"], 1)
        fresh = CheckpointStore(path, meta={"kind": "test", "seed": 8})
        assert fresh.resumed_cells == 0
        assert ["a"] not in fresh
        # The file itself was truncated and restamped.
        header = json.loads(path.read_text().splitlines()[0])
        assert header["meta"]["seed"] == 8

    def test_meta_mismatch_error_policy(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        CheckpointStore(path, meta=self.META).put(["a"], 1)
        with pytest.raises(CheckpointError):
            CheckpointStore(path, meta={"seed": 8}, on_mismatch="error")

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "cp.jsonl", on_mismatch="ignore")


# --------------------------------------------------------------------- harness


class TestFaultHarness:
    def test_populate_builds_live_set(self):
        harness = FaultHarness(**HARNESS_KW)
        harness.populate()
        assert len(harness.objects) == 10
        assert all(not o.freed for o in harness.objects)
        assert harness.integrity_failures() == []
        assert harness.detections == 0

    def test_rejects_unprotected_mechanism(self):
        with pytest.raises(FaultInjectionError):
            FaultHarness(mechanism="baseline")

    def test_probe_clean_process_no_detections(self):
        harness = FaultHarness(**HARNESS_KW)
        harness.populate()
        harness.probe(deadline=Deadline(None), churn=2)
        assert harness.detections == 0
        assert harness.integrity_failures() == []

    def test_injector_rejects_empty_population(self):
        harness = FaultHarness(**HARNESS_KW)  # no populate()
        with pytest.raises(FaultInjectionError):
            FaultInjector().inject(harness, FaultSpec(kind=FaultKind.PTR_PAC_FLIP))


# ------------------------------------------------------------- injection kinds


class TestInjectionOutcomes:
    @pytest.mark.parametrize("kind", POINTER_CORRUPTION_KINDS)
    def test_pointer_corruption_detected(self, kind):
        result = run_one(kind)
        assert result.outcome is RunOutcome.DETECTED, result.detail
        assert result.expect_detection

    @pytest.mark.parametrize(
        "kind", [FaultKind.HBT_ENTRY_CORRUPT, FaultKind.HBT_ENTRY_DROP,
                 FaultKind.BNDSTR_DROP]
    )
    def test_table_corruption_detected(self, kind):
        result = run_one(kind)
        assert result.outcome is RunOutcome.DETECTED, result.detail

    def test_chunk_header_corruption_detected(self):
        result = run_one(FaultKind.CHUNK_HEADER_CORRUPT)
        assert result.outcome is RunOutcome.DETECTED, result.detail

    def test_ahc_zero_silent_under_plain_aos(self):
        """The §VII-C escape: plain AOS skips unsigned pointers."""
        result = run_one(FaultKind.PTR_AHC_ZERO, mechanism="aos")
        assert result.outcome is RunOutcome.SILENT
        assert not result.expect_detection

    def test_ahc_zero_detected_under_pa_aos(self):
        """PA+AOS's on-load autm (Fig. 13) closes the escape."""
        result = run_one(
            FaultKind.PTR_AHC_ZERO,
            mechanism="pa+aos",
            mechanisms=("pa+aos",),
        )
        assert result.outcome is RunOutcome.DETECTED, result.detail
        assert result.expect_detection

    @pytest.mark.parametrize(
        "kind", [FaultKind.RESIZE_INTERRUPT, FaultKind.BWB_STALE_WAY,
                 FaultKind.HBT_PRESSURE]
    )
    def test_resilience_faults_tolerated(self, kind):
        """Degradation faults must land in the taxonomy without crashing."""
        result = run_one(kind)
        assert result.outcome in (RunOutcome.DETECTED, RunOutcome.SILENT)
        assert result.retries == 0


# -------------------------------------------------------- campaign resilience


class TestCampaignResilience:
    def test_zero_budget_times_out(self):
        result = run_one(FaultKind.PTR_PAC_FLIP, timeout_s=0.0)
        assert result.outcome is RunOutcome.TIMED_OUT
        assert "wall-clock" in result.detail

    def test_host_error_retried_then_crashed(self):
        calls = []

        class FailingInjector:
            def inject(self, harness, spec):
                calls.append(spec.seed)
                raise RuntimeError("simulator bug")

        result = run_campaign_cell(
            small_config(max_retries=2),
            "gcc",
            "aos",
            FaultSpec(kind=FaultKind.PTR_PAC_FLIP, seed=7),
            injector=FailingInjector(),
        )
        assert result.outcome is RunOutcome.CRASHED
        assert result.retries == 2
        assert "RuntimeError" in result.detail
        # Each retry decorrelates with a fresh seed.
        assert calls == [7, 7 + 7919, 7 + 2 * 7919]

    def test_host_error_recovers_on_retry(self):
        real = FaultInjector()
        attempts = []

        class FlakyInjector:
            def inject(self, harness, spec):
                attempts.append(spec.seed)
                if len(attempts) == 1:
                    raise OSError("transient")
                return real.inject(harness, spec)

        result = run_campaign_cell(
            small_config(max_retries=2),
            "gcc",
            "aos",
            FaultSpec(kind=FaultKind.PTR_PAC_FLIP, seed=7),
            injector=FlakyInjector(),
        )
        assert result.outcome is RunOutcome.DETECTED
        assert result.retries == 1
        assert result.seed == 7 + 7919

    def test_unprotected_mechanism_fails_fast(self):
        """A typo'd --mechanisms must not burn the sweep as CRASHED cells."""
        with pytest.raises(FaultInjectionError):
            Campaign(small_config(mechanisms=("baseline",)))

    def test_campaign_never_escapes_taxonomy(self):
        config = small_config(
            kinds=(FaultKind.PTR_PAC_FLIP, FaultKind.PTR_AHC_ZERO,
                   FaultKind.RESIZE_INTERRUPT),
            locations=2,
        )
        result = Campaign(config).run()
        assert result.host_survived
        assert len(result) == 6
        assert result.outcomes()[RunOutcome.CRASHED] == 0


# --------------------------------------------------------- checkpoint / resume


class TestCampaignResume:
    CONFIG_KW = dict(
        kinds=(FaultKind.PTR_PAC_FLIP, FaultKind.USE_AFTER_FREE),
        locations=2,
    )

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        import repro.faults.campaign as campaign_mod

        path = tmp_path / "campaign.jsonl"
        config = small_config(**self.CONFIG_KW)
        first = Campaign(config, checkpoint=path).run()
        assert first.resumed == 0
        assert len(first) == 4

        resumed = Campaign(config, checkpoint=path)
        # Any attempt to re-run a cell would blow up.
        monkeypatch.setattr(campaign_mod, "_cell_worker", None)
        second = resumed.run()
        assert second.resumed == 4
        assert len(second) == 4
        assert [r.outcome for r in second.results] == \
            [r.outcome for r in first.results]

    def test_partial_checkpoint_runs_only_missing(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        config = small_config(**self.CONFIG_KW)
        campaign = Campaign(config, checkpoint=path)
        cells = list(campaign.cells())
        # Pre-complete the first two cells by hand.
        for workload, mechanism, spec in cells[:2]:
            key = ["cell", workload, mechanism, spec.kind.value, spec.location]
            campaign.checkpoint.put(
                key,
                RunResult(
                    workload=workload, mechanism=mechanism, kind=spec.kind.value,
                    location=spec.location, seed=spec.seed,
                    outcome=RunOutcome.DETECTED, detections=1,
                ).to_payload(),
            )
        ran = []
        result = campaign.run(progress=lambda r, resumed: ran.append(resumed))
        assert result.resumed == 2
        assert ran.count(True) == 2 and ran.count(False) == 2

    def test_config_change_restarts_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        Campaign(small_config(**self.CONFIG_KW), checkpoint=path).run()
        other = small_config(
            kinds=(FaultKind.PTR_PAC_FLIP, FaultKind.USE_AFTER_FREE),
            locations=2, seed=99,
        )
        fresh = Campaign(other, checkpoint=path)
        assert fresh.checkpoint.resumed_cells == 0


# ------------------------------------------------------------------ reporting


class TestReporting:
    def test_detection_coverage_table(self):
        coverage = DetectionCoverage()
        coverage.add("ptr-pac-flip", "detected")
        coverage.add("ptr-pac-flip", "detected")
        coverage.add("ptr-ahc-zero", "silent")
        assert coverage.total() == 3
        assert coverage.detected() == 2
        assert coverage.rate(["ptr-pac-flip"]) == 1.0
        table = coverage.format_table()
        assert "ptr-pac-flip" in table and "TOTAL" in table

    def test_crashes_count_against_detection(self):
        coverage = DetectionCoverage()
        coverage.add("k", "detected")
        coverage.add("k", "crashed")
        assert coverage.rate(["k"]) == 0.5

    def test_campaign_report_mentions_acceptance_bucket(self):
        config = small_config(kinds=tuple(POINTER_CORRUPTION_KINDS))
        result = Campaign(config).run()
        report = result.format_report()
        assert "pointer-corruption detection" in report
        assert "resumed from checkpoint: 0" in report
        assert result.pointer_corruption_rate == 1.0

    def test_runresult_payload_roundtrip(self):
        original = RunResult(
            workload="gcc", mechanism="aos", kind="ptr-va-flip", location=1,
            seed=7, outcome=RunOutcome.TIMED_OUT, detail="budget",
        )
        assert RunResult.from_payload(original.to_payload()) == original


# ----------------------------------------------------- teardown / fault kinds


class TestSeamTeardown:
    def arm_all_seams(self, harness):
        harness.mcu.inject_drop_bndstr(3)
        harness.hbt.interrupt_migration()
        if harness.bwb is not None:
            harness.bwb.poison(0x123, 1)

    def assert_disarmed(self, harness):
        assert harness.mcu._inject_dropped_stores == 0
        assert not harness.hbt.migration_stalled
        if harness.bwb is not None:
            assert harness.bwb.lookup(0x123) is None

    def test_exception_mid_simulation_disarms_seams(self):
        """The regression the context manager pins: an exception between
        injection and probe must not leak armed seams into the next run."""
        harness = FaultHarness(**HARNESS_KW)
        harness.populate()
        with pytest.raises(RuntimeError):
            with harness:
                self.arm_all_seams(harness)
                raise RuntimeError("crash between inject and probe")
        self.assert_disarmed(harness)
        # A follow-up run on the same components is clean: nothing drops
        # the new bndstr, no stalled migration steers its lookups.
        harness.allocate_one()
        harness.probe(churn=2)
        assert harness.detections == 0
        assert harness.integrity_failures() == []

    def test_context_manager_does_not_swallow(self):
        with pytest.raises(ValueError):
            with FaultHarness(**HARNESS_KW):
                raise ValueError("must propagate")

    def test_disarm_is_idempotent_and_keeps_results(self):
        harness = FaultHarness(**HARNESS_KW)
        harness.populate()
        record = FaultInjector().inject(
            harness, FaultSpec(kind=FaultKind.PTR_VA_FLIP)
        )
        harness.probe(churn=1)
        detections = harness.detections
        assert detections > 0
        harness.disarm_seams()
        harness.disarm_seams()
        # Applied corruption and logged detections are results, not seams.
        assert harness.detections == detections
        assert record.target_pointer is not None

    def test_failing_handler_disarms_before_raising(self):
        """A handler that dies after arming a seam must not leak it."""
        harness = FaultHarness(**HARNESS_KW)
        harness.populate()
        injector = FaultInjector()

        def exploding(self, harness, spec, rng):
            harness.mcu.inject_drop_bndstr(2)
            raise FaultInjectionError("handler died mid-injection")

        injector._HANDLERS = {FaultKind.BNDSTR_DROP: exploding}
        with pytest.raises(FaultInjectionError):
            injector.inject(harness, FaultSpec(kind=FaultKind.BNDSTR_DROP))
        assert harness.mcu._inject_dropped_stores == 0


class TestFaultKindVocabulary:
    def test_every_kind_has_a_handler(self):
        assert set(FaultInjector._HANDLERS) == set(FaultKind)

    def test_categories_partition_the_vocabulary(self):
        from repro.faults import (
            ALL_KINDS,
            METADATA_KINDS,
            RESILIENCE_KINDS,
            SPATIAL_POINTER_KINDS,
            TEMPORAL_POINTER_KINDS,
        )

        categories = (
            SPATIAL_POINTER_KINDS,
            TEMPORAL_POINTER_KINDS,
            METADATA_KINDS,
            RESILIENCE_KINDS,
        )
        members = [kind for category in categories for kind in category]
        # Every kind in exactly one category, none missing, none invented.
        assert len(members) == len(set(members))
        assert set(members) == set(FaultKind) == set(ALL_KINDS)

    def test_parse_fault_kind_round_trips(self):
        from repro.faults import parse_fault_kind

        for kind in FaultKind:
            assert parse_fault_kind(kind.value) is kind

    def test_parse_fault_kind_lists_vocabulary(self):
        from repro.faults import parse_fault_kind

        with pytest.raises(FaultInjectionError) as excinfo:
            parse_fault_kind("cosmic-ray")
        assert "ptr-pac-flip" in str(excinfo.value)
