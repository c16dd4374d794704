"""Adversarial scenario corpus and chaos campaign tests."""

import json
import os
from pathlib import Path

import pytest

from repro.adversary import (
    CHAOS_SCENARIOS,
    SCENARIOS,
    ChaosCampaign,
    ChaosConfig,
    Expectation,
    ScenarioMatrix,
    ScenarioOutcome,
    ScenarioRun,
    Step,
    build_scenario,
    classify_verdict,
    compile_scenario,
    execute_scenario,
    parse_scenarios,
    run_quick_chaos,
    run_scenario_cell,
    scenario_trace,
)
from repro.errors import WorkloadError
from repro.faults import Deadline
from repro.mechanisms import REGISTRY
from repro.supervise import SupervisorConfig
from repro.workloads.generator import TAG_FREE, TAG_MALLOC, TAG_PTR_ARITH


def _pid_recording_cell(payload):
    """run_scenario_cell that leaves its process id in $CHAOS_PID_DIR."""
    (Path(os.environ["CHAOS_PID_DIR"]) / str(os.getpid())).touch()
    return run_scenario_cell(payload)


# ---------------------------------------------------------------- the corpus


class TestCorpus:
    def test_registry_covers_issue_scenarios(self):
        required = {
            "heap-overflow-adjacent",
            "linear-oob-write",
            "nonlinear-oob-read",
            "intra-object-overflow",
            "uaf-stale-load",
            "uaf-after-realloc",
            "double-free",
            "pac-forgery",
            "pac-replay",
            "ahc-zero-escape",
        }
        assert required <= set(SCENARIOS)

    def test_builders_are_deterministic(self):
        for name in SCENARIOS:
            assert build_scenario(name, seed=13) == build_scenario(name, seed=13)

    def test_seed_changes_payloads_not_shape(self):
        a = build_scenario("heap-overflow-adjacent", seed=1)
        b = build_scenario("heap-overflow-adjacent", seed=2)
        assert [s.op for s in a.steps] == [s.op for s in b.steps]
        assert a != b  # sizes/values drawn from the seed

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            build_scenario("stack-smash")

    def test_step_rejects_unknown_op(self):
        with pytest.raises(WorkloadError):
            Step("realloc", obj="x")

    def test_parse_scenarios(self):
        assert parse_scenarios(None) == list(CHAOS_SCENARIOS)
        assert parse_scenarios(list(SCENARIOS)) == list(SCENARIOS)
        assert parse_scenarios(["double-free"]) == ["double-free"]
        with pytest.raises(WorkloadError):
            parse_scenarios(["double-free", "bogus"])

    def test_oracle_defined_for_every_mechanism(self):
        for name in SCENARIOS:
            instance = build_scenario(name)
            for mechanism in REGISTRY:
                assert isinstance(instance.expected(mechanism), Expectation)

    def test_ahc_zero_oracle_is_the_paper_contract(self):
        """§VII-C: plain AOS's documented escape, closed by PA+AOS."""
        instance = build_scenario("ahc-zero-escape")
        assert instance.expected("aos") is Expectation.KNOWN_ESCAPE
        assert instance.expected("pa+aos") is Expectation.MUST_DETECT
        assert instance.expected("baseline") is Expectation.UNSUPPORTED
        assert "VII-C" in instance.paper_ref

    def test_intra_object_escapes_every_mechanism(self):
        instance = build_scenario("intra-object-overflow")
        for mechanism in REGISTRY:
            assert instance.expected(mechanism) is Expectation.KNOWN_ESCAPE


# ------------------------------------------------------------- interpreter


class TestInterpreter:
    def run(self, name, mechanism):
        return execute_scenario(build_scenario(name), mechanism)

    def test_heap_overflow_detected_by_aos(self):
        outcome, detail = self.run("heap-overflow-adjacent", "aos")
        assert outcome is ScenarioOutcome.DETECTED
        assert "store" in detail

    def test_heap_overflow_silent_on_baseline(self):
        outcome, _ = self.run("heap-overflow-adjacent", "baseline")
        assert outcome is ScenarioOutcome.UNDETECTED

    def test_nonlinear_oob_escapes_rest_redzone(self):
        """The motivating blind spot: a strided OOB jumps the redzone."""
        outcome, _ = self.run("nonlinear-oob-read", "rest")
        assert outcome is ScenarioOutcome.UNDETECTED
        outcome, _ = self.run("nonlinear-oob-read", "aos")
        assert outcome is ScenarioOutcome.DETECTED

    def test_ahc_zero_splits_aos_and_pa_aos(self):
        outcome, _ = self.run("ahc-zero-escape", "aos")
        assert outcome is ScenarioOutcome.UNDETECTED
        outcome, detail = self.run("ahc-zero-escape", "pa+aos")
        assert outcome is ScenarioOutcome.DETECTED

    def test_forgery_unsupported_without_signing(self):
        outcome, detail = self.run("pac-forgery", "baseline")
        assert outcome is ScenarioOutcome.UNSUPPORTED
        assert "baseline" in detail

    def test_brute_force_unsupported_without_guessable_metadata(self):
        outcome, detail = self.run("metadata-brute-force", "baseline")
        assert outcome is ScenarioOutcome.UNSUPPORTED
        assert "guessable" in detail

    def test_brute_force_reraises_the_last_detection(self, monkeypatch):
        """Each detection is a retry; an exhausted budget re-raises the
        last one, so every one of the 256 forged loads was tried."""
        from repro.core.aos import AOSRuntime

        loads = []
        real_load = AOSRuntime.load
        monkeypatch.setattr(
            AOSRuntime, "load",
            lambda self, p, size=8: loads.append(p) or real_load(self, p, size),
        )
        outcome, detail = self.run("metadata-brute-force", "aos")
        assert outcome is ScenarioOutcome.DETECTED
        assert detail.startswith("step 1 (brute-force)")
        assert len(set(loads)) == 256

    def test_mte_forges_tags_not_pacs(self):
        """MTE is judged on brute force (tag guessing) but has no PAC for
        ``pac-forgery`` to rewrite."""
        from repro.baselines.mte import MTERuntime

        assert hasattr(MTERuntime(), "forge_tag")
        assert not hasattr(MTERuntime(), "forge_pac")
        outcome, detail = self.run("metadata-brute-force", "mte")
        assert outcome is ScenarioOutcome.UNDETECTED

    def test_crafted_address_comes_from_the_layout(self):
        """``craft`` yields a plain integer in the named layout region:
        freeing it is what ``invalid-free`` and House of Spirit do."""
        from repro.adversary.chaos import _apply_step
        from repro.memory.runtime import BaselineRuntime

        runtime, env = BaselineRuntime(), {}
        _apply_step(
            runtime, env, Step("craft", obj="x", region="globals_base", offset=16)
        )
        assert env["x"] == runtime.allocator.layout.globals_base + 16
        _apply_step(runtime, env, Step("raw-write", obj="x", offset=8, value=7))
        assert runtime.load(env["x"] + 8) == 7

    def test_uaf_detected_by_temporal_mechanisms(self):
        for mechanism in ("aos", "pa+aos", "watchdog"):
            outcome, _ = self.run("uaf-stale-load", mechanism)
            assert outcome is ScenarioOutcome.DETECTED, mechanism

    def test_crash_is_contained(self, monkeypatch):
        """A simulator bug inside a step is a CRASHED outcome, never an
        exception out of the interpreter."""
        import repro.adversary.chaos as chaos

        class Broken:
            name = "broken"

            def malloc(self, size):
                raise RuntimeError("allocator imploded")

        monkeypatch.setattr(chaos, "make_adapter", lambda name: Broken())
        outcome, detail = execute_scenario(
            build_scenario("double-free"), "aos"
        )
        assert outcome is ScenarioOutcome.CRASHED
        assert "allocator imploded" in detail

    def test_expired_deadline_times_out_cell(self):
        run = run_scenario_cell(("double-free", "aos", 7, 0.0))
        assert run.observed == "timed-out"
        assert run.verdict == "robustness-bug"

    def test_deadline_propagates_from_execute(self):
        from repro.errors import ExperimentTimeout

        with pytest.raises(ExperimentTimeout):
            execute_scenario(build_scenario("double-free"), "aos", Deadline(0.0))


# ---------------------------------------------------------------- verdicts


class TestVerdicts:
    @pytest.mark.parametrize(
        "expected,observed,verdict",
        [
            (Expectation.MUST_DETECT, ScenarioOutcome.DETECTED, "as-expected"),
            (Expectation.MUST_DETECT, ScenarioOutcome.UNDETECTED, "missed-detection"),
            (Expectation.MAY_DETECT, ScenarioOutcome.DETECTED, "as-expected"),
            (Expectation.MAY_DETECT, ScenarioOutcome.UNDETECTED, "as-expected"),
            (Expectation.KNOWN_ESCAPE, ScenarioOutcome.UNDETECTED, "escape-confirmed"),
            (Expectation.KNOWN_ESCAPE, ScenarioOutcome.DETECTED, "surprise-detection"),
            (Expectation.UNSUPPORTED, ScenarioOutcome.UNSUPPORTED, "unmodeled"),
            (Expectation.UNSUPPORTED, ScenarioOutcome.DETECTED, "surprise-detection"),
            (Expectation.UNSUPPORTED, ScenarioOutcome.UNDETECTED, "escape-confirmed"),
            (Expectation.MUST_DETECT, ScenarioOutcome.CRASHED, "robustness-bug"),
            (Expectation.KNOWN_ESCAPE, ScenarioOutcome.TIMED_OUT, "robustness-bug"),
            (Expectation.MAY_DETECT, ScenarioOutcome.UNSUPPORTED, "unmodeled"),
        ],
    )
    def test_classification_table(self, expected, observed, verdict):
        assert classify_verdict(expected, observed) == verdict

    def test_only_missed_detection_fails(self):
        run = run_scenario_cell(("heap-overflow-adjacent", "aos", 7, None))
        assert not run.failed
        run.verdict = "missed-detection"
        assert run.failed

    def test_run_payload_roundtrip(self):
        run = run_scenario_cell(("uaf-after-realloc", "pa+aos", 7, None))
        clone = ScenarioRun.from_payload(run.to_payload())
        assert clone == run
        stable = run.stable_payload()
        assert "elapsed" not in stable
        assert ScenarioRun.from_payload(stable).scenario == run.scenario


# ---------------------------------------------------------------- campaign


class TestChaosConfig:
    def test_rejects_unknown_mechanism(self):
        with pytest.raises(WorkloadError):
            ChaosConfig(mechanisms=("aos", "sgx"))

    def test_rejects_unknown_scenario(self):
        with pytest.raises(WorkloadError):
            ChaosConfig(scenarios=("bogus",))

    def test_quick_sweeps_contrasting_mechanisms(self):
        config = ChaosConfig.quick()
        assert config.mechanisms == ("baseline", "aos", "pa+aos")
        assert config.scenario_names() == list(CHAOS_SCENARIOS)


class TestChaosCampaign:
    def test_quick_campaign_matches_oracle(self):
        matrix = run_quick_chaos()
        assert len(matrix) == 3 * len(CHAOS_SCENARIOS)
        assert matrix.ok, matrix.format_report()
        assert not matrix.robustness_bugs()
        # The §VII-C escape is a *named* finding, never a silent pass.
        escapes = {(r.scenario, r.mechanism) for r in matrix.known_escapes()}
        assert ("ahc-zero-escape", "aos") in escapes
        assert matrix.cell("ahc-zero-escape", "pa+aos").observed == "detected"
        report = matrix.format_report()
        assert "ahc-zero-escape vs aos" in report
        assert "known escapes" in report

    def test_every_cell_lands_in_taxonomy(self):
        config = ChaosConfig(scenarios=("double-free", "pac-forgery"))
        matrix = ChaosCampaign(config).run()
        assert len(matrix) == 2 * len(REGISTRY)
        assert all(r.verdict != "robustness-bug" for r in matrix.runs)
        # Unsupported primitives are explicit, not silent passes.
        unmodeled = [r for r in matrix.runs if r.verdict == "unmodeled"]
        assert all(r.observed == "unsupported" for r in unmodeled)
        assert unmodeled, "pac-forgery must be unmodeled somewhere"

    def test_supervised_matches_serial(self):
        config = ChaosConfig(
            scenarios=("heap-overflow-adjacent", "ahc-zero-escape"),
            mechanisms=("baseline", "aos", "pa+aos"),
        )
        serial = ChaosCampaign(config).run()
        supervised = ChaosCampaign(config).run(
            supervise=SupervisorConfig(jobs=2, deadline_s=60.0)
        )
        assert supervised.supervision is not None
        assert [r.stable_payload() for r in supervised.runs] == [
            r.stable_payload() for r in serial.runs
        ]
        assert supervised.supervision.accounts_for(
            [json.dumps(["scenario", s, m]) for s, m in ChaosCampaign(config).cells()]
        )

    def test_unsupervised_jobs_fan_out(self, monkeypatch, tmp_path):
        """``jobs=2`` without supervision runs cells in worker processes
        and classifies them exactly as the serial sweep does."""
        from repro.adversary import chaos

        config = ChaosConfig(
            scenarios=("heap-overflow-adjacent", "double-free"),
            mechanisms=("baseline", "aos"),
        )
        serial = ChaosCampaign(config).run()
        monkeypatch.setenv("CHAOS_PID_DIR", str(tmp_path))
        monkeypatch.setattr(chaos, "run_scenario_cell", _pid_recording_cell)
        fanned = ChaosCampaign(config).run(jobs=2)
        assert [r.stable_payload() for r in fanned.runs] == [
            r.stable_payload() for r in serial.runs
        ]
        pids = {int(path.name) for path in tmp_path.iterdir()}
        assert pids and os.getpid() not in pids

    def test_missed_detection_fails_campaign(self, monkeypatch):
        """Force a stale oracle entry: a must-detect the mechanism misses."""
        from repro.adversary import scenarios as scen

        def impossible(seed=7):
            instance = scen.intra_object_overflow(seed)
            return scen.ScenarioInstance(
                name=instance.name,
                category=instance.category,
                description=instance.description,
                steps=instance.steps,
                expectations={"aos": Expectation.MUST_DETECT},
                default=Expectation.KNOWN_ESCAPE,
                seed=seed,
            )

        monkeypatch.setitem(scen.SCENARIOS, "intra-object-overflow", impossible)
        matrix = ChaosCampaign(
            ChaosConfig(scenarios=("intra-object-overflow",), mechanisms=("aos",))
        ).run()
        assert not matrix.ok
        assert matrix.must_detect_failures()[0].scenario == "intra-object-overflow"
        assert "MISSED DETECTIONS" in matrix.format_report()

    def test_quarantined_cells_are_robustness_bugs(self):
        matrix = ScenarioMatrix(
            quarantined=[
                {"scenario": "double-free", "mechanism": "aos", "reason": "hang x3"}
            ]
        )
        assert matrix.ok  # quarantine is a finding, not a campaign failure
        bugs = matrix.robustness_bugs()
        assert bugs == [
            {"scenario": "double-free", "mechanism": "aos", "reason": "hang x3"}
        ]

    def test_matrix_payload_is_stable(self):
        config = ChaosConfig(scenarios=("uaf-stale-load",), mechanisms=("aos",))
        one = ChaosCampaign(config).run().to_payload()
        two = ChaosCampaign(config).run().to_payload()
        assert one == two  # elapsed excluded: committable artifact
        assert one["kind"] == "scenario-matrix"
        assert one["ok"]


# -------------------------------------------------------- trace compilation


class TestScenarioCompilation:
    def test_trace_shape(self):
        instance = build_scenario("uaf-after-realloc")
        trace = scenario_trace(instance)
        assert trace.profile.name == "attack:uaf-after-realloc"
        ops = trace.tags.tolist()
        assert ops.count(TAG_MALLOC) == 2
        assert ops.count(TAG_FREE) == 1

    def test_double_free_lowers_second_free_to_pa(self):
        trace = scenario_trace(build_scenario("double-free"))
        ops = trace.tags.tolist()
        assert ops.count(TAG_FREE) == 1  # allocator executes at lowering time
        assert TAG_PTR_ARITH in ops

    def test_every_scenario_lowers(self):
        for name in SCENARIOS:
            lowered = compile_scenario(name, "aos")
            assert len(lowered.program), name

    def test_crafted_free_lowers_to_pa(self):
        trace = scenario_trace(build_scenario("house-of-spirit"))
        ops = trace.tags.tolist()
        assert ops.count(TAG_FREE) == 0  # the fake chunk is never allocated
        assert ops.count(TAG_MALLOC) == 1
        assert TAG_PTR_ARITH in ops

    def test_compiled_exploit_faults_under_aos(self):
        from repro.cpu.core import Simulator
        from repro.experiments.common import scaled_config

        config = scaled_config("aos", 8)
        lowered = compile_scenario("heap-overflow-adjacent", "aos", config=config)
        result = Simulator(config).run(lowered)
        assert result.validation_faults > 0

    def test_compiles_for_every_lowerable_mechanism(self):
        for mechanism in ("baseline", "aos", "pa+aos", "mte", "rest"):
            lowered = compile_scenario("linear-oob-write", mechanism)
            assert len(lowered.program)
