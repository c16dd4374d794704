"""CLI smoke tests."""

import json

import pytest

from repro.cli import ARTIFACTS, build_parser, main


class TestParser:
    def test_artifact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig14", "--workloads", "gcc", "hmmer"])
        assert args.artifact == "fig14"
        assert args.workloads == ["gcc", "hmmer"]

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_every_artifact_documented(self):
        for name, description in ARTIFACTS.items():
            assert description

    def test_faultinject_options(self):
        parser = build_parser()
        args = parser.parse_args([
            "faultinject", "--quick", "--mechanisms", "aos", "pa+aos",
            "--fault-locations", "3", "--fault-timeout", "5.5",
            "--fault-checkpoint", "cp.jsonl",
        ])
        assert args.artifact == "faultinject"
        assert args.quick
        assert args.mechanisms == ["aos", "pa+aos"]
        assert args.fault_locations == 3
        assert args.fault_timeout == 5.5
        assert args.fault_checkpoint == "cp.jsonl"


class TestMain:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "omnetpp" in out

    def test_security(self, capsys):
        assert main(["security"]) == 0
        out = capsys.readouterr().out
        assert "house-of-spirit" in out

    def test_security_honours_selection(self, capsys, monkeypatch):
        assert main(["security", "--no-cache", "--mechanisms", "aos"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split() == ["attack", "aos"]
        assert main(["security", "--no-cache", "--scenarios", "pac-forgery"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines[2:] if line and not line.startswith("[")]
        assert [row.split()[0] for row in rows] == ["pac-forgery"]

        import repro.adversary as adversary

        seeds = []
        real = adversary.run_security_analysis
        monkeypatch.setattr(
            adversary,
            "run_security_analysis",
            lambda **kw: seeds.append(kw.get("seed")) or real(**kw),
        )
        argv = ["security", "--no-cache", "--scenarios", "double-free", "--seed", "3"]
        assert main(argv) == 0
        assert seeds == [3]
        capsys.readouterr()
        assert main(["security", "--scenarios", "bogus"]) == 2
        assert "known: heap-overflow-adjacent" in capsys.readouterr().err

    def test_fig17_small(self, capsys):
        assert main([
            "fig17", "--workloads", "gobmk", "--instructions", "8000",
        ]) == 0
        out = capsys.readouterr().out
        assert "Hit Rate" in out

    def test_faultinject_quick_single_workload(self, capsys, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        argv = [
            "faultinject", "--quick", "--workloads", "gcc",
            "--fault-checkpoint", str(checkpoint),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "detection coverage" in out
        assert "resumed from checkpoint: 0" in out
        # Second invocation resumes every completed cell from the checkpoint.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint: 12" in out

    def test_parallel_and_cache_options(self):
        parser = build_parser()
        args = parser.parse_args([
            "fig14", "--jobs", "4", "--cache-dir", "/tmp/x", "--quick",
        ])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.quick
        assert not args.no_cache

    def test_warm_cache_rerun_is_incremental(self, capsys, tmp_path):
        argv = [
            "fig17", "--workloads", "gobmk", "--instructions", "8000",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "artifact cache @" in cold
        assert "0 hits" in cold
        # Identical invocation: every cell and trace comes off disk.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm
        assert "0 stores" in warm

    def test_no_cache_prints_no_summary(self, capsys):
        argv = [
            "fig17", "--workloads", "gobmk", "--instructions", "8000",
            "--no-cache",
        ]
        assert main(argv) == 0
        assert "artifact cache @" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "artifact, runner",
        [
            ("trace-import", "run_trace_import"),
            ("trace", "run_trace"),
            ("attack", "run_attack"),
        ],
    )
    def test_interrupt_exits_130_with_the_resume_hint(
        self, capsys, monkeypatch, artifact, runner
    ):
        """A ^C (or a SIGTERM, which lands as one) mid-run: exit 130 and
        the resume hint on stderr, no profile table."""
        from repro import cli

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, runner, interrupted)
        assert main([artifact, "--profile"]) == 130
        captured = capsys.readouterr()
        assert captured.err.startswith("interrupted — completed cells")
        assert "re-run recomputes only what was in flight" in captured.err
        assert captured.out == ""


class TestTraceArtifact:
    def test_trace_options_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "trace", "gcc", "--trace-out", "t.json", "--metrics-out", "m.json",
            "--events-out", "e.jsonl", "--mechanism", "aos",
            "--trace-capacity", "1024",
        ])
        assert args.artifact == "trace"
        assert args.target == "gcc"
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"
        assert args.events_out == "e.jsonl"
        assert args.trace_capacity == 1024

    def test_trace_writes_valid_artifacts(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace_file

        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        events_out = tmp_path / "events.jsonl"
        assert main([
            "trace", "gobmk", "--quick", "--instructions", "6000",
            "--trace-out", str(trace_out), "--metrics-out", str(metrics_out),
            "--events-out", str(events_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert validate_chrome_trace_file(trace_out) == []

        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]  # non-empty: the run was observed
        assert metrics["counters"]["pipeline.instructions"] > 0
        assert events_out.read_text().strip()  # JSONL sink populated

    def test_trace_outputs_byte_identical_across_runs(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            trace_out = tmp_path / f"trace-{tag}.json"
            metrics_out = tmp_path / f"metrics-{tag}.json"
            assert main([
                "trace", "gobmk", "--quick", "--instructions", "6000",
                "--trace-out", str(trace_out), "--metrics-out", str(metrics_out),
            ]) == 0
            outs.append((trace_out.read_bytes(), metrics_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_metrics_flag_prints_suite_report(self, capsys):
        assert main([
            "fig17", "--workloads", "gobmk", "--instructions", "8000",
            "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "suite metrics (merged cells)" in out
        assert "[mcu]" in out
        assert "lines_per_signed_check" in out

    def test_metrics_out_writes_merged_snapshot(self, capsys, tmp_path):
        metrics_out = tmp_path / "suite-metrics.json"
        assert main([
            "fig17", "--workloads", "gobmk", "--instructions", "8000",
            "--metrics", "--metrics-out", str(metrics_out),
        ]) == 0
        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["counters"]["mcu.checks"] > 0

    def test_profile_flag_prints_phase_table(self, capsys):
        assert main([
            "table2", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine phase profile" in out


class TestAttackArtifact:
    def test_attack_registered(self):
        assert "attack" in ARTIFACTS

    def test_attack_options_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "attack", "--quick", "--scenarios", "double-free",
            "ahc-zero-escape", "--matrix-out", "m.json", "--pareto",
            "--no-supervise",
        ])
        assert args.artifact == "attack"
        assert args.scenarios == ["double-free", "ahc-zero-escape"]
        assert args.matrix_out == "m.json"
        assert args.pareto
        assert args.no_supervise

    def test_fault_kinds_option_parses_and_restricts(self, capsys):
        argv = [
            "faultinject", "--workloads", "gcc", "--mechanisms", "aos",
            "--fault-locations", "1", "--fault-kinds", "ptr-pac-flip",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ptr-pac-flip" in out
        assert "cells: 1" in out  # the sweep ran only the requested kind

    def test_fault_kinds_rejects_unknown(self, capsys):
        from repro.errors import FaultInjectionError

        with pytest.raises(FaultInjectionError):
            main(["faultinject", "--fault-kinds", "cosmic-ray"])

    def test_attack_quick_serial(self, capsys, tmp_path):
        matrix_path = tmp_path / "matrix.json"
        argv = [
            "attack", "--quick", "--no-supervise",
            "--matrix-out", str(matrix_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The §VII-C escape is reported by name, never a silent pass.
        assert "ahc-zero-escape vs aos" in out
        assert "known escapes" in out
        payload = json.loads(matrix_path.read_text())
        assert payload["kind"] == "scenario-matrix"
        assert payload["ok"]
        assert payload["verdicts"]["missed-detection"] == 0
        cells = {(r["scenario"], r["mechanism"]): r for r in payload["runs"]}
        assert cells[("ahc-zero-escape", "aos")]["verdict"] == "escape-confirmed"
        assert cells[("ahc-zero-escape", "pa+aos")]["observed"] == "detected"

    def test_attack_supervised_subset(self, capsys):
        argv = [
            "attack", "--scenarios", "uaf-stale-load",
            "--mechanisms", "aos", "pa+aos", "--jobs", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "supervision:" in out or "attempts" in out

    def test_attack_exits_nonzero_on_missed_detection(self, capsys, monkeypatch):
        from repro.adversary import Expectation
        from repro.adversary import scenarios as scen

        def impossible(seed=7):
            base = scen.intra_object_overflow(seed)
            return scen.ScenarioInstance(
                name=base.name, category=base.category,
                description=base.description, steps=base.steps,
                expectations={"aos": Expectation.MUST_DETECT},
                default=Expectation.KNOWN_ESCAPE, seed=seed,
            )

        monkeypatch.setitem(scen.SCENARIOS, "intra-object-overflow", impossible)
        argv = [
            "attack", "--scenarios", "intra-object-overflow",
            "--mechanisms", "aos", "--no-supervise",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "missed" in (captured.out + captured.err).lower()
