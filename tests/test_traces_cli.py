"""CLI tests for the trace frontend: trace-export / trace-import / --trace."""

import pytest

from repro.cli import main


@pytest.fixture
def exported(tmp_path):
    """A small synthetic export (path, workload) ready to re-ingest."""
    path = tmp_path / "bzip2.trace.jsonl"
    code = main([
        "trace-export", "bzip2", "--instructions", "1200",
        "--trace-file", str(path),
    ])
    assert code == 0
    return path


class TestTraceExport:
    def test_writes_announced_file(self, tmp_path, capsys):
        path = tmp_path / "bzip2.trace.jsonl"
        assert main([
            "trace-export", "bzip2", "--instructions", "1200",
            "--trace-file", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert path.exists()
        assert "exported bzip2" in out
        assert "sha256:" in out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["trace-export", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestTraceImport:
    def test_simulates_and_verifies_roundtrip(self, exported, capsys):
        code = main([
            "trace-import", str(exported), "--instructions", "1200",
            "--no-cache", "--verify-roundtrip",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "schema v1" in out
        assert "simulated trace:bzip2.trace under aos" in out
        assert "result-digest:" in out
        assert "round-trip: byte-identical" in out

    def test_second_run_hits_cache(self, exported, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["trace-import", str(exported)] + cache) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first
        assert main(["trace-import", str(exported)] + cache) == 0
        second = capsys.readouterr().out
        assert "2 hits, 0 misses" in second
        # Determinism across runs: identical result digests.
        digest = [
            line for line in first.splitlines()
            if line.startswith("result-digest")
        ]
        assert digest == [
            line for line in second.splitlines()
            if line.startswith("result-digest")
        ]

    def test_missing_file_exits_2(self, capsys):
        assert main(["trace-import", "/nonexistent/t.jsonl"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_missing_argument_exits_2(self, capsys):
        assert main(["trace-import"]) == 2
        assert "requires a trace file" in capsys.readouterr().err

    def test_malformed_file_exits_2_with_named_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format":"repro-trace","schema_version":99}\n')
        assert main(["trace-import", str(path), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "TraceVersionError" in err

    def test_verify_roundtrip_needs_provenance(self, tmp_path, capsys):
        from repro.traces import TraceHeader, TraceRecord, TraceWriter

        path = tmp_path / "external.jsonl"
        with TraceWriter(path, TraceHeader(name="ext")) as writer:
            writer.write(TraceRecord(kind="obj", obj=0, size=64))
            writer.write(TraceRecord(kind="load", obj=0, offset=0))
        code = main([
            "trace-import", str(path), "--no-cache", "--verify-roundtrip",
        ])
        assert code == 2
        assert "provenance" in capsys.readouterr().err


class TestTraceFlagOnTimingArtifacts:
    def test_fig14_over_ingested_trace(self, exported, capsys):
        code = main([
            "fig14", "--trace", str(exported),
            "--instructions", "1200", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested trace" in out
        assert "trace:bzip2.trace" in out

    def test_bad_trace_flag_exits_2(self, capsys):
        assert main([
            "fig14", "--trace", "/nonexistent/t.jsonl", "--no-cache",
        ]) == 2
        assert "no such trace file" in capsys.readouterr().err


def test_all_excludes_operational_artifacts():
    """`all` must skip the file-writing / exit-code-owning faces; this
    pins the exclusion list so new operational artifacts cannot silently
    break `python -m repro all` again (serve once did)."""
    from repro.cli import ARTIFACTS, OPERATIONAL_ARTIFACTS, run_artifact

    assert OPERATIONAL_ARTIFACTS <= set(ARTIFACTS)
    swept = [n for n in ARTIFACTS if n not in OPERATIONAL_ARTIFACTS]
    # Every swept artifact must be one run_artifact can dispatch — the
    # operational ones raise ValueError there, which is the bug class.
    import inspect

    source = inspect.getsource(run_artifact)
    for name in swept:
        assert f'"{name}"' in source, f"all would crash on {name!r}"
