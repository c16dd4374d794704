"""Golden schema pin for ``BENCH_kernel.json`` and the ``--check`` gate.

The committed benchmark report is CI's perf-trajectory artifact: the
kernel-smoke job uploads it and compares fresh runs against it.  Its
schema (``repro/bench-kernel/v3``) is therefore a contract — these tests
pin the committed file's shape and prove ``tools/bench_kernel.py --check``
exits 2 on any drift or floor violation *without* re-running the bench.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
REPORT = REPO / "BENCH_kernel.json"
TOOL = REPO / "tools" / "bench_kernel.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_kernel", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


@pytest.fixture()
def report():
    return json.loads(REPORT.read_text())


# ------------------------------------------------------------- golden schema


def test_committed_report_schema(report, tool):
    assert report["schema"] == tool.SCHEMA == "repro/bench-kernel/v3"
    for key in ("host", "settings", "cells", "aggregate"):
        assert key in report
    assert report["settings"]["kernels"] == ["reference", "fast"]
    grid = {(c["workload"], c["mechanism"]) for c in report["cells"]}
    assert grid == {
        (w, m)
        for w in tool.DEFAULT_WORKLOADS
        for m in tool.DEFAULT_MECHANISMS
    }
    for cell in report["cells"]:
        for key in tool._CELL_KEYS:
            assert key in cell, f"cell missing {key}"
        assert cell["reference_s"] > 0
        assert cell["fast_speedup"] > 0


def test_committed_report_passes_check(report, tool):
    assert tool.check_report(REPORT, min_speedup=2.0) == 0


def test_committed_aggregates_meet_floors(report):
    """The committed trajectory: the fast kernel holds the 2x floor."""
    aggregate = report["aggregate"]
    assert aggregate["fast_speedup"] >= 2.0
    # v1 compatibility alias (old --against baselines resolve against it).
    assert report["aggregate_speedup"] == aggregate["fast_speedup"]


# ------------------------------------------------------------- check drifts


def _mutated(tmp_path, report, mutate) -> Path:
    mutate(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return path


def test_check_rejects_schema_drift(tmp_path, report, tool):
    path = _mutated(tmp_path, report,
                    lambda r: r.update(schema="repro/bench-kernel/v1"))
    assert tool.check_report(path, 2.0) == 2


def test_check_rejects_missing_top_level_key(tmp_path, report, tool):
    path = _mutated(tmp_path, report, lambda r: r.pop("aggregate"))
    assert tool.check_report(path, 2.0) == 2


def test_check_rejects_malformed_cells(tmp_path, report, tool):
    path = _mutated(tmp_path, report,
                    lambda r: r["cells"][0].pop("fast_speedup"))
    assert tool.check_report(path, 2.0) == 2
    path = _mutated(tmp_path, report, lambda r: r.update(cells=[]))
    assert tool.check_report(path, 2.0) == 2


def test_check_rejects_floor_violation(tmp_path, report, tool):
    path = _mutated(
        tmp_path, report,
        lambda r: r["aggregate"].update(fast_speedup=1.2),
    )
    assert tool.check_report(path, 2.0) == 2


def test_check_rejects_unreadable_report(tmp_path, tool):
    missing = tmp_path / "nope.json"
    assert tool.check_report(missing, 2.0) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert tool.check_report(garbage, 2.0) == 2


# -------------------------------------------------------------- CLI contract


def test_cli_check_exit_codes(tmp_path, report):
    """The CI surface: ``--check`` exits 0 on the committed report and 2 on
    a drifted copy, without running any simulation."""
    ok = subprocess.run(
        [sys.executable, str(TOOL), "--check", str(REPORT)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "check ok" in ok.stdout
    report["schema"] = "repro/bench-kernel/v0"
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(report))
    bad = subprocess.run(
        [sys.executable, str(TOOL), "--check", str(drifted)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert bad.returncode == 2
    assert "CHECK FAIL" in bad.stdout
