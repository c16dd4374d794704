"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

They drive ``perfbench/run.py`` as the benchmark harness does, on the
``tiny`` shape, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
WORKLOADS = ("sweeps", "campaigns")


def run(*args, cwd=ROOT):
    """Run the benchmark of the checkout at ``cwd``; returns (exit code,
    stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny(workload, seed, trace):
    args = ("--workload", workload, "--seed", str(seed), "--seconds", "0")
    code, lines = run(*args, "--trace", str(trace), "--shape", "tiny")
    return code, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, declared):
    for trace in (0, 1):
        code, _, result = tiny(workload, 7, trace)
        assert code == 0
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared[trace]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (7, 11))
def test_tiny_run_passes_the_committed_digests(workload, seed):
    code, lines, result = tiny(workload, seed, 0)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert not any(line.startswith("no committed digest") for line in lines)


def test_end_to_end_metrics_are_never_zero():
    _, _, result = tiny("campaigns", 7, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_sees_every_layer_of_its_workload():
    _, _, sweeps = tiny("sweeps", 7, 1)
    values = {name: m["value"] for name, m in sweeps["metrics"].items()}
    # Fig. 14: 16 profiles x 5 mechanisms, all simulated.  Fig. 15: 16 x 5
    # cells, of which baseline and default AOS (32) are cache reads.
    # Trace generation repeats per simulated cell.
    assert values["workloads.generate_trace.calls"] == 128
    assert values["workloads.generate_trace.unique"] == 16
    assert values["compiler.lower_trace.calls"] == 128
    assert values["cpu.simulate.calls"] == 128
    assert values["cache.get_result.calls"] == 160
    assert values["cache.get_result.hits"] == 32
    assert values["cache.put_result.calls"] == 128
    assert values["executor.cells"] == 128
    assert values["faults.cell.calls"] == 0
    assert 0.5 < values["trace.accounted_frac"] <= 1.05

    _, _, campaigns = tiny("campaigns", 7, 1)
    values = {name: m["value"] for name, m in campaigns["metrics"].items()}
    assert values["faults.cell.calls"] == 72
    assert values["adversary.cell.calls"] == 132
    assert values["cpu.simulate.calls"] == 0
    assert values["memory.malloc.calls"] > 0


def test_wrong_digest_fails_the_run(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src")
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("tests"))
    expected = json.loads((BENCH / "expected.json").read_text())
    expected["tiny"]["campaigns"]["7"] = "0" * 16
    (copy / "perfbench" / "expected.json").write_text(json.dumps(expected))
    code, lines = run(
        "--workload", "campaigns", "--seed", "7", "--seconds", "0",
        "--trace", "0", "--shape", "tiny", cwd=copy,
    )
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = run("--workload", "sweeps", "--seed", "7", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
