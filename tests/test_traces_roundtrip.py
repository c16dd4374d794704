"""Round-trip and differential tests for the trace frontend (ISSUE 9).

The package contract: ``simulate(generate(p))`` and
``simulate(import(record(generate(p))))`` are byte-identical — for every
one of the 22 calibrated profiles, on both kernels.
Trace-level dataclass equality is checked first (it is the mechanism that
*makes* the results identical: ``lower_trace`` is deterministic given an
equal ``WorkloadTrace``), then the simulation results themselves are
compared field-for-field via ``dataclasses.asdict``.
"""

import dataclasses
import json

import pytest

from repro.adversary import compile_scenario, export_scenario
from repro.compiler import lower_trace
from repro.cpu.core import Simulator
from repro.experiments.common import scaled_config
from repro.kernel import KERNELS
from repro.traces import export_workload, import_trace, record_trace, trace_digest
from repro.workloads import (
    REALWORLD_PROFILES,
    SPEC2006_PROFILES,
    generate_trace,
    get_profile,
)

ALL_PROFILES = sorted({**SPEC2006_PROFILES, **REALWORLD_PROFILES})

#: Small-but-valid window: the generator refuses anything under 1000
#: events, and scale 16 keeps the biggest preambles (gcc) cheap to lower.
WINDOW = dict(instructions=1200, seed=7, scale=16)


def _simulate(trace, kernel, mechanism="aos"):
    config = scaled_config(mechanism, trace.scale)
    lowered = lower_trace(trace, mechanism, config=config)
    return Simulator(config, kernel=kernel).run(lowered)


@pytest.mark.parametrize("workload", ALL_PROFILES)
def test_roundtrip_byte_identical_all_profiles(workload, tmp_path):
    """generate -> export -> import == generate, and the simulation
    results match byte-for-byte on both kernels."""
    trace = generate_trace(get_profile(workload), **WINDOW)
    path = tmp_path / f"{workload}.jsonl"
    record_trace(trace, path)
    imported = import_trace(path)
    # Dataclass equality covers profile, preamble, events, sizes,
    # scale, seed and mispredict rate — the full lowering input.
    assert imported == trace
    for kernel in KERNELS:
        direct = _simulate(trace, kernel)
        ingested = _simulate(imported, kernel)
        assert dataclasses.asdict(ingested) == dataclasses.asdict(direct), (
            workload,
            kernel,
        )


def test_export_workload_embeds_provenance(tmp_path):
    path = tmp_path / "gcc.jsonl"
    trace = export_workload("gcc", path, **WINDOW)
    from repro.traces import read_header

    header = read_header(path)
    assert header.generator == {
        "source": "synthetic",
        "workload": "gcc",
        "instructions": WINDOW["instructions"],
        "seed": WINDOW["seed"],
        "scale": WINDOW["scale"],
    }
    assert header.profile is not None
    assert import_trace(path) == trace


def test_digest_is_format_and_content_sensitive(tmp_path):
    """The cache key digest changes with any byte: the same trace laid out
    in non-canonical JSON, or another seed."""
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "c.jsonl"
    export_workload("bzip2", a, **WINDOW)
    lines = a.read_text().splitlines()
    b.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines))
    assert import_trace(b) == import_trace(a)
    export_workload("bzip2", c, **{**WINDOW, "seed": 8})
    digests = {trace_digest(a), trace_digest(b), trace_digest(c)}
    assert len(digests) == 3
    # ... but re-exporting identical settings reproduces the same bytes.
    a2 = tmp_path / "a2.jsonl"
    export_workload("bzip2", a2, **WINDOW)
    assert trace_digest(a2) == trace_digest(a)


@pytest.mark.parametrize("scenario", ["uaf-stale-load", "heap-overflow-adjacent"])
def test_scenario_export_reimports_identically(scenario, tmp_path):
    """Attack traces (UAF/OOB accesses) survive the schema unchanged: the
    exported scenario re-ingests equal and simulates byte-identically to
    the direct compile_scenario path, validation faults included."""
    path = tmp_path / f"{scenario}.jsonl"
    trace = export_scenario(scenario, path)
    imported = import_trace(path)
    assert imported == trace
    config = scaled_config("aos", trace.scale)
    direct_lowered = compile_scenario(scenario, "aos", config=config)
    for kernel in KERNELS:
        direct = Simulator(config, kernel=kernel).run(direct_lowered)
        ingested = Simulator(config, kernel=kernel).run(
            lower_trace(imported, "aos", config=config)
        )
        assert dataclasses.asdict(ingested) == dataclasses.asdict(direct)


def test_suite_ingestion_matches_direct_simulation(tmp_path):
    """ExperimentSuite.result() over an ingested trace equals simulating
    the regenerated synthetic source directly, and caches by digest."""
    from repro.experiments import ExperimentSuite, RunSettings

    path = tmp_path / "bzip2.trace.jsonl"
    trace = export_workload("bzip2", path, **WINDOW)
    suite = ExperimentSuite(
        RunSettings(instructions=WINDOW["instructions"], seed=7, scale=8),
        cache=None,
    )
    name = suite.ingest_trace(path)
    assert name == "trace:bzip2.trace"
    result = suite.result(name, "aos")
    # The suite must honour the *trace's* scale (16), not settings.scale.
    direct = _simulate(trace, "fast")
    assert dataclasses.asdict(result) == dataclasses.asdict(direct)
