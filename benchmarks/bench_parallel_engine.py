"""Parallel experiment engine — serial/parallel parity and cache economics.

Asserts the PR-level guarantees at benchmark scale (bit-identical results
at any ``jobs``, warm cache reruns that re-simulate nothing) and times the
cold vs cached paths for one representative sweep.
"""

import dataclasses

from conftest import publish

from repro.experiments import ArtifactCache, CellSpec
from repro.experiments import parallel as engine
from repro.experiments.common import ExperimentSuite, RunSettings
from repro.experiments.parallel import run_cells

SETTINGS = RunSettings(instructions=12_000, seed=7, scale=8)

SWEEP = [
    CellSpec(workload, mechanism)
    for workload in ("gcc", "povray", "gobmk")
    for mechanism in ("baseline", "aos")
]


def _payloads(results):
    return {key: dataclasses.asdict(value) for key, value in results.items()}


def test_parallel_engine_parity_and_cache(tmp_path, benchmark, monkeypatch):
    serial, _ = run_cells(SETTINGS, SWEEP, jobs=1)
    parallel, _ = run_cells(SETTINGS, SWEEP, jobs=2)
    assert _payloads(serial) == _payloads(parallel), "jobs must not change results"

    cache = ArtifactCache(tmp_path / "cache")
    cold = ExperimentSuite(SETTINGS, cache=cache)
    cold.ensure_cells(SWEEP)
    assert cache.stats.stores >= len(SWEEP)

    lowered = []
    real_lower_trace = engine.lower_trace

    def lower_trace(*args, **kwargs):
        lowered.append(args[1])
        return real_lower_trace(*args, **kwargs)

    monkeypatch.setattr(engine, "lower_trace", lower_trace)
    warm = ExperimentSuite(SETTINGS, cache=cache)
    warm.ensure_cells(SWEEP)
    assert warm.result_payloads() == cold.result_payloads()
    assert lowered == [], "warm rerun must not re-lower"

    lines = [
        "Parallel engine parity (jobs=1 vs jobs=2): identical payloads "
        f"over {len(SWEEP)} cells",
        f"artifact cache after cold+warm sweep: {cache.info()}",
    ]
    publish("parallel_engine", "\n".join(lines))

    # Benchmark the warm path: a fresh suite resolving the whole sweep
    # straight from disk (the economics the CI cached rerun relies on).
    def warm_rerun():
        suite = ExperimentSuite(SETTINGS, cache=ArtifactCache(tmp_path / "cache"))
        suite.ensure_cells(SWEEP)
        return suite

    result = benchmark(warm_rerun)
    assert result.cache_info()["results"] == len(SWEEP)
