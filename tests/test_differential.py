"""Differential tests: serial, parallel and cache-replay runs agree.

The observability PR's core guarantee: turning metrics on changes *what is
recorded*, never *what is simulated* — and every execution strategy
(in-process serial, ``jobs=N`` worker pool, artifact-cache replay) yields
byte-identical results and metric snapshots at the same seed.
"""

import dataclasses
import json

from repro.compiler import lower_trace
from repro.cpu.core import Simulator
from repro.experiments import CellSpec, RunSettings, cell_fingerprint
from repro.experiments.common import ExperimentSuite, scaled_config
from repro.experiments.parallel import generate_cell_trace, run_cells, simulate_cell
from repro.obs import DEFAULT_TRACE_CAPACITY, EventTracer, Observability

PLAIN = RunSettings(instructions=4000, seed=7, scale=8)
METRICS = dataclasses.replace(PLAIN, metrics=True)

SMALL_SWEEP = [
    CellSpec(workload, mechanism)
    for workload in ("gobmk", "povray")
    for mechanism in ("baseline", "aos")
]


def payloads(results):
    return {key: dataclasses.asdict(result) for key, result in results.items()}


def canonical(snapshot):
    return json.dumps(snapshot, sort_keys=True)


class TestExecutionStrategiesAgree:
    def test_serial_vs_parallel_with_metrics(self):
        serial, _ = run_cells(METRICS, SMALL_SWEEP, jobs=1)
        parallel, _ = run_cells(METRICS, SMALL_SWEEP, jobs=2)
        assert payloads(serial) == payloads(parallel)
        # The metric snapshots themselves crossed the process boundary.
        for result in parallel.values():
            assert result.metrics["counters"]["pipeline.instructions"] > 0

    def test_simulate_cell_matches_engine_with_metrics(self):
        cell = CellSpec("gobmk", "aos")
        direct = simulate_cell(METRICS, cell)
        via_engine = run_cells(METRICS, [cell], jobs=2)[0][cell.cache_key]
        assert dataclasses.asdict(direct) == dataclasses.asdict(via_engine)

    def test_cache_replay_preserves_metrics(self, tmp_path):
        cold = ExperimentSuite(METRICS, cache=tmp_path)
        cold.ensure_cells(SMALL_SWEEP)
        reference = cold.result_payloads()

        warm = ExperimentSuite(METRICS, cache=tmp_path)
        warm.ensure_cells(SMALL_SWEEP)
        assert warm.cache.stats.hits == len(SMALL_SWEEP)
        assert warm.result_payloads() == reference
        assert canonical(warm.metrics_snapshot()) == canonical(
            cold.metrics_snapshot()
        )


class TestObservationDoesNotPerturb:
    def test_metrics_on_changes_only_the_metrics_field(self):
        cell = CellSpec("gobmk", "aos")
        plain = dataclasses.asdict(simulate_cell(PLAIN, cell))
        observed = dataclasses.asdict(simulate_cell(METRICS, cell))
        assert plain.pop("metrics") == {}
        assert observed.pop("metrics") != {}
        assert plain == observed  # cycles, stats, traffic: all identical

    def test_tracing_does_not_change_metrics(self):
        config = scaled_config("aos", PLAIN.scale)
        trace = generate_cell_trace(PLAIN, "gobmk")
        lowered = lower_trace(trace, "aos", config)
        metrics_only = Simulator(config, obs=Observability()).run(lowered)
        traced = Observability(tracer=EventTracer(DEFAULT_TRACE_CAPACITY))
        with_tracer = Simulator(config, obs=traced).run(lowered)
        assert traced.tracer.events()
        assert canonical(metrics_only.metrics) == canonical(with_tracer.metrics)

    def test_merged_snapshot_deterministic_across_suites(self):
        one = ExperimentSuite(METRICS)
        two = ExperimentSuite(METRICS, jobs=2)
        one.ensure_cells(SMALL_SWEEP)
        two.ensure_cells(SMALL_SWEEP)
        assert canonical(one.metrics_snapshot()) == canonical(
            two.metrics_snapshot()
        )

    def test_workload_filter_subsets_the_merge(self):
        suite = ExperimentSuite(METRICS)
        suite.ensure_cells(SMALL_SWEEP)
        everything = suite.metrics_snapshot()
        gobmk_only = suite.metrics_snapshot(workloads=["gobmk"])
        assert 0 < gobmk_only["counters"]["pipeline.instructions"] < (
            everything["counters"]["pipeline.instructions"]
        )


class TestObsSettingsInFingerprints:
    """The observability switch, ``RunSettings.metrics``, in cache keys."""

    def test_obs_settings_bifurcate_cache_keys(self):
        cell = CellSpec("gcc", "aos")
        assert cell_fingerprint(PLAIN, cell) != cell_fingerprint(METRICS, cell)

    def test_cell_metrics_only_lists_observed_cells(self):
        observed = ExperimentSuite(METRICS)
        observed.ensure_cells(SMALL_SWEEP[:2])
        assert len(observed.cell_metrics()) == 2

        dark = ExperimentSuite(PLAIN)
        dark.ensure_cells(SMALL_SWEEP[:2])
        assert dark.cell_metrics() == {}
