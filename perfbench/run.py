#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweeps --seed 7 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then repeats the workload's timed unit until ``--seconds`` have
passed (at least three times) and reports end-to-end medians.  ``--trace 1``
sets up once, runs one untraced unit and one traced unit of the same
inputs, and reports the per-layer metrics of the traced one.  Both check
every unit's output against the digests committed in ``expected.json``
(or, for a seed without one, against the other units of the run).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when the output is correct, 1 when it is not, and 2 when the program
cannot be imported.  ``--record`` instead writes the digests of one unit
into ``expected.json``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 5
MIN_UNITS = 3
HASH_SEED = "0"
#: Start no further unit past this many seconds (the run must end in 180).
DEADLINE_S = 140.0

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

LAYERS = (
    "generation",
    "lowering",
    "hbt_prewarm",
    "simulate",
    "cache_io",
    "functional",
    "cell_glue",
    "executor_overhead",
)


def _per_layer_units() -> dict:
    from repro.adversary import VERDICTS
    from repro.faults import RunOutcome

    units = {
        "sim_ips": "inst/s",
        "paper_err_pct": "%",
        "fail_frac": "ratio",
        "workloads.generate_trace.calls": "count",
        "workloads.generate_trace.busy_s": "s",
        "workloads.generate_trace.unique": "count",
        "workloads.generate_trace.useful_ratio": "ratio",
        "compiler.lower_trace.calls": "count",
        "compiler.lower_trace.busy_s": "s",
        "compiler.lower_trace.self_s": "s",
        "memory.malloc.calls": "count",
        "memory.malloc.busy_s": "s",
        "core.signing.pacma_batch.calls": "count",
        "core.signing.pacma_batch.busy_s": "s",
        "core.signing.pacma_batch.unique": "count",
        "core.signing.pacma_batch.useful_ratio": "ratio",
        "core.hbt.prewarm.calls": "count",
        "core.hbt.prewarm.busy_s": "s",
        "core.hbt.insert.calls": "count",
        "core.hbt.insert.busy_s": "s",
        "core.hbt.clone.calls": "count",
        "core.hbt.clone.busy_s": "s",
        "cpu.simulate.calls": "count",
        "cpu.simulate.busy_s": "s",
        "cpu.simulate.self_s": "s",
        "cpu.simulate.ns_per_inst": "ns/inst",
        "cache.get_result.calls": "count",
        "cache.get_result.hits": "count",
        "cache.get_result.busy_s": "s",
        "cache.hit_ratio": "ratio",
        "cache.put_result.calls": "count",
        "cache.put_result.bytes": "B",
        "cache.put_result.busy_s": "s",
        "cache.get_trace.calls": "count",
        "executor.wall_s": "s",
        "executor.cells": "count",
        "executor.cell_busy_s": "s",
        "executor.overhead_s": "s",
        "executor.busy_frac": "ratio",
        "executor.tail_s": "s",
        "supervise.retries": "count",
        "supervise.quarantined": "count",
        "faults.cell.calls": "count",
        "faults.cell.busy_s": "s",
    }
    units.update({f"faults.outcome.{o.value}": "count" for o in RunOutcome})
    units.update({"adversary.cell.calls": "count", "adversary.cell.busy_s": "s"})
    units.update({f"adversary.verdict.{v}": "count" for v in VERDICTS})
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update(
        {
            "trace.wall_s": "s",
            "trace.overhead_frac": "ratio",
            "trace.accounted_frac": "ratio",
        }
    )
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweeps", "campaigns"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape",
        choices=("full", "tiny"),
        default="full",
        help="input size: 'full' is the benchmark, 'tiny' is for its tests",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="run one unit and store its output digests in expected.json",
    )
    return parser.parse_args(argv)


# ------------------------------------------------------------------ running


def set_up(workload, ctx, repeats: int):
    """Import probe in a fresh interpreter plus the workload's preparation,
    ``repeats`` times; returns (median seconds, prepared state)."""
    import sweeps

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    code = f"import sweeps; sweeps.load_program({workload.modules!r})"
    times, state = [], None
    for _ in range(repeats):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        sweeps.load_program(workload.modules)
        state = workload.prepare(ctx)
        times.append(time.monotonic() - start)
    return statistics.median(times), state


def run_unit(workload, ctx, state, problems: list):
    """One unit; a unit that raises counts every one of its cells failed."""
    from sweeps import Unit

    try:
        return workload.run_unit(ctx, state)
    except Exception:
        traceback.print_exc()
        problems.append(f"{workload.name} unit raised")
        return Unit(wall_s=0.0, cells=0, failed=workload.expected_cells(ctx))


def check_digests(units, expected: dict, problems: list) -> None:
    """Count a unit's cells failed when its output differs from the
    committed digest, or, for seeds without one, from the other units."""
    seen: dict = {}
    for unit in units:
        for seed, value in unit.digests.items():
            want = expected.get(str(seed))
            if want is not None and value != want:
                problems.append(f"seed {seed}: digest {value} != committed {want}")
                unit.failed = max(unit.failed, unit.cells)
            seen.setdefault(seed, set()).add(value)
    for seed, values in seen.items():
        if len(values) > 1:
            problems.append(f"seed {seed}: units disagree ({sorted(values)})")
            for unit in units:
                unit.failed = max(unit.failed, unit.cells)
    unchecked = sorted(seed for seed in seen if str(seed) not in expected)
    if unchecked:
        print(
            f"no committed digest for seed(s) {unchecked}: "
            "checked for agreement between units only"
        )


def rss_peak_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end_metrics(units, setup_s: float) -> dict:
    # A unit that raised delivered nothing and has no time to report.
    timed = [u for u in units if u.cells]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": median(u.wall_s for u in timed),
        "cells_per_s": median(u.cells / u.wall_s for u in timed),
        "setup_s": setup_s,
        "rss_peak_mb": rss_peak_mb(),
    }


def per_layer_metrics(spans, base, traced, jobs: int) -> dict:
    """Per-layer figures of the traced unit (``base``: the untraced one)."""

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "sim_ips": ratio(base.instructions, base.wall_s),
        "paper_err_pct": base.extra.get("paper_err_pct", 0.0),
        "fail_frac": ratio(base.failed + traced.failed, base.cells + traced.cells),
    }
    for metric, span in (
        ("workloads.generate_trace", "generate_trace"),
        ("compiler.lower_trace", "lower_trace"),
        ("memory.malloc", "malloc"),
        ("core.signing.pacma_batch", "pacma_batch"),
        ("core.hbt.prewarm", "hbt_prewarm"),
        ("core.hbt.insert", "hbt_insert"),
        ("core.hbt.clone", "hbt_clone"),
        ("cpu.simulate", "simulate"),
        ("cache.get_result", "get_result"),
        ("cache.put_result", "put_result"),
        ("faults.cell", "fault_cell"),
        ("adversary.cell", "scenario_cell"),
    ):
        metrics[f"{metric}.calls"] = spans.calls(span)
        metrics[f"{metric}.busy_s"] = spans.busy(span)
    for metric, span in (
        ("workloads.generate_trace", "generate_trace"),
        ("core.signing.pacma_batch", "pacma_batch"),
    ):
        metrics[f"{metric}.unique"] = spans.unique(span)
        metrics[f"{metric}.useful_ratio"] = ratio(spans.unique(span), spans.calls(span))
    metrics["compiler.lower_trace.self_s"] = spans.self_time("lower_trace")
    metrics["cpu.simulate.self_s"] = spans.self_time("simulate")
    metrics["cpu.simulate.ns_per_inst"] = 1e9 * ratio(
        spans.self_time("simulate"), spans.counters.get("instructions", 0)
    )
    hits = spans.counters.get("get_result.hits", 0)
    metrics["cache.get_result.hits"] = hits
    metrics["cache.hit_ratio"] = ratio(hits, spans.calls("get_result"))
    metrics["cache.put_result.bytes"] = spans.counters.get("put_result.bytes", 0)
    metrics["cache.get_trace.calls"] = spans.calls("get_trace")
    executor = spans.executor(jobs)
    metrics.update({f"executor.{key}": value for key, value in executor.items()})
    metrics["supervise.retries"] = spans.counters.get("supervise.retries", 0)
    metrics["supervise.quarantined"] = spans.counters.get("supervise.quarantined", 0)
    for key in _per_layer_units():
        if key.startswith(("faults.outcome.", "adversary.verdict.")):
            metrics[key] = traced.extra.get(key, 0)

    layers = {layer: spans.layers.get(layer, 0.0) for layer in LAYERS}
    layers["executor_overhead"] = executor["overhead_s"]
    metrics.update({f"layer.{layer}.self_s": value for layer, value in layers.items()})
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_frac"] = ratio(traced.wall_s, base.wall_s) - 1.0
    metrics["trace.accounted_frac"] = ratio(sum(layers.values()), traced.wall_s * jobs)
    return metrics


def measure(args, workload, ctx, expected, problems):
    """Returns (units, metrics) for the requested mode."""
    if args.trace:
        import spans as spans_mod

        _, state = set_up(workload, ctx, repeats=1)
        base = run_unit(workload, ctx, state, problems)
        tracer = spans_mod.Tracer(ctx.workdir / "spool")
        spans_mod.instrument(tracer)
        tracer.start()
        try:
            traced = run_unit(workload, ctx, state, problems)
        finally:
            tracer.stop()
        units = [base, traced]
        check_digests(units, expected, problems)
        metrics = per_layer_metrics(tracer.collect(), base, traced, ctx.jobs)
        return units, metrics

    started = time.monotonic()
    setup_s, state = set_up(workload, ctx, repeats=SETUP_REPEATS)
    units = []
    measuring = time.monotonic()
    while len(units) < MIN_UNITS or time.monotonic() - measuring < args.seconds:
        if units and time.monotonic() - started + units[-1].wall_s > DEADLINE_S:
            break
        units.append(run_unit(workload, ctx, state, problems))
    check_digests(units, expected, problems)
    return units, end_to_end_metrics(units, setup_s)


def load_expected() -> dict:
    """shape -> workload -> seed -> digest of the committed outputs."""
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def record(args, workload, ctx) -> int:
    _, state = set_up(workload, ctx, repeats=1)
    problems: list = []
    unit = run_unit(workload, ctx, state, problems)
    if problems or unit.failed:
        print(f"not recording: {problems or unit.failed}", file=sys.stderr)
        return 1
    table = load_expected()
    entry = table.setdefault(args.shape, {}).setdefault(workload.name, {})
    entry.update({str(seed): value for seed, value in unit.digests.items()})
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload.name} {args.shape}: {unit.digests}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and with it dict layout:
        # fig14 runs fell into two speed modes 20 % apart.  Run every
        # process of the benchmark with one fixed hash seed instead.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from outside {SRC}", file=sys.stderr)
        return 2
    import sweeps

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # Keep everything the program writes (supervisor heartbeat boards,
    # default caches) inside the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "repro-cache")
    tempfile.tempdir = str(workdir / "tmp")
    try:
        workload = sweeps.WORKLOADS[args.workload]
        jobs = len(os.sched_getaffinity(0))
        ctx = sweeps.Context(sweeps.SHAPES[args.shape], args.seed, jobs, workdir)
        if args.record:
            return record(args, workload, ctx)
        expected = load_expected().get(args.shape, {}).get(workload.name, {})
        problems: list = []
        units, values = measure(args, workload, ctx, expected, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for index, unit in enumerate(units, 1):
        print(
            f"{workload.name} unit {index}: {unit.wall_s:.3f} s, {unit.cells} cells, "
            f"{unit.failed} failed, digests {unit.digests}"
        )
    problems.extend(p for unit in units for p in unit.problems)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    attempted = sum(workload.expected_cells(ctx) for _ in units)
    failed = sum(unit.failed for unit in units)
    correct = not problems and failed == 0
    declared = END_TO_END if not args.trace else _per_layer_units()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit_name}
            for name, unit_name in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
