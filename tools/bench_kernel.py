"""Kernel perf-regression gate: time reference vs fast on a fixed sweep.

Runs the same lowered workloads through both simulation kernels
(``repro.kernel``), taking the minimum of ``--repeats`` timings per cell
(min-of-N discards scheduler noise, so the gate tracks the code, not the
machine).  Each timing is a batch of back-to-back runs lasting at least
:data:`MIN_TIMING_S`, divided by its run count: a fast cell takes only a
few milliseconds, where a single run is mostly timer and scheduler
noise.  The two kernels' batches alternate, so a slow spell of the host
weighs on both sides of the ratio.  The tool verifies the results are
byte-identical while it is at it, and writes a machine-readable
``BENCH_kernel.json`` (schema ``repro/bench-kernel/v3``).

Gates, all machine-independent because they compare ratios:

- **floor**: the aggregate fast/reference speedup must be at least
  ``--min-speedup`` (default 2.0x — the fast kernel's reason to exist);
- **trend**: with ``--against BENCH_kernel.json`` (the committed baseline),
  the aggregate speedup may not regress by more than ``--tolerance``
  (default 10 %) relative to the committed value;
- **schema**: ``--check`` validates a committed report *without timing
  anything* — schema identifier, required keys, cell shape, and the
  recorded floor — and exits 2 on any drift.

Usage::

    python tools/bench_kernel.py --quick --against BENCH_kernel.json
    python tools/bench_kernel.py --output BENCH_kernel.json  # refresh baseline
    python tools/bench_kernel.py --check BENCH_kernel.json   # schema gate only
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cpu.core import Simulator  # noqa: E402
from repro.compiler import lower_trace  # noqa: E402
from repro.experiments.common import scaled_config, _result_to_payload  # noqa: E402
from repro.kernel import KERNELS  # noqa: E402
from repro.workloads import generate_trace, get_profile  # noqa: E402

#: Cheap but behaviourally distinct cells; gcc is the paper's worst-case
#: AOS workload (most table pressure), povray/gobmk differ in branchiness
#: and allocation churn.
DEFAULT_WORKLOADS = ["gcc", "povray", "gobmk"]
DEFAULT_MECHANISMS = ["baseline", "aos"]

SEED = 7
SCALE = 8

SCHEMA = "repro/bench-kernel/v3"

#: The least wall-clock one timing covers (a batch of runs of one cell).
MIN_TIMING_S = 0.25

#: ``--check`` contract: these keys must exist with these shapes.
_CELL_KEYS = ("workload", "mechanism", "reference_s", "fast_s", "fast_speedup")
_AGGREGATE_KEYS = ("fast_speedup",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_kernel",
        description="Time the fast simulation kernel against the reference.",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=20_000,
        help="window length per workload (default 20000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timings per (cell, kernel); the minimum is kept (default 3)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI shape: 8000 instructions, 2 repeats",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=DEFAULT_WORKLOADS,
        help=f"workloads to time (default {' '.join(DEFAULT_WORKLOADS)})",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="gate: minimum aggregate fast speedup (default 2.0)",
    )
    parser.add_argument(
        "--against",
        type=Path,
        default=None,
        help="committed BENCH_kernel.json to compare the speedup trend against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="gate: maximum relative speedup regression vs --against (default 0.10)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_kernel.json"),
        help="report path (default BENCH_kernel.json)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="REPORT",
        help="validate an existing report's schema and recorded floors "
        "(no timing); exits 2 on drift",
    )
    return parser


def check_report(path: Path, min_speedup: float) -> int:
    """Validate a committed report without re-running anything.

    Exits non-zero on: unreadable file, schema identifier drift, missing
    keys, malformed cells, or a recorded aggregate speedup below the floor.
    """
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"CHECK FAIL: cannot read {path}: {exc}")
        return 2
    problems: List[str] = []
    schema = report.get("schema")
    if schema != SCHEMA:
        problems.append(f"schema is {schema!r}, expected {SCHEMA!r}")
    for key in ("host", "settings", "cells", "aggregate"):
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells must be a non-empty list")
    else:
        for i, cell in enumerate(cells):
            missing = [k for k in _CELL_KEYS if k not in cell]
            if missing:
                problems.append(f"cell[{i}] missing keys {missing}")
    aggregate = report.get("aggregate", {})
    for key in _AGGREGATE_KEYS:
        value = aggregate.get(key)
        if not isinstance(value, (int, float)):
            problems.append(f"aggregate.{key} missing or non-numeric")
        elif value < min_speedup:
            problems.append(
                f"aggregate.{key} {value:.2f}x below the {min_speedup:.2f}x floor"
            )
    if problems:
        for problem in problems:
            print(f"CHECK FAIL: {problem}")
        return 2
    print(
        f"check ok: {path} schema {SCHEMA}, {len(cells)} cells, "
        f"aggregate {aggregate['fast_speedup']:.2f}x fast"
    )
    return 0


def batch_size(run: Callable[[], object]) -> int:
    """How many back-to-back ``run()`` calls last ``MIN_TIMING_S``, from
    one (warm-up) call."""
    start = time.perf_counter()
    run()
    return max(1, math.ceil(MIN_TIMING_S / (time.perf_counter() - start)))


def per_run_s(run: Callable[[], object], number: int) -> float:
    """Seconds per call over one batch of ``number`` calls, with the
    garbage collector off, as in ``timeit``."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(number):
            run()
        return (time.perf_counter() - start) / number
    finally:
        gc.enable()


def time_cell(workload: str, mechanism: str, instructions: int, repeats: int) -> Dict:
    """Min-of-N seconds per run for each kernel on one (workload, mechanism)
    cell.  The kernels' batches alternate, so both see the same machine."""
    config = scaled_config(mechanism, SCALE)
    trace = generate_trace(
        get_profile(workload), instructions=instructions, seed=SEED, scale=SCALE
    )
    lowered = lower_trace(trace, mechanism, config=config)
    runs = {
        kernel: partial(Simulator(config, kernel=kernel).run, lowered)
        for kernel in KERNELS
    }
    numbers = {kernel: batch_size(run) for kernel, run in runs.items()}
    timings = dict.fromkeys(KERNELS, float("inf"))
    for _ in range(repeats):
        for kernel, run in runs.items():
            timings[kernel] = min(timings[kernel], per_run_s(run, numbers[kernel]))
    payloads = {
        kernel: json.dumps(_result_to_payload(run()), sort_keys=True)
        for kernel, run in runs.items()
    }
    if payloads["fast"] != payloads["reference"]:
        raise SystemExit(
            f"FATAL: fast kernel divergence on {workload}/{mechanism} — "
            "run tests/test_kernel_equivalence.py"
        )
    return {
        "workload": workload,
        "mechanism": mechanism,
        "reference_s": round(timings["reference"], 6),
        "fast_s": round(timings["fast"], 6),
        "fast_speedup": round(timings["reference"] / timings["fast"], 4),
    }


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check is not None:
        return check_report(args.check, args.min_speedup)
    if args.quick:
        args.instructions = min(args.instructions, 8000)
        args.repeats = min(args.repeats, 2)

    cells = []
    for workload in args.workloads:
        for mechanism in DEFAULT_MECHANISMS:
            cell = time_cell(workload, mechanism, args.instructions, args.repeats)
            cells.append(cell)
            print(
                f"{workload:>8}/{mechanism:<8}"
                f" reference {cell['reference_s']:.3f}s"
                f"  fast {cell['fast_s']:.3f}s ({cell['fast_speedup']:.2f}x)"
            )

    # Aggregate over total time, not mean-of-ratios: that is what a full
    # sweep actually pays.
    total_reference = sum(c["reference_s"] for c in cells)
    total_fast = sum(c["fast_s"] for c in cells)
    aggregate = {"fast_speedup": round(total_reference / total_fast, 4)}

    report = {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "settings": {
            "instructions": args.instructions,
            "repeats": args.repeats,
            "seed": SEED,
            "scale": SCALE,
            "workloads": list(args.workloads),
            "mechanisms": list(DEFAULT_MECHANISMS),
            "kernels": list(KERNELS),
        },
        "cells": cells,
        "aggregate": aggregate,
        # v1 compatibility: the fast-kernel aggregate under its old name,
        # so an old --against baseline still resolves.
        "aggregate_speedup": aggregate["fast_speedup"],
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\naggregate: fast {aggregate['fast_speedup']:.2f}x -> {args.output}")

    status = 0
    if aggregate["fast_speedup"] < args.min_speedup:
        print(
            f"GATE FAIL: aggregate fast speedup {aggregate['fast_speedup']:.2f}x "
            f"below the {args.min_speedup:.2f}x floor"
        )
        status = 2
    if args.against is not None and args.against.exists():
        committed = json.loads(args.against.read_text())
        committed_aggregate = committed.get("aggregate")
        if committed_aggregate is None:  # v1 baseline: fast leg only
            committed_aggregate = {"fast_speedup": committed["aggregate_speedup"]}
        committed_instructions = committed.get("settings", {}).get("instructions")
        if committed_instructions != args.instructions:
            # Speedups are shape-dependent (fixed per-run overhead weighs
            # more in short windows), so a trend comparison across shapes
            # would gate on the shape, not the code.
            print(
                f"trend skipped: shape mismatch (committed "
                f"{committed_instructions} instructions, measured "
                f"{args.instructions})"
            )
            committed_aggregate = {}
        for leg, measured in aggregate.items():
            if leg not in committed_aggregate:
                continue
            floor = committed_aggregate[leg] * (1.0 - args.tolerance)
            verdict = "ok" if measured >= floor else "REGRESSION"
            print(
                f"trend[{leg}] vs {args.against}: committed "
                f"{committed_aggregate[leg]:.2f}x, measured {measured:.2f}x, "
                f"floor {floor:.2f}x -> {verdict}"
            )
            if measured < floor:
                print(
                    f"GATE FAIL: {leg} regressed more than "
                    f"{args.tolerance:.0%} vs the committed baseline"
                )
                status = 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
