"""Shared infrastructure for the per-figure/per-table benchmarks.

One session-scoped :class:`ExperimentSuite` is shared by every benchmark so
each cell is computed once per session; each bench then times a
representative kernel with pytest-benchmark and regenerates its
table/figure rows, printing them and archiving them under
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.common import ExperimentSuite, RunSettings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One window size for the whole bench session; raise for sharper stats.
BENCH_SETTINGS = RunSettings(instructions=40_000, seed=7, scale=8)


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    return ExperimentSuite(BENCH_SETTINGS)


def publish(name: str, text: str) -> None:
    """Print a reproduced figure/table and archive it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
