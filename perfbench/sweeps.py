"""The benchmark's two workloads, driven through the program's public API.

Each workload has a ``prepare`` step (the set-up, timed as ``setup_s``) and
a ``run_unit`` step: one repetition of the timed work.  A unit builds its
inputs from the workload seed only, runs with the program's defaults (no
kernel, batch or supervision override) and returns the cells it delivered,
the cells that failed, and a digest of its deterministic output for the
correctness gate.

- ``sweeps``: the Fig. 14 sweep on a fresh, empty artifact cache, then the
  Fig. 15 ablation on that cache, which already holds the cells it shares
  with Fig. 14.
- ``campaigns``: the default fault-injection campaign and the supervised
  adversary corpus over every registered mechanism, for a run of
  consecutive seeds.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

clock = time.monotonic


@dataclass(frozen=True)
class Shape:
    """Input size of every workload."""

    instructions: int
    scale: int
    #: Consecutive seeds one ``campaigns`` unit sweeps.
    campaign_seeds: int


SHAPES = {
    # The shape of BENCH_kernel.json and the ROADMAP's per-cell numbers.
    # Six campaign seeds per unit average out how much work a seed makes.
    "full": Shape(instructions=20_000, scale=8, campaign_seeds=6),
    # For the benchmark's own tests: every workload in a few seconds.
    "tiny": Shape(instructions=1_000, scale=64, campaign_seeds=1),
}


@dataclass
class Unit:
    """One timed repetition of a workload."""

    wall_s: float
    #: Cells delivered: simulated, read from the cache, or classified.
    cells: int
    failed: int
    #: Instructions of the cells simulated in this unit.
    instructions: int = 0
    #: Digest of the deterministic output, per seed.
    digests: Dict[int, str] = field(default_factory=dict)
    #: Workload-specific figures (paper error, outcome and verdict counts).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Broken invariants; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)


def load_program(modules) -> None:
    """Import ``modules`` and load the mechanism registry, which the
    program otherwise loads lazily on its first cache key or campaign."""
    for module in modules:
        importlib.import_module(module)
    from repro.mechanisms import REGISTRY

    REGISTRY.names()


def digest(payload) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def suite_digest(suite) -> str:
    """Digest of the sorted ``result_payloads()`` of a suite."""
    return digest([[list(key), value] for key, value in suite.result_payloads().items()])


class Context:
    """What every workload needs: settings, worker count, a scratch area."""

    def __init__(self, shape: Shape, seed: int, jobs: int, workdir: Path) -> None:
        from repro.experiments import RunSettings

        self.shape = shape
        self.seed = seed
        self.jobs = jobs
        self.workdir = workdir
        self.settings = RunSettings(
            instructions=shape.instructions, seed=seed, scale=shape.scale
        )
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"cache-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path


# ---------------------------------------------------------------- sweeps


class Sweeps:
    """``repro fig14`` then ``repro fig15`` on one artifact cache.

    Fig. 14 runs on a fresh, empty cache, so every cell is generated,
    lowered and simulated, and the cache only writes.  Fig. 15 then opens
    the same cache from a new suite, as a second command would: the 32
    cells it shares with Fig. 14 are cache reads, the other 48 are AOS
    lowerings of one trace per profile that differ only in L1-B and
    compression.
    """

    name = "sweeps"
    modules = ("repro.experiments.fig14", "repro.experiments.fig15")
    #: Fig. 15 memo keys whose cells Fig. 14 computes too.
    shared_keys = ("baseline", "aos-l1b+compression")

    def fig14_cells(self) -> int:
        from repro.experiments.common import MECHANISMS, SPEC_WORKLOADS

        return len(SPEC_WORKLOADS) * len(MECHANISMS)

    def fig15_cells(self) -> int:
        from repro.experiments import SPEC_WORKLOADS
        from repro.experiments.fig15 import VARIANTS

        return len(SPEC_WORKLOADS) * (1 + len(VARIANTS))

    def expected_cells(self, ctx: Context) -> int:
        return self.fig14_cells() + self.fig15_cells()

    def prepare(self, ctx: Context) -> None:
        from repro.experiments.parallel import code_version

        code_version()  # the source digest in every cache key, memoised

    def run_unit(self, ctx: Context, state) -> Unit:
        from repro.experiments import SPEC_WORKLOADS, ArtifactCache, ExperimentSuite
        from repro.experiments.fig14 import PAPER_GEOMEAN, run_fig14
        from repro.experiments.fig15 import run_fig15

        cache_dir = ctx.fresh_dir()
        start = clock()
        fig14 = ExperimentSuite(ctx.settings, jobs=ctx.jobs, cache=ArtifactCache(cache_dir))
        result = run_fig14(fig14)
        fig15 = ExperimentSuite(ctx.settings, jobs=ctx.jobs, cache=ArtifactCache(cache_dir))
        run_fig15(fig15)
        wall = clock() - start
        shutil.rmtree(cache_dir, ignore_errors=True)

        payloads14 = fig14.result_payloads()
        payloads15 = fig15.result_payloads()
        shared = len(SPEC_WORKLOADS) * len(self.shared_keys)
        fresh = self.fig15_cells() - shared
        stats = fig15.cache.stats
        problems = []
        if (stats.hits, stats.misses) != (shared, fresh):
            problems.append(
                f"fig15 cache served {stats.hits} hits / {stats.misses} misses, "
                f"expected {shared} / {fresh}"
            )
        errors = [
            abs(result.geomeans[m] - paper) / paper for m, paper in PAPER_GEOMEAN.items()
        ]
        delivered = len(payloads14) + len(payloads15)
        return Unit(
            wall_s=wall,
            cells=delivered,
            failed=self.expected_cells(ctx) - delivered,
            instructions=sum(p["instructions"] for p in payloads14.values())
            + sum(
                p["instructions"]
                for (_, key), p in payloads15.items()
                if key not in self.shared_keys
            ),
            digests={ctx.seed: digest([suite_digest(fig14), suite_digest(fig15)])},
            extra={"paper_err_pct": 100.0 * sum(errors) / len(errors)},
            problems=problems,
        )


# ------------------------------------------------------------- campaigns


class Campaigns:
    name = "campaigns"
    modules = ("repro.faults", "repro.adversary", "repro.supervise")

    def expected_cells(self, ctx: Context) -> int:
        from repro.adversary import ChaosCampaign
        from repro.faults import Campaign

        per_seed = len(list(Campaign().cells())) + len(ChaosCampaign().cells())
        return per_seed * ctx.shape.campaign_seeds

    def prepare(self, ctx: Context) -> None:
        return None

    def run_unit(self, ctx: Context, state) -> Unit:
        from repro.adversary import VERDICTS, ChaosCampaign, ChaosConfig
        from repro.faults import Campaign, CampaignConfig, RunOutcome
        from repro.supervise import SupervisorConfig

        seeds = range(ctx.seed, ctx.seed + ctx.shape.campaign_seeds)
        unit = Unit(wall_s=0.0, cells=0, failed=0)
        unit.extra = {f"faults.outcome.{o.value}": 0 for o in RunOutcome}
        unit.extra.update({f"adversary.verdict.{v}": 0 for v in VERDICTS})
        for seed in seeds:
            # What `repro faultinject --jobs N` and `repro attack --jobs N`
            # run: an unsupervised pool, and a supervised corpus sweep.
            faults = Campaign(CampaignConfig(seed=seed))
            chaos = ChaosCampaign(ChaosConfig(seed=seed))
            start = clock()
            fault_result = faults.run(jobs=ctx.jobs)
            matrix = chaos.run(supervise=SupervisorConfig(jobs=ctx.jobs), jobs=ctx.jobs)
            unit.wall_s += clock() - start
            bad_faults = sum(
                r.outcome in (RunOutcome.CRASHED, RunOutcome.TIMED_OUT)
                for r in fault_result.results
            )
            bad_runs = sum(run.verdict == "robustness-bug" for run in matrix.runs)
            unit.cells += len(fault_result.results) + len(matrix.runs)
            unit.failed += bad_faults + bad_runs
            for name, count in fault_result.outcomes().items():
                unit.extra[f"faults.outcome.{name.value}"] += count
            for name, count in matrix.verdict_counts().items():
                unit.extra[f"adversary.verdict.{name}"] += count
            unit.digests[seed] = digest(
                {
                    "faults": [r.stable_payload() for r in fault_result.results],
                    "faults_quarantined": fault_result.quarantined,
                    "attack": [run.stable_payload() for run in matrix.runs],
                    "attack_quarantined": matrix.quarantined,
                }
            )
        # Quarantined or missing cells were never delivered.
        unit.failed += self.expected_cells(ctx) - unit.cells
        return unit


WORKLOADS = {w.name: w for w in (Sweeps(), Campaigns())}
