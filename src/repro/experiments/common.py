"""Shared experiment infrastructure: cached trace -> lowering -> simulation.

The paper runs each SPEC workload once per system configuration; here one
:class:`ExperimentSuite` instance memoises traces, lowered programs and
simulation results so Figs. 14/15/17/18 can share work within a session.

Long sweeps can additionally pass ``checkpoint=`` (a path): every computed
:class:`SimulationResult` is then streamed to disk, and a suite reopened on
the same path resumes with completed (workload, mechanism) cells already
in the memo cache instead of re-simulating them.  The checkpoint is keyed
on the :class:`RunSettings` fingerprint, so changing instructions/seed/
scale starts fresh rather than mixing incompatible measurements.

Two further layers live in :mod:`repro.experiments.parallel` and are wired
in here:

- ``jobs=N`` shards independent cells across worker processes whenever a
  driver prefetches its sweep through :meth:`ExperimentSuite.ensure_cells`
  (every figure driver does).  Results are bit-identical to ``jobs=1``.
- ``cache=`` attaches a persistent cross-session
  :class:`~repro.experiments.parallel.ArtifactCache`: every lookup goes
  memo -> checkpoint -> disk cache -> simulate, so a rerun on unchanged
  code re-simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

import dataclasses

if TYPE_CHECKING:
    from .parallel import ArtifactCache, CellSpec

from ..config import CacheConfig, MemoryHierarchyConfig, SystemConfig, default_config
from ..compiler import LoweredWorkload, lower_trace
from ..cpu.core import SimulationResult, Simulator
from ..cpu.pipeline import PipelineResult
from ..faults.checkpoint import CheckpointStore
from ..obs import ObsSettings, merge_snapshots
from ..workloads import WorkloadTrace, generate_trace, get_profile

#: The 16 SPEC CPU 2006 workloads, in the paper's presentation order.
SPEC_WORKLOADS: List[str] = [
    "bzip2", "gcc", "mcf", "milc", "namd", "gobmk", "soplex", "povray",
    "hmmer", "sjeng", "libquantum", "h264ref", "lbm", "omnetpp", "astar",
    "sphinx3",
]

#: The Fig. 14 mechanisms, baseline first.
MECHANISMS: List[str] = ["baseline", "watchdog", "pa", "aos", "pa+aos"]


@dataclass(frozen=True)
class RunSettings:
    """Simulation scale knobs shared by one experiment session.

    ``instructions`` is the window length per workload; ``scale`` divides
    the preamble live set (and the PAC space with it).  The defaults keep
    a full 16-workload x 5-mechanism sweep to a few minutes in pure
    Python; larger values sharpen the statistics.

    ``obs`` selects per-cell observability (disabled by default).  It is
    part of the settings — and therefore of every cache fingerprint — so
    metric-bearing results are never conflated with plain ones in the
    artifact cache or a checkpoint.
    """

    instructions: int = 60_000
    seed: int = 7
    scale: int = 8
    obs: ObsSettings = ObsSettings()


def scaled_config(mechanism: str, scale: int) -> SystemConfig:
    """Table IV with cache capacities divided by the workload scale.

    The trace generator divides live sets (and so data footprints *and*
    the HBT) by ``scale``; shrinking the caches by the same factor
    preserves the footprint-to-capacity ratios that drive the paper's
    cache-pollution results (gcc, omnetpp).  Core/ROB/MCQ geometry is
    per-window ILP and stays at full size.
    """
    if mechanism not in SystemConfig.MECHANISMS:
        # Plugin mechanisms lower through a registered alias (e.g. a dummy
        # mechanism reusing the baseline timing model): configure for the
        # lowering that will actually run.
        from ..compiler.passes import resolve_lowering

        mechanism = resolve_lowering(mechanism)
    config = default_config(mechanism)
    if scale <= 1:
        return config

    def shrink(cache: CacheConfig) -> CacheConfig:
        size = max(cache.size_bytes // scale, cache.assoc * cache.line_bytes * 4)
        return dataclasses.replace(cache, size_bytes=size)

    memory = MemoryHierarchyConfig(
        l1i=shrink(config.memory.l1i),
        l1d=shrink(config.memory.l1d),
        l1b=shrink(config.memory.l1b),
        l2=shrink(config.memory.l2),
        dram_latency=config.memory.dram_latency,
        dram_bandwidth_gbs=config.memory.dram_bandwidth_gbs,
    )
    return dataclasses.replace(config, memory=memory)


def _result_to_payload(result: SimulationResult) -> dict:
    """JSON-able form of a :class:`SimulationResult` (nested dataclasses)."""
    return dataclasses.asdict(result)


def _result_from_payload(payload: dict) -> SimulationResult:
    data = dict(payload)
    data["pipeline"] = PipelineResult(**data["pipeline"])
    return SimulationResult(**data)


class ExperimentSuite:
    """Memoising runner for the timing experiments."""

    def __init__(
        self,
        settings: RunSettings = RunSettings(),
        checkpoint: Union[None, str, Path, CheckpointStore] = None,
        jobs: int = 1,
        cache: Union[None, str, Path, "ArtifactCache"] = None,
        supervise=None,
        paranoid: bool = False,
    ) -> None:
        """``supervise`` attaches the supervision layer to every
        :meth:`ensure_cells` fan-out: ``True`` for the default
        :class:`~repro.supervise.SupervisorConfig`, or a config instance
        for custom deadlines/retry policy.  Each supervised prefetch
        appends its :class:`~repro.supervise.SupervisionReport` to
        :attr:`supervision_reports`; quarantined cells stay uncomputed
        (a later :meth:`result` call falls back to in-process serial
        simulation — the last rung of the degradation ladder).

        ``paranoid=True`` audits every simulated cell's drained MCU/HBT
        state through the invariant oracle; violations raise
        :class:`~repro.errors.InvariantViolation` instead of admitting a
        silently-corrupt measurement into memo/checkpoint/cache.
        """
        self.settings = settings
        self.jobs = max(1, int(jobs))
        self.paranoid = bool(paranoid)
        self._supervise = None
        if supervise:
            from ..supervise import SupervisorConfig

            self._supervise = (
                supervise
                if isinstance(supervise, SupervisorConfig)
                else SupervisorConfig(jobs=self.jobs)
            )
        self.supervision_reports: List = []
        #: Ingested trace workloads: alias -> (file path, sha256, scale).
        self._ingested: Dict[str, Tuple[str, str, int]] = {}
        self._traces: Dict[str, WorkloadTrace] = {}
        self._lowered: Dict[Tuple[str, str], LoweredWorkload] = {}
        self._results: Dict[Tuple[str, str], SimulationResult] = {}
        self._cache = None
        if cache is not None:
            from .parallel import ArtifactCache

            self._cache = (
                cache if isinstance(cache, ArtifactCache) else ArtifactCache(cache)
            )
        self._checkpoint: Optional[CheckpointStore] = None
        if checkpoint is not None:
            if isinstance(checkpoint, CheckpointStore):
                self._checkpoint = checkpoint
            else:
                self._checkpoint = CheckpointStore(
                    checkpoint,
                    meta={
                        "kind": "experiment-suite",
                        "instructions": settings.instructions,
                        "seed": settings.seed,
                        "scale": settings.scale,
                    },
                )
            for key, payload in self._checkpoint.items():
                workload, cache_key = key
                self._results[(workload, cache_key)] = _result_from_payload(payload)

    @property
    def resumed_cells(self) -> int:
        """Completed (workload, mechanism) cells restored from checkpoint."""
        return self._checkpoint.resumed_cells if self._checkpoint else 0

    @property
    def cache(self) -> Optional["ArtifactCache"]:
        """The attached persistent artifact cache, if any."""
        return self._cache

    def config_for(self, mechanism: str) -> SystemConfig:
        """The scale-matched Table IV configuration for this suite."""
        return scaled_config(mechanism, self.settings.scale)

    # ------------------------------------------------------------ ingestion

    def ingest_trace(self, path, name: Optional[str] = None) -> str:
        """Register a trace file (see :mod:`repro.traces`) as a workload.

        Returns the workload alias (default ``trace:<file stem>``) usable
        anywhere a profile name is: ``result()``, ``normalized_time()``,
        the figure drivers' ``workloads=`` lists.  The trace is imported
        once here (validating it eagerly — malformed files fail at
        ingestion, not mid-sweep); cells built for it carry the file path
        so pool workers re-import it, and are cached under the file's
        streamed sha256 digest instead of profile fingerprints.
        """
        from ..traces import import_trace, trace_digest

        path = str(path)
        trace = import_trace(path)
        if name is None:
            name = f"trace:{Path(path).stem}"
        self._ingested[name] = (path, trace_digest(path), trace.scale)
        self._traces[name] = trace
        return name

    def ingested_digest(self, workload: str) -> Optional[str]:
        """The cache-keying sha256 for an ingested workload (None if not)."""
        entry = self._ingested.get(workload)
        return entry[1] if entry else None

    def _ingested_cell(self, cell: "CellSpec") -> "CellSpec":
        """Attach ingested-trace identity to a bare cell spec, if needed."""
        entry = self._ingested.get(cell.workload)
        if entry is None or cell.trace_digest is not None:
            return cell
        path, digest, scale = entry
        return dataclasses.replace(
            cell, trace_path=path, trace_digest=digest, trace_scale=scale
        )

    # ------------------------------------------------------------- building

    def trace(self, workload: str) -> WorkloadTrace:
        if workload not in self._traces and workload in self._ingested:
            from ..traces import import_trace

            self._traces[workload] = import_trace(self._ingested[workload][0])
        if workload not in self._traces:
            trace = None
            fingerprint = None
            if self._cache is not None:
                from .parallel import trace_fingerprint

                fingerprint = trace_fingerprint(self.settings, workload)
                trace = self._cache.get_trace(fingerprint)
            if trace is None:
                trace = generate_trace(
                    get_profile(workload),
                    instructions=self.settings.instructions,
                    seed=self.settings.seed,
                    scale=self.settings.scale,
                )
                if self._cache is not None:
                    self._cache.put_trace(fingerprint, trace)
            self._traces[workload] = trace
        return self._traces[workload]

    def lowered(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
        key: Optional[str] = None,
    ) -> LoweredWorkload:
        cache_key = (workload, key or mechanism)
        if cache_key not in self._lowered:
            self._lowered[cache_key] = lower_trace(
                self.trace(workload), mechanism, config=config
            )
        return self._lowered[cache_key]

    def result(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
        key: Optional[str] = None,
    ) -> SimulationResult:
        cache_key = (workload, key or mechanism)
        if cache_key not in self._results:
            result = self._cached_result(workload, mechanism, config, key)
            if result is None:
                if config is None and workload in self._ingested:
                    # Ingested traces are configured for their *declared*
                    # scale, which may differ from the suite settings'.
                    config = scaled_config(mechanism, self._ingested[workload][2])
                config = config or self.config_for(mechanism)
                lowered = self.lowered(workload, mechanism, config=config, key=key)
                inspect = None
                if self.paranoid:
                    from ..supervise import InvariantOracle

                    inspect = InvariantOracle().inspector(
                        f"{workload}/{key or mechanism}"
                    )
                # A fresh Observability per cell: metric snapshots stay
                # per-cell and identical to what a pool worker returns.
                result = Simulator(config, obs=self.settings.obs.create()).run(
                    lowered, inspect=inspect
                )
                self._store_in_cache(workload, mechanism, config, key, result)
            self._admit(cache_key, result)
        return self._results[cache_key]

    def _cached_result(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig],
        key: Optional[str],
    ) -> Optional[SimulationResult]:
        """Disk-cache lookup for one cell (None without a cache, or on miss)."""
        if self._cache is None:
            return None
        from .parallel import CellSpec, cell_fingerprint

        cell = self._ingested_cell(CellSpec(workload, mechanism, config=config, key=key))
        payload = self._cache.get_result(cell_fingerprint(self.settings, cell))
        if payload is None:
            return None
        try:
            return _result_from_payload(payload)
        except (KeyError, TypeError):
            return None  # schema drift not caught by the code digest

    def _store_in_cache(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig],
        key: Optional[str],
        result: SimulationResult,
    ) -> None:
        if self._cache is None:
            return
        from .parallel import CellSpec, cell_fingerprint

        cell = self._ingested_cell(CellSpec(workload, mechanism, config=config, key=key))
        self._cache.put_result(
            cell_fingerprint(self.settings, cell), _result_to_payload(result)
        )

    def _admit(self, cache_key: Tuple[str, str], result: SimulationResult) -> None:
        """Install one computed/loaded result into memo + checkpoint."""
        self._results[cache_key] = result
        if self._checkpoint is not None and list(cache_key) not in self._checkpoint:
            self._checkpoint.put(list(cache_key), _result_to_payload(result))

    # ------------------------------------------------------------ prefetch

    def ensure_traces(self, workloads: Iterable[str]) -> None:
        """Warm the trace memo for ``workloads``, in parallel when ``jobs>1``.

        Traces already memoised or present in the artifact cache are not
        regenerated; the rest are produced by worker processes (generation
        is deterministic, so the parallel path is observationally identical
        to calling :meth:`trace` in a loop).
        """
        from .parallel import generate_traces, trace_fingerprint

        missing = [w for w in dict.fromkeys(workloads) if w not in self._traces]
        # Ingested workloads re-import from their file, never regenerate.
        for workload in [w for w in missing if w in self._ingested]:
            self.trace(workload)
        missing = [w for w in missing if w not in self._ingested]
        if self._cache is not None:
            still = []
            for workload in missing:
                trace = self._cache.get_trace(
                    trace_fingerprint(self.settings, workload)
                )
                if trace is None:
                    still.append(workload)
                else:
                    self._traces[workload] = trace
            missing = still
        if not missing:
            return
        for workload, trace in generate_traces(
            self.settings, missing, jobs=self.jobs
        ).items():
            self._traces[workload] = trace
            if self._cache is not None:
                self._cache.put_trace(
                    trace_fingerprint(self.settings, workload), trace
                )

    def ensure_cells(self, cells: Iterable["CellSpec"]) -> None:
        """Compute every cell not already known, sharded over ``jobs``.

        The lookup order per cell is memo -> checkpoint (loaded at open)
        -> artifact cache -> simulate; only the last bucket is fanned out
        to worker processes.  Results merge back in deterministic cell
        order, so a prefetching driver behaves identically at any ``jobs``.
        """
        from .parallel import cell_fingerprint, run_cells

        pending = []
        seen = set(self._results)
        for cell in cells:
            # Figure drivers build bare CellSpecs; stamp ingested-trace
            # identity on them here so fingerprints/workers do the right
            # thing without every driver knowing about the trace frontend.
            cell = self._ingested_cell(cell)
            if cell.cache_key in seen:
                continue
            seen.add(cell.cache_key)
            cached = self._cached_result(
                cell.workload, cell.mechanism, cell.config, cell.key
            )
            if cached is not None:
                self._admit(cell.cache_key, cached)
            else:
                pending.append(cell)
        if not pending:
            return
        if self._supervise is not None:
            from .parallel import run_cells_supervised

            computed, report = run_cells_supervised(
                self.settings,
                pending,
                config=self._supervise,
                paranoid=self.paranoid,
            )
            self.supervision_reports.append(report)
        else:
            computed = run_cells(
                self.settings, pending, jobs=self.jobs, paranoid=self.paranoid
            )
        for cell in pending:
            if cell.cache_key not in computed:
                continue  # quarantined under supervision: never admitted
            result = computed[cell.cache_key]
            self._admit(cell.cache_key, result)
            if self._cache is not None:
                self._cache.put_result(
                    cell_fingerprint(self.settings, cell),
                    _result_to_payload(result),
                )

    def result_payloads(self) -> Dict[Tuple[str, str], dict]:
        """JSON-able snapshot of every memoised result, keyed by cell.

        ``tools/bench_trend.py`` and the determinism tests use this to
        compare serial and parallel sweeps cell by cell.
        """
        return {
            key: _result_to_payload(result)
            for key, result in sorted(self._results.items())
        }

    def metrics_snapshot(self, workloads: Optional[Iterable[str]] = None) -> dict:
        """Suite-level metrics: every memoised cell's snapshot, merged.

        Counters and histogram buckets sum across cells; gauges keep the
        maximum.  Cells simulated without observability contribute nothing.
        Deterministic: cells merge in sorted key order.
        """
        wanted = None if workloads is None else set(workloads)
        return merge_snapshots(
            result.metrics
            for (workload, _), result in sorted(self._results.items())
            if wanted is None or workload in wanted
        )

    def cell_metrics(self) -> Dict[Tuple[str, str], dict]:
        """Per-cell metric snapshots for cells that carry them."""
        return {
            key: result.metrics
            for key, result in sorted(self._results.items())
            if result.metrics
        }

    # ------------------------------------------------------ cache management
    #
    # The three memo caches grow as O(workloads x mechanisms) and are never
    # evicted — fine for one figure, unbounded for a long campaign looping
    # over settings.  cache_info()/clear_caches() let campaign drivers keep
    # memory flat between sweeps (results stay recoverable via checkpoint).

    def cache_info(self) -> Dict[str, int]:
        """Entry counts of the memo caches (traces / lowered / results)."""
        return {
            "traces": len(self._traces),
            "lowered": len(self._lowered),
            "results": len(self._results),
        }

    def clear_caches(self, traces: bool = True) -> None:
        """Drop memoised state.  ``traces=False`` keeps the (cheap to hold,
        expensive to regenerate) raw traces and clears only the lowered
        programs and simulation results."""
        if traces:
            self._traces.clear()
        self._lowered.clear()
        self._results.clear()

    # ------------------------------------------------------------ measures

    # Contract: ``config``/``key`` customise the *mechanism* cell only.  The
    # denominator is always an explicit baseline cell — by default the
    # suite's scale-matched default-config baseline — and callers comparing
    # against a non-default baseline must say so via ``baseline_config``/
    # ``baseline_key``.  (Previously these methods forwarded ``**kwargs`` to
    # the mechanism run only, so a custom ``config=`` silently compared a
    # tuned mechanism against an untuned baseline with no way to fix it.)

    def normalized_time(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
        key: Optional[str] = None,
        baseline_config: Optional[SystemConfig] = None,
        baseline_key: Optional[str] = None,
    ) -> float:
        """``mechanism`` cycles over baseline cycles (see contract above)."""
        base = self.result(
            workload, "baseline", config=baseline_config, key=baseline_key
        )
        run = self.result(workload, mechanism, config=config, key=key)
        if base.cycles == 0:
            return 1.0  # degenerate empty-window run (mirror traffic guard)
        return run.cycles / base.cycles

    def normalized_traffic(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
        key: Optional[str] = None,
        baseline_config: Optional[SystemConfig] = None,
        baseline_key: Optional[str] = None,
    ) -> float:
        """``mechanism`` traffic over baseline traffic (see contract above)."""
        base = self.result(
            workload, "baseline", config=baseline_config, key=baseline_key
        )
        run = self.result(workload, mechanism, config=config, key=key)
        if base.network_traffic_bytes == 0:
            return 1.0
        return run.network_traffic_bytes / base.network_traffic_bytes
