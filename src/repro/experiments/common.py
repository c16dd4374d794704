"""Shared experiment infrastructure: cached trace -> lowering -> simulation.

The paper runs each SPEC workload once per system configuration; here one
:class:`ExperimentSuite` instance memoises traces, lowered programs and
simulation results so Figs. 14/15/17/18 can share work within a session.

Every timing driver is a plan plus a render: its ``cells(suite,
workloads)`` lists the :class:`~repro.experiments.parallel.CellSpec` of
every timed row, its ``run_*`` hands that plan to
:meth:`ExperimentSuite.ensure_cells` and renders from the memo.  A
command that runs several drivers (``repro all``) passes the union of
their plans to one ``ensure_cells`` call first, so each trace is
generated once per invocation and the drivers' own calls find every
cell known.  Two further layers live in :mod:`repro.experiments.parallel`
and are wired in here:

- ``jobs=N`` shards the pending cells of an ``ensure_cells`` call across
  worker processes, one task per trace.  Results are bit-identical to
  ``jobs=1``.
- ``cache=`` attaches a persistent cross-session
  :class:`~repro.experiments.parallel.ArtifactCache`: every lookup goes
  memo -> artifact cache -> simulate, and each simulated cell is stored
  as soon as its task lands, so a rerun on unchanged code re-simulates
  nothing.  The cache is the suite's only persistence: re-running an
  interrupted command resumes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

import dataclasses

if TYPE_CHECKING:
    from .parallel import ArtifactCache, CellSpec, TraceMemo

from ..config import CacheConfig, MemoryHierarchyConfig, SystemConfig, default_config
from ..compiler import LoweredWorkload
from ..cpu.core import SimulationResult
from ..cpu.pipeline import PipelineResult
from ..obs import ObsSettings, merge_snapshots
from ..workloads import WorkloadTrace

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
    the preamble live set (and the PAC space with it).  Larger values
    sharpen the statistics at a cost linear in ``instructions``: the CLI
    runs 40_000 by default, ``--quick`` 12_000.

    ``obs`` selects per-cell observability (disabled by default).  It is
    part of the settings — and therefore of every cache fingerprint — so
    metric-bearing results are never conflated with plain ones in the
    artifact cache.
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
        jobs: int = 1,
        cache: Union[None, str, Path, "ArtifactCache"] = None,
        supervise=None,
        paranoid: bool = False,
    ) -> None:
        """``supervise`` attaches the supervision layer to every
        :meth:`ensure_cells` fan-out: ``True`` for the default
        :class:`~repro.supervise.SupervisorConfig`, or a config instance
        for custom deadlines/retry policy.  The supervised unit is one
        trace's pending cells (retries and quarantine apply to the
        group; the deadline stays per cell, scaled by the group size).
        Each supervised :meth:`ensure_cells` call appends its
        :class:`~repro.supervise.SupervisionReport` to
        :attr:`supervision_reports`.  The cells of a quarantined group
        stay uncomputed and are never simulated in this process: a later
        :meth:`ensure_cells` skips them and :meth:`result` raises
        :class:`~repro.errors.QuarantinedCellError`.  A supervised
        suite's :meth:`result` on an unplanned cell dispatches it too.

        ``paranoid=True`` audits every simulated cell's drained MCU/HBT
        state through the invariant oracle; violations raise
        :class:`~repro.errors.InvariantViolation` instead of admitting a
        silently-corrupt measurement into memo or cache.
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
        #: Per-workload lowering memo shared by every cell of the workload.
        self._memos: Dict[str, "TraceMemo"] = {}
        self._results: Dict[Tuple[str, str], SimulationResult] = {}
        #: The same results by what determines them (see :meth:`_identity`),
        #: so cells that differ only in their memo key simulate once.
        self._simulated: Dict[tuple, SimulationResult] = {}
        #: Cells the supervisor quarantined: cache key -> reason.
        self._quarantined: Dict[Tuple[str, str], str] = {}
        self._cache = None
        if cache is not None:
            from .parallel import ArtifactCache

            self._cache = (
                cache if isinstance(cache, ArtifactCache) else ArtifactCache(cache)
            )

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
        trace = self._known_trace(workload)
        if trace is None:
            from .parallel import generate_cell_trace

            trace = generate_cell_trace(self.settings, workload)
            self._store_trace(workload, trace)
        return trace

    def _known_trace(self, workload: str) -> Optional[WorkloadTrace]:
        """The memoised, ingested or cached trace (None if it must be
        generated).  Ingested workloads re-import from their file."""
        if workload not in self._traces:
            if workload in self._ingested:
                from ..traces import import_trace

                self._traces[workload] = import_trace(self._ingested[workload][0])
            elif self._cache is not None:
                from .parallel import trace_fingerprint

                fingerprint = trace_fingerprint(self.settings, workload)
                trace = self._cache.get_trace(fingerprint)
                if trace is not None:
                    self._traces[workload] = trace
        return self._traces.get(workload)

    def _store_trace(self, workload: str, trace: WorkloadTrace) -> None:
        """Install one generated trace into the memo and the artifact cache."""
        self._traces[workload] = trace
        if self._cache is not None:
            from .parallel import trace_fingerprint

            self._cache.put_trace(trace_fingerprint(self.settings, workload), trace)

    def _memo(self, workload: str) -> "TraceMemo":
        memo = self._memos.get(workload)
        if memo is None:
            from .parallel import TraceMemo

            memo = self._memos[workload] = TraceMemo(partial(self.trace, workload))
        return memo

    def lowered(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
    ) -> LoweredWorkload:
        """``mechanism``'s lowering of ``workload`` under ``config``
        (default: the unscaled Table IV config), from the workload's
        memo: configs that differ only outside the PA, HBT-geometry and
        bounds-compression fields share one lowering."""
        return self._memo(workload).lowered(mechanism, config)

    def result(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
        key: Optional[str] = None,
    ) -> SimulationResult:
        """The memoised result of one cell; a miss reads the artifact cache,
        then simulates in-process (a supervised suite dispatches it).
        Raises :class:`~repro.errors.QuarantinedCellError` for a cell the
        supervisor quarantined."""
        from .parallel import CellSpec, simulate_cell, supervised_cell_key

        cell = self._ingested_cell(CellSpec(workload, mechanism, config=config, key=key))
        if self._supervise is not None and cell.cache_key not in self._results:
            self.ensure_cells([cell])
        if cell.cache_key in self._quarantined:
            from ..errors import QuarantinedCellError

            reason = self._quarantined[cell.cache_key]
            raise QuarantinedCellError(supervised_cell_key(cell), reason)
        if cell.cache_key not in self._results:
            result = self._known_result(cell)
            if result is None:
                result = simulate_cell(
                    self.settings,
                    cell,
                    memo=self._memo(workload),
                    paranoid=self.paranoid,
                )
                self._store(cell, result)
            else:
                self._remember(cell, result)
        return self._results[cell.cache_key]

    def _identity(self, cell: "CellSpec") -> tuple:
        """What determines ``cell``'s result: its trace, mechanism and
        resolved config (Fig. 15's ``aos-l1b+compression`` is ``aos``)."""
        from .parallel import trace_group_key

        config = cell.resolved_config(self.settings)
        return (trace_group_key(cell), cell.mechanism, config)

    def _known_result(self, cell: "CellSpec") -> Optional[SimulationResult]:
        """The result of an identical cell memoised under another key, or
        the artifact cache's (None if ``cell`` must be simulated)."""
        result = self._simulated.get(self._identity(cell))
        return result if result is not None else self._cached_result(cell)

    def _remember(self, cell: "CellSpec", result: SimulationResult) -> None:
        self._results[cell.cache_key] = result
        self._simulated[self._identity(cell)] = result

    def _cached_result(self, cell: "CellSpec") -> Optional[SimulationResult]:
        """Disk-cache lookup for one cell (None without a cache, or on miss)."""
        if self._cache is None:
            return None
        from .parallel import cell_fingerprint

        payload = self._cache.get_result(cell_fingerprint(self.settings, cell))
        if payload is None:
            return None
        try:
            return _result_from_payload(payload)
        except (KeyError, TypeError):
            return None  # schema drift not caught by the code digest

    def _store(self, cell: "CellSpec", result: SimulationResult) -> None:
        """Install one computed result into the memo and the artifact cache."""
        self._remember(cell, result)
        if self._cache is not None:
            from .parallel import cell_fingerprint

            self._cache.put_result(
                cell_fingerprint(self.settings, cell), _result_to_payload(result)
            )

    # --------------------------------------------------------- planned cells

    def ensure_traces(self, workloads: Iterable[str]) -> None:
        """Warm the trace memo for ``workloads``, in parallel when ``jobs>1``.

        Traces already memoised or present in the artifact cache are not
        regenerated; the rest are produced by worker processes (generation
        is deterministic, so the parallel path is observationally identical
        to calling :meth:`trace` in a loop).
        """
        from .parallel import generate_traces

        missing = [w for w in dict.fromkeys(workloads) if self._known_trace(w) is None]
        if missing:
            traces = generate_traces(self.settings, missing, jobs=self.jobs)
            for workload, trace in traces.items():
                self._store_trace(workload, trace)

    def ensure_cells(self, cells: Iterable["CellSpec"]) -> None:
        """Compute every cell not already known, in one dispatch over ``jobs``.

        The lookup order per cell is memo -> artifact cache -> simulate;
        only the last bucket is fanned out to worker processes, one task
        per trace, so each trace is generated once per call.  Each result
        is stored in the memo and the artifact cache as its task lands.
        Quarantined cells count as known: they are not dispatched again.
        """
        from .parallel import (
            run_cells,
            run_cells_supervised,
            supervised_cell_key,
            trace_group_key,
        )

        # Pending cells with one identity are simulated once, for all.
        twins: Dict[tuple, List["CellSpec"]] = {}
        seen = set(self._results) | set(self._quarantined)
        for cell in cells:
            # Figure drivers build bare CellSpecs; stamp ingested-trace
            # identity on them here so fingerprints/workers do the right
            # thing without every driver knowing about the trace frontend.
            cell = self._ingested_cell(cell)
            if cell.cache_key in seen:
                continue
            seen.add(cell.cache_key)
            known = self._known_result(cell)
            if known is not None:
                self._remember(cell, known)
            else:
                twins.setdefault(self._identity(cell), []).append(cell)
        if not twins:
            return
        pending = [same[0] for same in twins.values()]
        twins_of = {same[0].cache_key: same for same in twins.values()}

        def landed(cell: "CellSpec", result: SimulationResult) -> None:
            self._store(cell, result)
            for twin in twins_of[cell.cache_key][1:]:
                self._remember(twin, result)

        if self._supervise is None:
            run_cells(
                self.settings,
                pending,
                jobs=self.jobs,
                paranoid=self.paranoid,
                on_cell=landed,
            )
            return
        computed, report = run_cells_supervised(
            self.settings,
            pending,
            config=self._supervise,
            paranoid=self.paranoid,
            on_cell=landed,
        )
        self.supervision_reports.append(report)
        for cell in pending:
            if cell.cache_key not in computed:  # never stored, never re-run
                group = trace_group_key(cell)
                if group not in report.quarantined:  # the cell was its own task
                    group = supervised_cell_key(cell)
                reason = report.quarantined.get(group, "")
                for twin in twins_of[cell.cache_key]:
                    self._quarantined[twin.cache_key] = reason

    def result_payloads(self) -> Dict[Tuple[str, str], dict]:
        """JSON-able snapshot of every memoised result, keyed by cell.

        The determinism tests and ``perfbench`` use this to compare
        sweeps cell by cell.
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
    # memory flat between sweeps (results stay recoverable via the artifact
    # cache, when one is attached).

    def cache_info(self) -> Dict[str, int]:
        """Entry counts of the memo caches (traces / lowered programs /
        results)."""
        return {
            "traces": len(self._traces),
            "lowered": sum(len(memo) for memo in self._memos.values()),
            "results": len(self._results),
        }

    def clear_caches(self, traces: bool = True) -> None:
        """Drop memoised state.  ``traces=False`` keeps the (cheap to hold,
        expensive to regenerate) raw traces and clears only the lowered
        programs and simulation results."""
        if traces:
            self._traces.clear()
        self._memos.clear()
        self._results.clear()
        self._simulated.clear()

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
