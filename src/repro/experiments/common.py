"""Shared experiment infrastructure: cached trace -> lowering -> simulation.

The paper runs each SPEC workload once per system configuration; here one
:class:`ExperimentSuite` instance memoises the cells' outcomes so the
figures can share work within a session.  Every cell the suite does not
know yet, planned or asked for one at a time, is computed the same way:
:meth:`ExperimentSuite.ensure_cells` hands it to
:func:`~repro.experiments.parallel.run_cells`, which generates, lowers
and simulates it in a task of its trace.

Every driver is a plan plus a render: its ``cells(suite, workloads)``
lists the :class:`~repro.experiments.parallel.CellSpec` of every row —
timed rows, the REST-without-quarantine and growth-phase ablation rows,
and Fig. 16's instruction-mix cells, which count a lowered program
instead of simulating it — and its ``run_*`` hands that plan to
:meth:`ExperimentSuite.ensure_cells` and renders from the memo.  A
command that runs several drivers (``repro all``) passes the union of
their plans to one ``ensure_cells`` call first, so each trace is
generated once per invocation, in a worker, and the drivers' own calls
find every cell known.  Two further layers live in
:mod:`repro.experiments.parallel` and are wired in here:

- ``jobs=N`` shards the pending cells of an ``ensure_cells`` call across
  worker processes, one task per trace (``jobs=1`` runs the tasks in
  this process).  Results are bit-identical at any ``jobs``.
- ``cache=`` attaches a persistent cross-session
  :class:`~repro.experiments.parallel.ArtifactCache`: every lookup goes
  memo -> artifact cache -> simulate, and each simulated cell is stored
  as soon as its task lands, so a rerun on unchanged code re-simulates
  nothing.  The cache is the suite's only persistence: re-running an
  interrupted command resumes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

import dataclasses

if TYPE_CHECKING:
    from .parallel import ArtifactCache, CellSpec

from ..config import CacheConfig, MemoryHierarchyConfig, SystemConfig, default_config
from ..cpu.core import SimulationResult
from ..cpu.pipeline import PipelineResult
from ..obs import merge_snapshots
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

    ``metrics=True`` has every cell collect a metrics snapshot (off by
    default).  It is part of the settings — and therefore of every cache
    fingerprint — so metric-bearing results are never conflated with
    plain ones in the artifact cache.
    """

    instructions: int = 60_000
    seed: int = 7
    scale: int = 8
    metrics: bool = False


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
    """Memoising runner for the timing experiments: every cell it does
    not know is computed by :meth:`ensure_cells`."""

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
        :class:`~repro.errors.QuarantinedCellError`.

        ``jobs``, ``supervise`` and ``paranoid`` hold for every cell the
        suite computes: :meth:`result` on an unplanned cell goes through
        :meth:`ensure_cells` like a planned one.

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
        #: Traces by (workload, trace variant), for :meth:`trace`.
        self._traces: Dict[Tuple[str, Optional[str]], WorkloadTrace] = {}
        self._results: Dict[Tuple[str, str], SimulationResult] = {}
        #: Fig. 16 instruction counts of the mix cells, kept apart from
        #: the simulation results.
        self._mixes: Dict[Tuple[str, str], dict] = {}
        #: The same results by what determines them (see :meth:`_identity`),
        #: so cells that differ only in their memo key simulate once.
        self._simulated: Dict[tuple, SimulationResult] = {}
        #: Cells the supervisor quarantined: cache key -> reason.
        self._quarantined: Dict[Tuple[str, str], str] = {}
        #: Artifact-cache fingerprints by cell (see :meth:`_fingerprint`).
        self._fingerprints: Dict["CellSpec", str] = {}
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
        self._traces[(name, None)] = trace
        return name

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

    def trace(self, workload: str, variant: Optional[str] = None) -> WorkloadTrace:
        """``workload``'s trace (of ``variant``): memoised, ingested,
        cached or generated."""
        key = (workload, variant)
        if key not in self._traces:
            if workload in self._ingested:
                from ..traces import import_trace

                self._traces[key] = import_trace(self._ingested[workload][0])
                return self._traces[key]
            from .parallel import generate_cell_trace, trace_fingerprint

            fingerprint = trace_fingerprint(self.settings, workload, variant)
            trace = None if self._cache is None else self._cache.get_trace(fingerprint)
            if trace is None:
                trace = generate_cell_trace(self.settings, workload, variant)
                if self._cache is not None:
                    self._cache.put_trace(fingerprint, trace)
            self._traces[key] = trace
        return self._traces[key]

    def result(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig] = None,
        key: Optional[str] = None,
    ) -> SimulationResult:
        """The memoised result of one cell (see :meth:`outcome`)."""
        from .parallel import CellSpec

        return self.outcome(CellSpec(workload, mechanism, config=config, key=key))

    def outcome(self, cell: "CellSpec") -> Union[SimulationResult, dict]:
        """The memoised outcome of ``cell``: its :class:`SimulationResult`,
        or a mix cell's Fig. 16 counts.  A cell not yet known goes through
        :meth:`ensure_cells`.  Raises
        :class:`~repro.errors.QuarantinedCellError` for a cell the
        supervisor quarantined (a quarantined cell is not dispatched
        again)."""
        cell = self._ingested_cell(cell)
        known = self._mixes if cell.mix else self._results
        if cell.cache_key not in known:
            self.ensure_cells([cell])
        if cell.cache_key in self._quarantined:
            from ..errors import QuarantinedCellError
            from .parallel import supervised_cell_key

            reason = self._quarantined[cell.cache_key]
            raise QuarantinedCellError(supervised_cell_key(cell), reason)
        return known[cell.cache_key]

    def _identity(self, cell: "CellSpec") -> tuple:
        """What determines ``cell``'s outcome: its trace, mechanism,
        resolved config and whether it is a mix cell (Fig. 15's
        ``aos-l1b+compression`` is ``aos``)."""
        from .parallel import trace_group_key

        config = cell.resolved_config(self.settings)
        return (trace_group_key(cell), cell.mechanism, config, cell.mix)

    def _known_result(self, cell: "CellSpec"):
        """The outcome of an identical cell memoised under another key, or
        the artifact cache's (None if ``cell`` must be computed)."""
        result = self._simulated.get(self._identity(cell))
        return result if result is not None else self._cached_result(cell)

    def _remember(self, cell: "CellSpec", result) -> None:
        (self._mixes if cell.mix else self._results)[cell.cache_key] = result
        self._simulated[self._identity(cell)] = result

    def _fingerprint(self, cell: "CellSpec") -> str:
        """``cell``'s artifact-cache fingerprint, computed once per cell:
        the lookup of a miss and the store after it share it."""
        fingerprint = self._fingerprints.get(cell)
        if fingerprint is None:
            from .parallel import cell_fingerprint

            fingerprint = cell_fingerprint(self.settings, cell)
            self._fingerprints[cell] = fingerprint
        return fingerprint

    def _cached_result(self, cell: "CellSpec"):
        """Disk-cache lookup for one cell (None without a cache, or on miss)."""
        if self._cache is None:
            return None
        payload = self._cache.get_result(self._fingerprint(cell))
        if payload is None or cell.mix:
            return payload
        try:
            return _result_from_payload(payload)
        except (KeyError, TypeError):
            return None  # schema drift not caught by the code digest

    def _store(self, cell: "CellSpec", result) -> None:
        """Install one computed outcome into the memo and the artifact cache."""
        self._remember(cell, result)
        if self._cache is not None:
            payload = result if cell.mix else _result_to_payload(result)
            self._cache.put_result(self._fingerprint(cell), payload)

    # --------------------------------------------------------- planned cells

    def ensure_cells(self, cells: Iterable["CellSpec"]) -> None:
        """Compute every cell not already known, in one dispatch over ``jobs``.

        The lookup order per cell is memo -> artifact cache ->
        :func:`~repro.experiments.parallel.run_cells`; the last bucket is
        one dispatch, one task per trace, so each trace is generated once
        per call.  Each result
        is stored in the memo and the artifact cache as its task lands.
        Quarantined cells count as known: they are not dispatched again.
        """
        from .parallel import run_cells, supervised_cell_key, trace_group_key

        # Pending cells with one identity are computed once, for all.
        twins: Dict[tuple, List["CellSpec"]] = {}
        seen = set(self._results) | set(self._mixes) | set(self._quarantined)
        for cell in cells:
            # Figure drivers build bare CellSpecs; stamp ingested-trace
            # identity on them here so fingerprints/workers do the right
            # thing without every driver knowing about the trace frontend.
            cell = self._ingested_cell(cell)
            if cell.cache_key in seen:
                continue
            seen.add(cell.cache_key)
            identity = self._identity(cell)
            if identity in twins:  # a pending twin's outcome will do
                twins[identity].append(cell)
                continue
            known = self._known_result(cell)
            if known is not None:
                self._remember(cell, known)
            else:
                twins[identity] = [cell]
        if not twins:
            return
        pending = [same[0] for same in twins.values()]
        twins_of = {same[0].cache_key: same for same in twins.values()}

        def landed(cell: "CellSpec", result) -> None:
            self._store(cell, result)
            for twin in twins_of[cell.cache_key][1:]:
                self._remember(twin, result)

        computed, report = run_cells(
            self.settings,
            pending,
            jobs=self.jobs,
            supervise=self._supervise,
            paranoid=self.paranoid,
            on_cell=landed,
        )
        if report is None:  # unsupervised: every cell landed or one raised
            return
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
    # The memos grow as O(workloads x mechanisms) and are never evicted —
    # fine for one figure, unbounded for a long campaign looping over
    # settings.  cache_info()/clear_caches() let campaign drivers keep
    # memory flat between sweeps (results stay recoverable via the artifact
    # cache, when one is attached).

    def cache_info(self) -> Dict[str, int]:
        """Entry counts of the memos (traces / results)."""
        return {"traces": len(self._traces), "results": len(self._results)}

    def clear_caches(self) -> None:
        """Drop memoised traces and outcomes."""
        self._traces.clear()
        self._results.clear()
        self._mixes.clear()
        self._simulated.clear()

    # ------------------------------------------------------------ measures

    # Contract: ``config``/``key`` customise the *mechanism* cell only.  The
    # denominator is always an explicit baseline cell — by default the
    # suite's scale-matched default-config baseline — and callers comparing
    # against a non-default baseline must say so via ``baseline_config``/
    # ``baseline_key``.  (Previously these methods forwarded ``**kwargs`` to
    # the mechanism run only, so a custom ``config=`` silently compared a
    # tuned mechanism against an untuned baseline with no way to fix it.)

    def _pair(
        self,
        workload: str,
        mechanism: str,
        config: Optional[SystemConfig],
        key: Optional[str],
        baseline_config: Optional[SystemConfig],
        baseline_key: Optional[str],
    ) -> Tuple[SimulationResult, SimulationResult]:
        """The baseline and ``mechanism`` results, planned in one
        :meth:`ensure_cells` call so that they share one trace task."""
        from .parallel import CellSpec

        base = CellSpec(workload, "baseline", config=baseline_config, key=baseline_key)
        run = CellSpec(workload, mechanism, config=config, key=key)
        self.ensure_cells([base, run])
        return self.outcome(base), self.outcome(run)

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
        base, run = self._pair(
            workload, mechanism, config, key, baseline_config, baseline_key
        )
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
        base, run = self._pair(
            workload, mechanism, config, key, baseline_config, baseline_key
        )
        if base.network_traffic_bytes == 0:
            return 1.0
        return run.network_traffic_bytes / base.network_traffic_bytes
