"""Parallel experiment engine and persistent cross-session artifact cache.

The serial :class:`~repro.experiments.common.ExperimentSuite` computes its
16-workload x 5-mechanism sweep one cell at a time in one process and, unless
a checkpoint path is passed, forgets everything when the session ends.  This
module adds the two missing layers:

**Parallel execution** — :func:`run_cells` shards independent
(workload, mechanism) simulation cells across a ``ProcessPoolExecutor``.
Every cell is described by a picklable :class:`CellSpec`; each worker builds
its own trace, lowering and :class:`~repro.cpu.core.Simulator` from the
:class:`~repro.experiments.common.RunSettings` fingerprint via
:func:`simulate_cell` — the same pure function the serial path uses — so
parallel results are bit-identical to serial ones and merge back into the
suite's memo/checkpoint in deterministic cell order regardless of worker
completion order.

**Persistent artifact cache** — :class:`ArtifactCache` stores generated
traces and :class:`~repro.cpu.core.SimulationResult` payloads under
``~/.cache/repro`` (or ``$REPRO_CACHE_DIR``, or an explicit ``--cache-dir``),
keyed by a content hash of the run settings, workload profile, mechanism,
system configuration and a digest of the package sources.  A second
``python -m repro all`` on the same code therefore re-simulates nothing, and
any code change invalidates every stale entry automatically.  Corrupted
cache files are treated as misses and removed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..compiler import lower_trace
from ..config import SystemConfig
from ..cpu.core import SimulationResult, Simulator
from ..workloads import WorkloadTrace, generate_trace, get_profile
from .common import RunSettings, scaled_config

#: Bump to invalidate every cache entry independently of source digests.
CACHE_SCHEMA = 1


# --------------------------------------------------------------------- cells


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell of a sweep, fully picklable.

    ``key`` disambiguates cells that share a mechanism but differ in
    configuration (the Fig. 15 ``aos-l1b`` style variants); it defaults to
    the mechanism name, matching ``ExperimentSuite.result``'s memo keys.
    ``config=None`` means "the suite's scale-matched Table IV config".

    ``trace_path``/``trace_digest`` mark an *ingested* cell: the workload
    is a trace file (see :mod:`repro.traces`), not a synthetic profile.
    Workers re-import the file instead of regenerating from a profile,
    and the cache fingerprint is keyed on the streamed sha256 digest of
    the file's bytes rather than on profile/settings fingerprints.
    """

    workload: str
    mechanism: str
    config: Optional[SystemConfig] = None
    key: Optional[str] = None
    trace_path: Optional[str] = None
    trace_digest: Optional[str] = None
    #: The ingested trace's declared scale (header field); drives the
    #: scale-matched config instead of ``settings.scale`` for these cells.
    trace_scale: Optional[int] = None

    @property
    def cache_key(self) -> Tuple[str, str]:
        """The (workload, key-or-mechanism) memo key used by the suite."""
        return (self.workload, self.key or self.mechanism)

    def resolved_config(self, settings: RunSettings) -> SystemConfig:
        if self.config is not None:
            return self.config
        scale = self.trace_scale if self.trace_scale is not None else settings.scale
        return scaled_config(self.mechanism, scale)


def _code_digest() -> str:
    """Digest of every ``repro`` source file, so cache entries die with the
    code that produced them."""
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


_CODE_DIGEST: Optional[str] = None


def code_version() -> str:
    """The (memoised) source digest folded into every cache fingerprint."""
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        _CODE_DIGEST = _code_digest()
    return _CODE_DIGEST


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_fingerprint(settings: RunSettings, workload: str) -> str:
    """Content hash naming one generated trace in the artifact cache."""
    profile = get_profile(workload)
    body = _canonical(
        {
            "schema": CACHE_SCHEMA,
            "code": code_version(),
            "kind": "trace",
            "profile": dataclasses.asdict(profile),
            "settings": dataclasses.asdict(settings),
        }
    )
    return hashlib.sha256(body.encode()).hexdigest()


def _mechanism_cache_token(mechanism: str) -> str:
    """The registry's cache-fingerprint token for ``mechanism``.

    Bumping a spec's ``cache_token`` (``<name>-v2``) invalidates every
    cached cell of that mechanism without touching the others; unregistered
    names (ablation ``key`` variants reuse real mechanisms, so this is
    rare) fall back to the bare name.
    """
    from ..mechanisms.registry import REGISTRY

    if mechanism in REGISTRY:
        return REGISTRY.spec(mechanism).cache_token
    return mechanism


def cell_fingerprint(settings: RunSettings, cell: CellSpec) -> str:
    """Content hash naming one simulation result in the artifact cache.

    Ingested cells (``cell.trace_digest`` set) are keyed on the trace
    file's streamed sha256 digest instead of the profile + window
    settings: the file's bytes fully determine the program, so the same
    trace imported under any alias or ``--instructions`` value hits the
    same cache entry, while settings that *do* change the result
    (configuration, observability) stay in the key.
    """
    config = cell.resolved_config(settings)
    if cell.trace_digest is not None:
        body = _canonical(
            {
                "schema": CACHE_SCHEMA,
                "code": code_version(),
                "kind": "result",
                "ingested": True,
                "trace_digest": cell.trace_digest,
                "mechanism": cell.mechanism,
                "mechanism_token": _mechanism_cache_token(cell.mechanism),
                "config": dataclasses.asdict(config),
                "obs": dataclasses.asdict(settings.obs),
            }
        )
        return hashlib.sha256(body.encode()).hexdigest()
    body = _canonical(
        {
            "schema": CACHE_SCHEMA,
            "code": code_version(),
            "kind": "result",
            "workload": cell.workload,
            "mechanism": cell.mechanism,
            "mechanism_token": _mechanism_cache_token(cell.mechanism),
            "profile": dataclasses.asdict(get_profile(cell.workload)),
            "config": dataclasses.asdict(config),
            "settings": dataclasses.asdict(settings),
        }
    )
    return hashlib.sha256(body.encode()).hexdigest()


# --------------------------------------------------------------------- cache


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def default_cache_max_bytes() -> Optional[int]:
    """``$REPRO_CACHE_MAX_BYTES`` as an int, or None (unbounded)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PruneReport:
    """What one :meth:`ArtifactCache.prune` pass did."""

    evicted: int = 0
    reclaimed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    #: Unreferenced blob bytes reclaimed by the shared store's GC pass.
    gc_bytes: int = 0

    def format(self) -> str:
        return (
            f"evicted {self.evicted} entries "
            f"({self.reclaimed_bytes + self.gc_bytes} bytes reclaimed, "
            f"{self.gc_bytes} via shared-store GC); "
            f"{self.remaining_entries} entries / "
            f"{self.remaining_bytes} bytes remain"
        )


class ArtifactCache:
    """Persistent, content-addressed store for traces and simulation results.

    Storage is a pluggable :class:`~repro.experiments.backends.CacheBackend`
    (local directory, in-memory, or a deduplicating shared store — see
    :mod:`repro.experiments.backends`); the default is the classic
    ``<root>/results/<sha256>.json`` + ``<root>/traces/<sha256>.pkl``
    per-user directory, byte-compatible with caches written by earlier
    versions.  Writes are atomic, so a killed run never leaves a torn
    entry; unreadable or undecodable entries are counted in
    :attr:`CacheStats.corrupt`, removed best-effort, and treated as misses.

    ``max_bytes`` (or ``$REPRO_CACHE_MAX_BYTES``) caps total size: after
    each store the least-recently-used entries (by backend ``used`` stamp)
    are evicted until the cache fits, so ``~/.cache/repro`` no longer
    grows without bound.  :meth:`prune` runs the same eviction on demand
    (``python -m repro cache --prune``).
    """

    def __init__(
        self,
        root: Union[None, str, Path] = None,
        backend: Optional["CacheBackend"] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        from .backends import CacheBackend, LocalDirBackend  # noqa: F811

        if backend is None:
            backend = LocalDirBackend(
                Path(root) if root is not None else default_cache_dir()
            )
        elif root is not None:
            raise ValueError("pass either root or backend, not both")
        self.backend: CacheBackend = backend
        #: Kept for callers that print/inspect the cache location; None
        #: for backends without one (memory).
        self.root: Optional[Path] = getattr(backend, "root", None)
        self.max_bytes = max_bytes if max_bytes is not None else default_cache_max_bytes()
        self.stats = CacheStats()

    # -------------------------------------------------------------- plumbing

    def _get(self, kind: str, fingerprint: str, decoder: Callable) -> Optional[object]:
        data = self.backend.read(kind, fingerprint)
        if data is None:
            self.stats.misses += 1
            return None
        try:
            value = decoder(data)
        except Exception:
            # Torn write, truncation, stale pickle protocol, wrong type...
            # anything undecodable is a miss; drop it so the rewrite
            # starts clean.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.backend.remove(kind, fingerprint)
            return None
        self.stats.hits += 1
        return value

    def _put(self, kind: str, fingerprint: str, data: bytes) -> None:
        self.backend.write(kind, fingerprint, data)
        self.stats.stores += 1
        if self.max_bytes is not None:
            self.prune(self.max_bytes)

    # --------------------------------------------------------------- results

    def get_result(self, fingerprint: str) -> Optional[dict]:
        """The stored payload for ``fingerprint``, or None on (any) miss."""

        def decode(data: bytes) -> dict:
            value = json.loads(data)
            if not isinstance(value, dict):
                raise ValueError("result payload must be a JSON object")
            return value

        return self._get("results", fingerprint, decode)

    def put_result(self, fingerprint: str, payload: dict) -> None:
        self._put("results", fingerprint, json.dumps(payload, sort_keys=True).encode())

    # ---------------------------------------------------------------- traces

    def get_trace(self, fingerprint: str) -> Optional[WorkloadTrace]:
        def decode(data: bytes) -> WorkloadTrace:
            value = pickle.loads(data)
            if not isinstance(value, WorkloadTrace):
                raise ValueError("trace payload must be a WorkloadTrace")
            return value

        return self._get("traces", fingerprint, decode)

    def put_trace(self, fingerprint: str, trace: WorkloadTrace) -> None:
        self._put("traces", fingerprint, pickle.dumps(trace))

    # --------------------------------------------------------- maintenance

    def usage(self) -> Dict[str, object]:
        """Size/entry statistics, the ``repro cache --stats`` payload."""
        entries = self.backend.entries()
        by_kind: Dict[str, Dict[str, int]] = {}
        for entry in entries:
            bucket = by_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size
        usage: Dict[str, object] = {
            "backend": self.backend.describe(),
            "entries": len(entries),
            "bytes": sum(entry.size for entry in entries),
            "max_bytes": self.max_bytes,
            "kinds": {kind: by_kind[kind] for kind in sorted(by_kind)},
        }
        dedup = getattr(self.backend, "dedup_stats", None)
        if dedup is not None:
            usage["dedup"] = dedup()
        return usage

    def prune(self, max_bytes: Optional[int] = None) -> PruneReport:
        """Evict least-recently-used entries until the cache fits.

        ``max_bytes=None`` falls back to the instance cap; with neither
        set the call only runs the shared store's garbage collection (if
        any) and reports current usage.  ``max_bytes=0`` empties the
        cache.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        report = PruneReport()
        entries = self.backend.entries()
        total = sum(entry.size for entry in entries)
        if cap is not None and total > cap:
            # Oldest-used first; fingerprint tiebreak keeps eviction
            # order deterministic when stamps collide (coarse mtimes).
            for entry in sorted(entries, key=lambda e: (e.used, e.fingerprint)):
                if total <= cap:
                    break
                self.backend.remove(entry.kind, entry.fingerprint)
                total -= entry.size
                report.evicted += 1
                report.reclaimed_bytes += entry.size
            self.stats.evicted += report.evicted
        collect = getattr(self.backend, "collect_garbage", None)
        if collect is not None:
            report.gc_bytes = collect()
        remaining = self.backend.entries()
        report.remaining_entries = len(remaining)
        report.remaining_bytes = sum(entry.size for entry in remaining)
        return report

    # ------------------------------------------------------------------ misc

    def info(self) -> Dict[str, int]:
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "stores": self.stats.stores,
            "corrupt": self.stats.corrupt,
        }


# ----------------------------------------------------------------- simulate


def generate_cell_trace(settings: RunSettings, workload: str) -> WorkloadTrace:
    """The deterministic trace for ``workload`` under ``settings``."""
    return generate_trace(
        get_profile(workload),
        instructions=settings.instructions,
        seed=settings.seed,
        scale=settings.scale,
    )


def supervised_cell_key(cell: CellSpec) -> str:
    """The stable string key one cell carries through the supervisor."""
    return f"{cell.workload}/{cell.key or cell.mechanism}"


def simulate_cell(
    settings: RunSettings,
    cell: CellSpec,
    trace: Optional[WorkloadTrace] = None,
    paranoid: bool = False,
) -> SimulationResult:
    """Run one cell from scratch: trace -> lowering -> simulation.

    This is the single simulation implementation shared by the serial
    ``ExperimentSuite`` path and the pool workers, which is what makes the
    parallel engine bit-identical to the serial one: both call exactly this
    function with exactly these (deterministic) inputs.

    ``paranoid=True`` audits the drained MCU/HBT state through the
    invariant oracle before the result is accepted; a violated invariant
    raises :class:`~repro.errors.InvariantViolation` instead of returning
    a silently-corrupt measurement.

    ``settings.obs`` travels as picklable :class:`~repro.obs.ObsSettings`;
    each worker builds its own live :class:`~repro.obs.Observability` here
    and returns only the JSON-able snapshot in ``SimulationResult.metrics``
    — live registries and tracers never cross the process boundary.
    """
    config = cell.resolved_config(settings)
    if trace is None:
        if cell.trace_path is not None:
            # Ingested cell: the trace file is the source of truth.  The
            # import is deterministic (pure function of the file bytes),
            # so pool workers stay bit-identical to the serial path.
            from ..traces import import_trace

            trace = import_trace(cell.trace_path)
        else:
            trace = generate_cell_trace(settings, cell.workload)
    lowered = lower_trace(trace, cell.mechanism, config=config)
    inspect = None
    if paranoid:
        from ..supervise.oracle import InvariantOracle

        inspect = InvariantOracle().inspector(supervised_cell_key(cell))
    return Simulator(config, obs=settings.obs.create()).run(lowered, inspect=inspect)


def _cell_worker(args: Tuple) -> SimulationResult:
    # Accepts (settings, cell) and (settings, cell, paranoid): supervised
    # payloads carry the flag, plain fan-out payloads predate it.
    settings, cell = args[0], args[1]
    paranoid = bool(args[2]) if len(args) > 2 else False
    return simulate_cell(settings, cell, paranoid=paranoid)


def _trace_worker(args: Tuple[RunSettings, str]) -> WorkloadTrace:
    settings, workload = args
    return generate_cell_trace(settings, workload)


# ------------------------------------------------------------------- engine


def _fan_out(
    items: List,
    worker: Callable,
    jobs: int,
    progress: Optional[Callable] = None,
) -> List:
    """Map ``worker`` over ``items`` with a process pool, preserving order.

    Results are collected as workers finish but returned in submission
    order, so callers observe deterministic merges.  ``jobs <= 1`` (or a
    single item) degrades to an in-process loop with no pool overhead.
    """
    if jobs <= 1 or len(items) <= 1:
        results = []
        for item in items:
            results.append(worker(item))
            if progress is not None:
                progress(item)
        return results
    by_index: Dict[int, object] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = {pool.submit(worker, item): index for index, item in enumerate(items)}
        for future in as_completed(futures):
            index = futures[future]
            by_index[index] = future.result()
            if progress is not None:
                progress(items[index])
    return [by_index[index] for index in range(len(items))]


def run_cells(
    settings: RunSettings,
    cells: Iterable[CellSpec],
    jobs: int = 1,
    progress: Optional[Callable[[CellSpec], None]] = None,
    paranoid: bool = False,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Simulate ``cells``, sharded over ``jobs`` worker processes.

    Returns ``{cell.cache_key: SimulationResult}`` in input order.  With
    ``jobs=1`` this is exactly the serial loop; with ``jobs>1`` each worker
    rebuilds its cell from the picklable spec, so results are identical.
    """
    cells = list(cells)
    results = _fan_out(
        [(settings, cell, paranoid) for cell in cells],
        _cell_worker,
        jobs,
        progress=None if progress is None else (lambda args: progress(args[1])),
    )
    return {cell.cache_key: result for cell, result in zip(cells, results)}


def run_cells_supervised(
    settings: RunSettings,
    cells: Iterable[CellSpec],
    config=None,
    paranoid: bool = False,
    on_result: Optional[Callable[[str, SimulationResult], None]] = None,
):
    """Simulate ``cells`` under the supervision layer.

    Like :func:`run_cells`, but hung/crashing workers are retried with
    backoff, repeat offenders are quarantined instead of failing the run,
    and execution degrades pool -> fresh-pool -> serial if workers keep
    dying.  Returns ``({cell.cache_key: SimulationResult}, report)``;
    quarantined cells are *absent* from the results dict and listed in
    ``report.quarantined`` (keyed by :func:`supervised_cell_key`), so they
    can never be mistaken for measurements or poison a cache.
    """
    from ..supervise import Supervisor, SupervisorConfig, Task

    cells = list(cells)
    tasks = [
        Task(key=supervised_cell_key(cell), payload=(settings, cell, paranoid))
        for cell in cells
    ]
    supervisor = Supervisor(config if config is not None else SupervisorConfig())
    results, report = supervisor.run(_cell_worker, tasks, on_result=on_result)
    merged = {
        cell.cache_key: results[supervised_cell_key(cell)]
        for cell in cells
        if supervised_cell_key(cell) in results
    }
    return merged, report


def generate_traces(
    settings: RunSettings,
    workloads: Iterable[str],
    jobs: int = 1,
) -> Dict[str, WorkloadTrace]:
    """Generate (deterministic) traces for ``workloads``, in parallel."""
    workloads = list(workloads)
    traces = _fan_out(
        [(settings, workload) for workload in workloads], _trace_worker, jobs
    )
    return dict(zip(workloads, traces))
