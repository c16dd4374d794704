"""Parallel experiment engine and persistent cross-session artifact cache.

The serial :class:`~repro.experiments.common.ExperimentSuite` computes its
16-workload x 5-mechanism sweep one cell at a time in one process and
forgets everything when the session ends.  This module adds the two missing
layers:

**Parallel execution** — :func:`run_cells` groups (workload, mechanism)
simulation cells by trace and shards the groups over worker processes
through :func:`repro.supervise.dispatch`, one task per trace.  Every cell
is described by a picklable :class:`CellSpec`; a task generates its trace
once and runs its cells through :func:`simulate_cell` — the same pure
function the serial path uses — sharing one :class:`TraceMemo`, so the
cells of one trace share one base pass and lower each distinct program,
signed preamble and HBT prototype once.  Results are bit-identical to
serial ones and merge back into the suite's memo in deterministic cell
order regardless of worker completion order.

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
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..compiler import LoweredWorkload, lower_trace
from ..compiler.passes import BasePass, HBTFactory, base_policy, resolve_lowering
from ..config import SystemConfig, default_config
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
    """Digest of every ``repro`` source file — the Python modules and the
    C kernel — so cache entries die with the code that produced them."""
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    sources = [*package_root.rglob("*.py"), *package_root.rglob("*.c")]
    for path in sorted(sources):
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

    def format(self) -> str:
        return (
            f"evicted {self.evicted} entries "
            f"({self.reclaimed_bytes} bytes reclaimed); "
            f"{self.remaining_entries} entries / "
            f"{self.remaining_bytes} bytes remain"
        )


class ArtifactCache:
    """Persistent, content-addressed store for traces and simulation results.

    Entries live in a :class:`~repro.experiments.backends.CacheBackend`:
    the ``<root>/results/<sha256>.json`` + ``<root>/traces/<sha256>.pkl``
    directory by default, byte-compatible with caches written by earlier
    versions, or any backend passed in (the tests pass an in-memory one).
    Writes are atomic, so a killed run never leaves a torn entry;
    unreadable or undecodable entries are counted in
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
        return {
            "backend": self.backend.describe(),
            "entries": len(entries),
            "bytes": sum(entry.size for entry in entries),
            "max_bytes": self.max_bytes,
            "kinds": {kind: by_kind[kind] for kind in sorted(by_kind)},
        }

    def prune(self, max_bytes: Optional[int] = None) -> PruneReport:
        """Evict least-recently-used entries until the cache fits.

        ``max_bytes=None`` falls back to the instance cap; with neither
        set the call only reports current usage.  ``max_bytes=0`` empties
        the cache.
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


def load_cell_trace(settings: RunSettings, cell: CellSpec) -> WorkloadTrace:
    """The trace ``cell`` simulates: imported from its file for an ingested
    cell (a pure function of the file bytes), generated otherwise."""
    if cell.trace_path is not None:
        from ..traces import import_trace

        return import_trace(cell.trace_path)
    return generate_cell_trace(settings, cell.workload)


def trace_group_key(cell: CellSpec) -> str:
    """The trace ``cell`` simulates: its file path for an ingested cell,
    else its workload.  Cells with one key share a :class:`TraceMemo` and
    form one dispatch task."""
    return cell.trace_path if cell.trace_path is not None else cell.workload


def supervised_cell_key(cell: CellSpec) -> str:
    """The stable string naming one cell, e.g. in invariant-oracle reports.

    The supervisor's unit is the trace group: its tasks, retries and
    quarantine records are keyed by :func:`trace_group_key`, and by this
    key only when a sweep has fewer traces than workers and each cell is
    its own task.
    """
    return f"{cell.workload}/{cell.key or cell.mechanism}"


class TraceMemo:
    """One trace's shared work across the cells that simulate it.

    Lowering reads only ``pa.pac_bits`` and ``pa.key`` of a cell's config,
    so the memo builds each product once per distinct key:

    - the trace, on the first cell that needs it;
    - the base pass, per allocator policy (:func:`base_policy`); it also
      holds the signed preamble per (``pa.pac_bits``, ``pa.key``), shared
      by the AOS and PA+AOS lowerings;
    - the lowered program, per (lowering token, ``pa.pac_bits``,
      ``pa.key``);
    - the HBT prototype (its :class:`~repro.compiler.passes.HBTFactory`),
      per (``pa.pac_bits``, ``pa.key``, ``hbt.initial_ways``,
      ``aos.bounds_compression``), shared by AOS and PA+AOS.

    ``uses`` lists the (mechanism, config) of every cell the memo will
    serve; each product is dropped after its last use, so a group holds
    only the products it still needs.  Without ``uses`` (the suite's
    memo) products are kept until the memo is dropped.
    """

    def __init__(
        self,
        load_trace: Callable[[], WorkloadTrace],
        uses: Optional[Iterable[Tuple[str, SystemConfig]]] = None,
    ) -> None:
        self._load_trace = load_trace
        self._trace: Optional[WorkloadTrace] = None
        self._bases: Dict[tuple, BasePass] = {}
        self._lowerings: Dict[tuple, LoweredWorkload] = {}
        self._factories: Dict[tuple, HBTFactory] = {}
        self._products: Dict[tuple, LoweredWorkload] = {}
        self._remaining: Optional[Counter] = None
        if uses is not None:
            self._remaining = Counter()
            for mechanism, config in uses:
                self._remaining.update(self._keys(mechanism, config))

    def __len__(self) -> int:
        """Lowered programs currently held."""
        return len(self._lowerings)

    @property
    def trace(self) -> WorkloadTrace:
        if self._trace is None:
            self._trace = self._load_trace()
        return self._trace

    @staticmethod
    def _keys(mechanism: str, config: SystemConfig) -> Tuple[tuple, ...]:
        """The (base pass, lowering, HBT prototype, product) keys of a cell."""
        token = resolve_lowering(mechanism)
        pa = (config.pa.pac_bits, config.pa.key)
        geometry = (config.hbt.initial_ways, config.aos.bounds_compression)
        lowering = (token, *pa)
        hbt = (*pa, *geometry) if token in ("aos", "pa+aos") else None
        return (base_policy(token),), lowering, hbt, lowering + geometry

    def lowered(
        self, mechanism: str, config: Optional[SystemConfig] = None
    ) -> LoweredWorkload:
        """``mechanism``'s lowering under ``config`` (default: the
        mechanism's Table IV config, as :func:`lower_trace`)."""
        if config is None:
            config = default_config(resolve_lowering(mechanism))
        base, lowering, hbt, product_key = keys = self._keys(mechanism, config)
        product = self._products.get(product_key)
        if product is None:
            product = self._lowerings.get(lowering)
            if product is None:
                product = lower_trace(
                    self.trace, mechanism, config, base=self._bases.get(base)
                )
                self._lowerings[lowering] = product
                self._bases[base] = product.base
            if product.hbt_factory is not None:
                factory = self._factories.get(hbt)
                if factory is None:
                    factory = product.hbt_factory.for_config(config)
                    self._factories[hbt] = factory
                product = dataclasses.replace(product, hbt_factory=factory)
            self._products[product_key] = product
        if self._remaining is not None:
            self._remaining.subtract(keys)
            stores = (self._bases, self._lowerings, self._factories, self._products)
            for key, store in zip(keys, stores):
                if self._remaining[key] <= 0:
                    store.pop(key, None)
        return product


def simulate_cell(
    settings: RunSettings,
    cell: CellSpec,
    memo: Optional[TraceMemo] = None,
    paranoid: bool = False,
) -> SimulationResult:
    """Run one cell: trace -> lowering -> simulation.

    This is the single simulation implementation: pool workers, the
    supervisor and :meth:`ExperimentSuite.result` all call exactly this
    function with exactly these (deterministic) inputs, which is what
    makes every executor bit-identical to a serial run.  ``memo`` is the
    :class:`TraceMemo` of the cell's trace, shared with the other cells of
    its group (or the suite); without it the cell builds its own trace and
    lowering.  Either way generation and lowering run inside this call.

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
    if memo is None:
        memo = TraceMemo(partial(load_cell_trace, settings, cell))
    lowered = memo.lowered(cell.mechanism, config)
    inspect = None
    if paranoid:
        from ..supervise.oracle import InvariantOracle

        inspect = InvariantOracle().inspector(supervised_cell_key(cell))
    return Simulator(config, obs=settings.obs.create()).run(lowered, inspect=inspect)


def _group_worker(args: tuple) -> List[SimulationResult]:
    """Simulate one trace group ``(settings, cells, paranoid)``: its cells,
    in order, through one :class:`TraceMemo`."""
    settings, cells, paranoid = args
    memo = TraceMemo(
        partial(load_cell_trace, settings, cells[0]),
        [(cell.mechanism, cell.resolved_config(settings)) for cell in cells],
    )
    return [
        simulate_cell(settings, cell, memo=memo, paranoid=paranoid) for cell in cells
    ]


def _trace_worker(args: Tuple[RunSettings, str]) -> WorkloadTrace:
    settings, workload = args
    return generate_cell_trace(settings, workload)


# ------------------------------------------------------------------- engine


def _dispatch_cells(
    settings: RunSettings,
    cells: Iterable[CellSpec],
    paranoid: bool,
    jobs: int = 1,
    supervise=None,
    on_cell: Optional[Callable[[CellSpec, SimulationResult], None]] = None,
):
    """One :func:`repro.supervise.dispatch` call with one task per trace
    group, or per cell when there are fewer traces than workers; returns
    ``({cell.cache_key: SimulationResult}, report)`` in cell order.
    ``on_cell(cell, result)`` sees each cell as soon as its task lands."""
    from ..supervise import Task, dispatch

    cells = list(cells)
    groups: Dict[str, List[CellSpec]] = {}
    for cell in cells:
        groups.setdefault(trace_group_key(cell), []).append(cell)
    workers = supervise.effective_jobs(jobs) if supervise is not None else jobs
    if len(groups) < workers:
        # Too few traces to keep every worker busy: one task per cell.
        groups = {supervised_cell_key(cell): [cell] for cell in cells}
    if supervise is not None and supervise.deadline_s is not None:
        # ``deadline_s`` is per cell; a task runs up to the largest group's
        # cell count of them back to back.
        longest = max((len(group) for group in groups.values()), default=1)
        supervise = dataclasses.replace(
            supervise, deadline_s=supervise.deadline_s * longest
        )
    tasks = [
        Task(key=key, payload=(settings, tuple(group), paranoid))
        for key, group in groups.items()
    ]

    def landed(key: str, results: List[SimulationResult]) -> None:
        for cell, result in zip(groups[key], results):
            on_cell(cell, result)

    on_result = None if on_cell is None else landed
    results, report = dispatch(_group_worker, tasks, jobs, supervise, on_result)
    computed = {
        cell.cache_key: result
        for key, group in groups.items()
        for cell, result in zip(group, results.get(key, ()))  # quarantined: ()
    }
    ordered = [cell.cache_key for cell in cells if cell.cache_key in computed]
    return {key: computed[key] for key in ordered}, report


def run_cells(
    settings: RunSettings,
    cells: Iterable[CellSpec],
    jobs: int = 1,
    paranoid: bool = False,
    on_cell: Optional[Callable[[CellSpec, SimulationResult], None]] = None,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Simulate ``cells``, one task per trace over ``jobs`` worker processes.

    Returns ``{cell.cache_key: SimulationResult}`` in input order.  The
    cells of one trace run in one task through one :class:`TraceMemo`;
    with fewer traces than ``jobs`` each cell is its own task instead, so
    no worker idles.  Every task rebuilds its cells from the picklable
    specs, so results are identical at any ``jobs``.  A failing cell
    raises the worker's own exception.  ``on_cell(cell, result)`` is
    called for each cell as its task lands (in completion order), so a
    caller can persist results before the whole batch is done.
    """
    return _dispatch_cells(settings, cells, paranoid, jobs=jobs, on_cell=on_cell)[0]


def run_cells_supervised(
    settings: RunSettings,
    cells: Iterable[CellSpec],
    config=None,
    paranoid: bool = False,
    on_cell: Optional[Callable[[CellSpec, SimulationResult], None]] = None,
):
    """Simulate ``cells`` under the supervision layer.

    Like :func:`run_cells`, but the supervised unit is one trace group:
    a hung or crashing group is retried with backoff, a repeat offender
    is quarantined instead of failing the run; every group runs in a
    worker process, so none can take the caller down.  ``deadline_s``
    keeps its per-cell meaning: a group's task may run for it times the
    largest group's cell count.  Returns ``({cell.cache_key:
    SimulationResult}, report)``; every cell of a quarantined group is
    *absent* from the results dict and ``report.quarantined`` names the
    group by :func:`trace_group_key` (by :func:`supervised_cell_key` when
    fewer traces than workers made each cell its own task), so no such
    cell can be mistaken for a measurement or poison a cache.
    ``on_cell`` is as for :func:`run_cells`.
    """
    from ..supervise import SupervisorConfig

    supervise = config if config is not None else SupervisorConfig()
    return _dispatch_cells(
        settings, cells, paranoid, supervise=supervise, on_cell=on_cell
    )


def generate_traces(
    settings: RunSettings,
    workloads: Iterable[str],
    jobs: int = 1,
) -> Dict[str, WorkloadTrace]:
    """Generate (deterministic) traces for ``workloads``, in parallel."""
    from ..supervise import Task, dispatch

    tasks = [Task(key=w, payload=(settings, w)) for w in dict.fromkeys(workloads)]
    traces, _ = dispatch(_trace_worker, tasks, jobs)
    return traces
