"""Parallel experiment engine and persistent cross-session artifact cache.

:class:`~repro.experiments.common.ExperimentSuite` memoises a session's
cells; this module computes them and keeps them across sessions.

**Execution** — :func:`run_cells` is the one way a cell is computed.  It
groups (workload, mechanism) cells by trace and shards the groups over
worker processes through :func:`repro.supervise.dispatch`, one task per
trace, in-process at ``jobs=1`` and under the supervisor when asked.
Every cell is described by a picklable :class:`CellSpec`; a task
generates its trace once and runs its cells through :func:`run_cell`,
sharing one :class:`TraceMemo`, so the cells of one trace share one base
pass and lower each distinct program, signed preamble and HBT prototype
once.  Results are bit-identical at any ``jobs`` and merge back into the
suite's memo in deterministic cell order regardless of worker completion
order.

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
from ..compiler.base import BasePass
from ..compiler.passes import HBTFactory, base_policy, resolve_lowering
from ..config import SystemConfig
from ..cpu.core import SimulationResult, Simulator
from ..obs import Observability
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

    ``variant`` names a trace recipe (:func:`generate_cell_trace`) and
    ``mix=True`` makes the task count the lowered program for Fig. 16
    instead of simulating it; both enter every key and fingerprint.
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
    variant: Optional[str] = None
    mix: bool = False

    @property
    def cache_key(self) -> Tuple[str, str]:
        """The (workload, key-or-mechanism) memo key used by the suite,
        suffixed ``@<variant>`` and ``:mix`` for such cells."""
        name = self.key or self.mechanism
        if self.variant is not None:
            name += f"@{self.variant}"
        return (self.workload, f"{name}:mix" if self.mix else name)

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


def trace_fingerprint(
    settings: RunSettings, workload: str, variant: Optional[str] = None
) -> str:
    """Content hash naming one generated trace in the artifact cache."""
    profile = get_profile(workload)
    body = {
        "schema": CACHE_SCHEMA,
        "code": code_version(),
        "kind": "trace",
        "profile": dataclasses.asdict(profile),
        "settings": dataclasses.asdict(settings),
        "variant": variant,
    }
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


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
    body = {
        "schema": CACHE_SCHEMA,
        "code": code_version(),
        "kind": "result",
        "mechanism": cell.mechanism,
        "mechanism_token": _mechanism_cache_token(cell.mechanism),
        "config": dataclasses.asdict(config),
        "variant": cell.variant,
        "mix": cell.mix,
    }
    if cell.trace_digest is not None:
        body.update(
            ingested=True,
            trace_digest=cell.trace_digest,
            metrics=settings.metrics,
        )
    else:
        body.update(
            workload=cell.workload,
            profile=dataclasses.asdict(get_profile(cell.workload)),
            settings=dataclasses.asdict(settings),
        )
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


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


#: kind -> file suffix of an entry, ``<root>/<kind>/<sha><suffix>``.
KIND_SUFFIXES = {"results": ".json", "traces": ".pkl", "native": ".so"}


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact, as seen by pruning and statistics."""

    kind: str
    fingerprint: str
    size: int
    #: Last use: the file's mtime, which every hit refreshes; the LRU
    #: prune evicts the smallest stamps first.
    used: float


class ArtifactCache:
    """Persistent, content-addressed store for traces and simulation results.

    Entries are files under one directory, ``<root>/<kind>/<sha><suffix>``
    (``results/<sha256>.json``, ``traces/<sha256>.pkl``, and the C
    kernel's ``native/*.so``).  Writes are atomic (temp file +
    ``os.replace``), so a killed run never leaves a torn entry;
    unreadable or undecodable entries are counted in
    :attr:`CacheStats.corrupt`, removed best-effort, and treated as misses.

    ``max_bytes`` (or ``$REPRO_CACHE_MAX_BYTES``) caps total size: after
    each store the least-recently-used entries are evicted until the
    cache fits.  A hit touches its entry's mtime, so the eviction order
    goes by use, not by write time.  :meth:`prune` runs the same eviction
    on demand (``python -m repro cache --prune``).
    """

    def __init__(
        self,
        root: Union[None, str, Path] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = (
            max_bytes if max_bytes is not None else default_cache_max_bytes()
        )
        self.stats = CacheStats()

    # -------------------------------------------------------------- plumbing

    def _path(self, kind: str, fingerprint: str) -> Path:
        suffix = KIND_SUFFIXES.get(kind, ".bin")
        return self.root / kind / f"{fingerprint}{suffix}"

    def remove(self, kind: str, fingerprint: str) -> None:
        """Drop one entry; an entry that does not exist is no error."""
        try:
            self._path(kind, fingerprint).unlink()
        except OSError:
            pass

    def _get(self, kind: str, fingerprint: str, decoder: Callable) -> Optional[object]:
        path = self._path(kind, fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
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
            self.remove(kind, fingerprint)
            return None
        try:
            os.utime(path)  # a hit is a use: the LRU cap goes by it
        except OSError:
            pass
        self.stats.hits += 1
        return value

    def _put(self, kind: str, fingerprint: str, data: bytes) -> None:
        path = self._path(kind, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
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

    def entries(self) -> List[CacheEntry]:
        """Every stored entry; in-flight temp files are not entries."""
        found: List[CacheEntry] = []
        if not self.root.exists():
            return found
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.iterdir()):
                if path.name.startswith(".") or not path.is_file():
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append(
                    CacheEntry(
                        kind=kind_dir.name,
                        fingerprint=path.name.rsplit(".", 1)[0],
                        size=stat.st_size,
                        used=stat.st_mtime,
                    )
                )
        return found

    def usage(self) -> Dict[str, object]:
        """Size/entry statistics, the ``repro cache --stats`` payload."""
        entries = self.entries()
        by_kind: Dict[str, Dict[str, int]] = {}
        for entry in entries:
            bucket = by_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size
        return {
            "root": str(self.root),
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
        entries = self.entries()
        total = sum(entry.size for entry in entries)
        if cap is not None and total > cap:
            # Oldest-used first; fingerprint tiebreak keeps eviction
            # order deterministic when stamps collide (coarse mtimes).
            for entry in sorted(entries, key=lambda e: (e.used, e.fingerprint)):
                if total <= cap:
                    break
                self.remove(entry.kind, entry.fingerprint)
                total -= entry.size
                report.evicted += 1
                report.reclaimed_bytes += entry.size
            self.stats.evicted += report.evicted
        remaining = self.entries()
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


#: The trace variant of §V-F3's resize ablation (``CellSpec.variant``).
GROWTH = "growth"


def generate_cell_trace(
    settings: RunSettings, workload: str, variant: Optional[str] = None
) -> WorkloadTrace:
    """The deterministic trace for ``workload`` under ``settings``.

    ``variant=GROWTH`` is an allocation *phase* of the workload: a small
    starting heap, a malloc storm and a live set that only grows through
    the window, so HBT rows overflow while the clock is running.  A
    coarse scale shrinks the PAC space so the storm reaches overflow
    within a simulable window.
    """
    profile = get_profile(workload)
    scale, grow_live_by = settings.scale, 0
    if variant == GROWTH:
        profile = dataclasses.replace(profile, mallocs_per_kinst=200.0, initial_live=64)
        scale, grow_live_by = 64, 10 * settings.instructions  # never free
    elif variant is not None:
        raise ValueError(f"unknown trace variant {variant!r}")
    return generate_trace(
        profile,
        instructions=settings.instructions,
        seed=settings.seed,
        scale=scale,
        grow_live_by=grow_live_by,
    )


def load_cell_trace(settings: RunSettings, cell: CellSpec) -> WorkloadTrace:
    """The trace ``cell`` simulates: imported from its file for an ingested
    cell (a pure function of the file bytes), generated otherwise."""
    if cell.trace_path is not None:
        from ..traces import import_trace

        return import_trace(cell.trace_path)
    return generate_cell_trace(settings, cell.workload, cell.variant)


def trace_group_key(cell: CellSpec) -> str:
    """The trace ``cell`` simulates: its file path for an ingested cell,
    else its workload (``<workload>@<variant>`` for a trace variant).
    Cells with one key share a :class:`TraceMemo` and form one dispatch
    task."""
    if cell.trace_path is not None:
        return cell.trace_path
    return cell.workload if cell.variant is None else f"{cell.workload}@{cell.variant}"


def supervised_cell_key(cell: CellSpec) -> str:
    """The stable string naming one cell, e.g. in invariant-oracle reports.

    The supervisor's unit is the trace group: its tasks, retries and
    quarantine records are keyed by :func:`trace_group_key`, and by this
    key only when a sweep has fewer traces than workers and each cell is
    its own task.
    """
    workload, name = cell.cache_key
    return f"{workload}/{name}"


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
    only the products it still needs.
    """

    def __init__(
        self,
        load_trace: Callable[[], WorkloadTrace],
        uses: Iterable[Tuple[str, SystemConfig]],
    ) -> None:
        self._load_trace = load_trace
        self._trace: Optional[WorkloadTrace] = None
        self._bases: Dict[tuple, BasePass] = {}
        self._lowerings: Dict[tuple, LoweredWorkload] = {}
        self._factories: Dict[tuple, HBTFactory] = {}
        self._products: Dict[tuple, LoweredWorkload] = {}
        self._remaining = Counter()
        for mechanism, config in uses:
            self._remaining.update(self._keys(mechanism, config))

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

    def lowering(self, mechanism: str, config: SystemConfig) -> LoweredWorkload:
        """``mechanism``'s lowering under ``config``."""
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

    This is the single simulation implementation: every task of
    :func:`run_cells`, supervised or not, calls exactly this function
    with exactly these (deterministic) inputs, which is what makes every
    executor bit-identical to a serial run.  ``memo`` is the
    :class:`TraceMemo` of the cell's trace, shared with the other cells of
    its group; without it the cell builds its own trace and lowering.
    Either way generation and lowering run inside this call.

    ``paranoid=True`` audits the drained MCU/HBT state through the
    invariant oracle before the result is accepted; a violated invariant
    raises :class:`~repro.errors.InvariantViolation` instead of returning
    a silently-corrupt measurement.

    With ``settings.metrics`` each worker builds its own live
    :class:`~repro.obs.Observability` here and returns only the JSON-able
    snapshot in ``SimulationResult.metrics``: live registries never cross
    the process boundary.
    """
    config = cell.resolved_config(settings)
    if memo is None:
        memo = TraceMemo(
            partial(load_cell_trace, settings, cell), [(cell.mechanism, config)]
        )
    lowered = memo.lowering(cell.mechanism, config)
    inspect = None
    if paranoid:
        from ..supervise.oracle import InvariantOracle

        inspect = InvariantOracle().inspector(supervised_cell_key(cell))
    obs = Observability() if settings.metrics else None
    return Simulator(config, obs=obs).run(lowered, inspect=inspect)


def run_cell(
    settings: RunSettings, cell: CellSpec, memo: TraceMemo, paranoid: bool = False
) -> Union[SimulationResult, dict]:
    """One cell's outcome through its group's ``memo``:
    :func:`simulate_cell`'s result, or for a mix cell the Fig. 16 counts
    of its lowered program (never simulated)."""
    if not cell.mix:
        return simulate_cell(settings, cell, memo=memo, paranoid=paranoid)
    from .fig16 import instruction_mix

    config = cell.resolved_config(settings)
    return instruction_mix(memo.lowering(cell.mechanism, config))


def _group_worker(args: tuple) -> List[Union[SimulationResult, dict]]:
    """Run one trace group ``(settings, cells, paranoid)``: its cells, in
    order, through one :class:`TraceMemo`."""
    settings, cells, paranoid = args
    memo = TraceMemo(
        partial(load_cell_trace, settings, cells[0]),
        [(cell.mechanism, cell.resolved_config(settings)) for cell in cells],
    )
    return [run_cell(settings, cell, memo=memo, paranoid=paranoid) for cell in cells]


# ------------------------------------------------------------------- engine


def run_cells(
    settings: RunSettings,
    cells: Iterable[CellSpec],
    jobs: int = 1,
    supervise=None,
    paranoid: bool = False,
    on_cell: Optional[Callable[[CellSpec, SimulationResult], None]] = None,
):
    """Simulate ``cells``, one task per trace over ``jobs`` worker processes.

    Returns ``({cell.cache_key: SimulationResult}, report)`` in input
    order.  The cells of one trace run in one task through one
    :class:`TraceMemo`; with fewer traces than workers each cell is its
    own task instead, so no worker idles.  Every task rebuilds its cells
    from the picklable specs, so results are identical at any ``jobs``.
    ``on_cell(cell, result)`` is called for each cell as its task lands
    (in completion order), so a caller can persist results before the
    whole batch is done.

    Without ``supervise`` the report is None and a failing cell raises
    the worker's own exception.  With a
    :class:`~repro.supervise.SupervisorConfig` the supervised unit is one
    task: a hung or crashing one is retried with backoff and a repeat
    offender quarantined instead of failing the run; every task runs in a
    worker process, so none can take the caller down.  ``deadline_s``
    keeps its per-cell meaning: a task may run for it times the largest
    group's cell count.  The cells of a quarantined task are *absent*
    from the results and ``report.quarantined`` names the task by
    :func:`trace_group_key` (by :func:`supervised_cell_key` when each
    cell was its own task), so no such cell can be mistaken for a
    measurement or poison a cache.
    """
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
    forks = supervise is not None or (jobs > 1 and len(tasks) > 1)
    if tasks and forks:
        # The workers fork from this process: build or load the fast kernel
        # here once, so that every worker inherits it.
        from ..kernel.fast import native

        native()

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
