"""Storage backends for the persistent artifact cache.

:class:`~repro.experiments.parallel.ArtifactCache` keeps its entries in a
:class:`CacheBackend`, an abstract ``(kind, fingerprint) -> bytes`` store,
so the cache's serialisation, corrupt-entry accounting and LRU size cap
are written once and tested against a fake.  Two implementations:

``LocalDirBackend``
    The on-disk layout every CLI run uses (``<root>/results/<sha>.json``,
    ``<root>/traces/<sha>.pkl``), byte-compatible with caches written by
    earlier versions — existing entries keep hitting.  Writes are atomic
    (temp file + ``os.replace``), so a SIGKILLed run never leaves a torn
    entry.

``MemoryBackend``
    A process-local dict with a logical access clock: zero I/O, the
    backend tests substitute for the directory.

Every backend also supports enumeration (:meth:`CacheBackend.entries`)
and removal, which is what the LRU size cap and the
``python -m repro cache --stats/--prune`` subcommand are built on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: kind -> on-disk suffix, kept for byte-compatibility with old caches.
KIND_SUFFIXES = {"results": ".json", "traces": ".pkl", "native": ".so"}


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact, as seen by pruning/statistics."""

    kind: str
    fingerprint: str
    size: int
    #: Last-use stamp (mtime for disk backends, a logical clock in
    #: memory); the LRU prune evicts smallest stamps first.
    used: float


class CacheBackend:
    """Abstract ``(kind, fingerprint) -> bytes`` store."""

    name = "abstract"

    def read(self, kind: str, fingerprint: str) -> Optional[bytes]:
        """The stored payload, or None on a miss.  Never raises for a
        missing entry; undecodable *content* is the caller's problem."""
        raise NotImplementedError

    def write(self, kind: str, fingerprint: str, data: bytes) -> None:
        raise NotImplementedError

    def remove(self, kind: str, fingerprint: str) -> None:
        """Drop one entry; silently ignores entries that do not exist."""
        raise NotImplementedError

    def entries(self) -> List[CacheEntry]:
        """Every stored entry (unordered); the prune/stats substrate."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    # ------------------------------------------------------------ derived

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())


def _suffix(kind: str) -> str:
    return KIND_SUFFIXES.get(kind, ".bin")


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


class LocalDirBackend(CacheBackend):
    """The classic per-user directory layout (``<root>/<kind>/<sha><sfx>``)."""

    name = "local"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, kind: str, fingerprint: str) -> Path:
        return self.root / kind / f"{fingerprint}{_suffix(kind)}"

    def read(self, kind: str, fingerprint: str) -> Optional[bytes]:
        try:
            return self._path(kind, fingerprint).read_bytes()
        except OSError:
            return None

    def write(self, kind: str, fingerprint: str, data: bytes) -> None:
        _atomic_write(self._path(kind, fingerprint), data)

    def remove(self, kind: str, fingerprint: str) -> None:
        try:
            self._path(kind, fingerprint).unlink()
        except OSError:
            pass

    def entries(self) -> List[CacheEntry]:
        found: List[CacheEntry] = []
        if not self.root.exists():
            return found
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.iterdir()):
                if path.name.startswith(".") or not path.is_file():
                    continue  # in-flight temp files are not entries
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

    def describe(self) -> str:
        return f"local dir @ {self.root}"


class MemoryBackend(CacheBackend):
    """In-process dict store; ``used`` is a logical access clock."""

    name = "memory"

    def __init__(self) -> None:
        self._data: Dict[Tuple[str, str], bytes] = {}
        self._used: Dict[Tuple[str, str], int] = {}
        self._clock = 0

    def _touch(self, key: Tuple[str, str]) -> None:
        self._clock += 1
        self._used[key] = self._clock

    def read(self, kind: str, fingerprint: str) -> Optional[bytes]:
        key = (kind, fingerprint)
        data = self._data.get(key)
        if data is not None:
            self._touch(key)
        return data

    def write(self, kind: str, fingerprint: str, data: bytes) -> None:
        key = (kind, fingerprint)
        self._data[key] = data
        self._touch(key)

    def remove(self, kind: str, fingerprint: str) -> None:
        self._data.pop((kind, fingerprint), None)
        self._used.pop((kind, fingerprint), None)

    def entries(self) -> List[CacheEntry]:
        return [
            CacheEntry(kind, fingerprint, len(data), float(self._used[key]))
            for key, data in self._data.items()
            for kind, fingerprint in [key]
        ]

    def describe(self) -> str:
        return f"memory ({len(self._data)} entries)"
