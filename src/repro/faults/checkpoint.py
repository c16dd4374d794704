"""Crash-safe JSONL checkpointing for long sweeps.

A :class:`CheckpointStore` persists one JSON record per completed cell of
a fault-injection campaign (``faultinject --fault-checkpoint``) so an
interrupted campaign resumes where it stopped instead of recomputing it.

File format — first line is a header carrying the sweep's configuration
fingerprint, each following line one completed cell::

    {"meta": {...}}
    {"k": <json key>, "v": <json value>}
    {"k": <json key>, "v": <json value>}

Every :meth:`put` appends its one line to the open file and fsyncs it
before returning, so a put costs the same on the ten-thousandth cell as
on the first.  A put that fails partway truncates the file back to where
it started, and a kill in mid-write leaves at most one torn last line,
which :meth:`_load` skips and terminates on the next open.  The header
(a fresh file, or a restart after a mismatch) is written to a temp file
that ``os.replace`` moves into place, so the file always starts with a
complete header.  A header mismatch (different instructions/seed/scale,
different campaign shape) invalidates the file: resuming with stale
results would silently mix incompatible measurements, which is worse
than recomputing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import CheckpointError


def _canonical(key: Any) -> str:
    """Stable string form of a JSON-able key (lists/tuples normalise)."""
    return json.dumps(key, sort_keys=True)


class CheckpointStore:
    """Durable ``key -> JSON value`` map backed by an append-only file."""

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
        on_mismatch: str = "restart",
    ) -> None:
        """Open (or create) the checkpoint at ``path``.

        ``meta`` is the run-configuration fingerprint.  If the file exists
        with a different fingerprint: ``on_mismatch='restart'`` discards it
        and starts fresh; ``'error'`` raises :class:`CheckpointError`.
        """
        if on_mismatch not in ("restart", "error"):
            raise CheckpointError(f"unknown on_mismatch policy {on_mismatch!r}")
        self.path = Path(path)
        self.meta = dict(meta or {})
        self._cells: Dict[str, Tuple[Any, Any]] = {}
        self._resumed = 0
        self._fh: Optional[BinaryIO] = None
        if self.path.exists():
            self._load(on_mismatch)
        else:
            self._write_header()

    # -------------------------------------------------------------- loading

    def _load(self, on_mismatch: str) -> None:
        text = self.path.read_text()
        if text and not text.endswith("\n"):
            # Torn tail from an interrupted write: terminate it so the next
            # append starts on a fresh line instead of gluing onto garbage.
            with open(self.path, "a") as fh:
                fh.write("\n")
        lines = text.splitlines()
        header: Optional[Dict[str, Any]] = None
        cells: Dict[str, Tuple[Any, Any]] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from an interrupted run
            if "meta" in obj and header is None:
                header = obj["meta"]
            elif "k" in obj:
                cells[_canonical(obj["k"])] = (obj["k"], obj.get("v"))
        if header != self.meta:
            if on_mismatch == "error":
                raise CheckpointError(
                    f"{self.path}: checkpoint belongs to a different run "
                    f"configuration (have {header!r}, want {self.meta!r})"
                )
            self._write_header()  # restart: truncate and stamp fresh header
            return
        self._cells = cells
        self._resumed = len(cells)

    def _write_header(self) -> None:
        """Start an empty store: atomically replace the file with a
        header-only one (temp file fsynced in full, then ``os.replace``)."""
        self._cells = {}
        self._resumed = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(json.dumps({"meta": self.meta}) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------ map  API

    def __contains__(self, key: Any) -> bool:
        return _canonical(key) in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: Any, default: Any = None) -> Any:
        cell = self._cells.get(_canonical(key))
        return default if cell is None else cell[1]

    def put(self, key: Any, value: Any) -> None:
        """Record one completed cell durably: append its line and fsync.

        If the write fails partway (disk full, a signal mid-write), the
        file is truncated back to its previous end and the in-memory map
        is rolled back to match it.
        """
        line = (json.dumps({"k": key, "v": value}) + "\n").encode()
        if self._fh is None:
            self._fh = open(self.path, "ab")
        offset = self._fh.tell()
        canon = _canonical(key)
        previous = self._cells.get(canon)
        self._cells[canon] = (key, value)
        try:
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except BaseException:
            if previous is None:
                self._cells.pop(canon, None)
            else:
                self._cells[canon] = previous
            # Close the handle (its retried flush may land or not), then
            # cut the file back; the next put reopens at the new end.
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:
                pass
            try:
                os.truncate(self.path, offset)
            except OSError:
                pass
            raise

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for key, value in self._cells.values():
            yield key, value

    def keys(self) -> List[Any]:
        return [key for key, _ in self._cells.values()]

    @property
    def resumed_cells(self) -> int:
        """Cells loaded from disk at open time (0 for a fresh sweep)."""
        return self._resumed
