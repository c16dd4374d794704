"""Filesystem heartbeat board shared between the work queue and its workers.

Queue workers (:mod:`repro.queue`) are independent processes that lease
cells from a durable store, so the service needs a side channel to tell
a live worker from a dead one.  Each worker stamps
``<board>/<worker digest>.start`` when it starts and refreshes ``.beat``
from a daemon thread; the store reclaims the leases of a worker whose
beat went stale.

Files carry ``time.time()`` as text.  Board and workers always share a
host (the queue directory is local), so comparing those stamps against
the reader's clock is sound.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path
from typing import Optional


def _digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:24]


class HeartbeatBoard:
    """One directory of start/beat stamps, keyed by task key digest."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ worker side

    def _stamp(self, key: str, suffix: str) -> None:
        path = self.root / f"{_digest(key)}.{suffix}"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(repr(time.time()))
            os.replace(tmp, path)
        except OSError:
            pass  # a lost beat only makes the parent *more* suspicious

    def start_task(self, key: str) -> None:
        self._stamp(key, "start")
        self._stamp(key, "beat")

    def beat(self, key: str) -> None:
        self._stamp(key, "beat")

    def finish_task(self, key: str) -> None:
        for suffix in ("start", "beat"):
            try:
                (self.root / f"{_digest(key)}.{suffix}").unlink()
            except OSError:
                pass

    # ------------------------------------------------------------ parent side

    def _read(self, key: str, suffix: str) -> Optional[float]:
        path = self.root / f"{_digest(key)}.{suffix}"
        try:
            return float(path.read_text())
        except (OSError, ValueError):
            return None

    def started_at(self, key: str) -> Optional[float]:
        """Wall-clock time the task was picked up, or None if still queued."""
        return self._read(key, "start")

    def last_beat(self, key: str) -> Optional[float]:
        return self._read(key, "beat")

    def clear(self, key: str) -> None:
        self.finish_task(key)

    # ------------------------------------------------------------- hygiene

    def sweep_stale(self, max_age_s: float) -> int:
        """Delete stamp files older than ``max_age_s``; returns the count.

        A SIGKILLed run leaves its last stamps behind; a later run sharing
        the board (persistent queue directories do) must not mistake those
        for live workers *or* let them accumulate forever.  Only files with
        the board's stamp suffixes are touched.
        """
        cutoff = time.time() - max_age_s
        removed = 0
        try:
            entries = list(self.root.iterdir())
        except OSError:
            return 0
        for path in entries:
            if path.suffix not in (".start", ".beat"):
                continue
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # raced with a concurrent finish_task
        return removed


def beat_forever(
    board: HeartbeatBoard, key: str, interval_s: float, stop: threading.Event
) -> None:
    """Daemon-thread body refreshing ``key``'s beat until ``stop`` is set."""
    while not stop.wait(interval_s):
        board.beat(key)


def start_beat_thread(
    board: HeartbeatBoard, key: str, interval_s: float
) -> threading.Event:
    """Stamp ``key`` as started and refresh its beat from a daemon thread.

    Returns the stop event; the caller sets it (and calls
    :meth:`HeartbeatBoard.finish_task`) when the task body returns.
    """
    board.start_task(key)
    stop = threading.Event()
    thread = threading.Thread(
        target=beat_forever,
        args=(board, key, interval_s, stop),
        name=f"heartbeat:{_digest(key)[:8]}",
        daemon=True,
    )
    thread.start()
    return stop
