"""The lease-based queue worker: claim, run, ack, repeat.

A worker is deliberately dumb and stateless: everything it knows lives in
the queue directory (SQLite database + heartbeat board) and the artifact
store.  It claims a batch of cells under a TTL lease, stamps its liveness
on the shared :class:`~repro.supervise.HeartbeatBoard`, classifies each
cell via the *same* :func:`~repro.faults.campaign.run_campaign_cell` the
serial sweep uses, and acks the result back inside the queue's
exactly-once ``done`` transition.  A worker that dies mid-cell simply
stops beating; its leases expire and the cells are reclaimed.

Two queue-level chaos faults are injected here so the harness can attack
the queue itself (:class:`~repro.faults.QueueFaultKind`):

``worker-kill``
    ``kill_after_cells=K`` makes the worker SIGKILL *itself* after
    acking K cells — a crash the worker cannot clean up after, which is
    exactly the point.

``lease-clock-skew``
    ``clock_skew_s`` offsets the clock this worker stamps leases and
    backoff gates with.  A fast clock writes already-expired leases
    (instant reclaim races), a slow one writes far-future leases (the
    heartbeat-staleness path must catch the death instead).

Graceful drain: SIGINT/SIGTERM sets a flag checked between cells — the
in-flight cell finishes and is acked, the rest of the claimed batch is
*released* (back to pending, no attempt charged), and the worker exits
130 with a resume hint.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..faults.campaign import CampaignConfig, run_campaign_cell
from ..faults.injector import FaultKind, FaultSpec
from ..supervise.heartbeat import start_beat_thread
from ..supervise.policy import RetryPolicy
from .store import Job, WorkQueue


def cell_fingerprint(config_payload: dict, key: object) -> str:
    """Artifact-store fingerprint of one campaign cell.

    Derived from the campaign *configuration* and the cell key only (not
    the campaign id), so two campaigns sweeping the same grid share
    cached cells — the cross-user dedup the shared store exists for.
    """
    import hashlib

    from ..experiments.parallel import CACHE_SCHEMA, code_version

    body = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "code": code_version(),
            "kind": "campaign-cell",
            "config": config_payload,
            "cell": key,
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one queue worker needs besides the queue directory."""

    queue_root: Union[str, Path]
    worker_id: str = ""
    #: Cells leased per claim.
    batch: int = 2
    #: Lease TTL; the keeper thread refreshes held leases at ttl/3.
    lease_ttl_s: float = 15.0
    #: Heartbeat refresh cadence on the shared board.
    heartbeat_interval_s: float = 0.2
    #: A sibling worker's beat older than this marks it dead on reclaim.
    heartbeat_timeout_s: float = 5.0
    #: Sleep between empty claim attempts.
    poll_interval_s: float = 0.05
    #: Exit 0 once the whole queue has no pending or leased work.  With
    #: False the worker keeps polling for future campaigns (service mode).
    exit_when_idle: bool = True
    #: Also reclaim dead siblings' leases while polling, so a bare pack of
    #: workers finishes a campaign with no coordinator process at all.
    self_reclaim: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: worker-kill fault: SIGKILL self after acking this many cells.
    kill_after_cells: Optional[int] = None
    #: lease-clock-skew fault: offset applied to this worker's queue clock.
    clock_skew_s: float = 0.0


class QueueWorker:
    """One worker process' claim/run/ack loop (also usable in-process)."""

    def __init__(self, config: WorkerConfig, cache=None) -> None:
        self.config = config
        self.worker_id = config.worker_id or f"worker-{os.getpid()}"
        skew = config.clock_skew_s
        clock = (lambda: time.time() + skew) if skew else time.time
        self.queue = WorkQueue(config.queue_root, retry=config.retry, clock=clock)
        self.board = self.queue.board()
        #: Optional ArtifactCache; hits skip the cell and ack the cached
        #: payload (computed-by-any-worker, visible-to-all).
        self.cache = cache
        self.cells_done = 0
        self.cache_hits = 0
        self.draining = False
        self._held: List[int] = []
        self._held_lock = threading.Lock()
        self._stop = threading.Event()
        self._config_cache: Dict[str, dict] = {}

    # ------------------------------------------------------------- plumbing

    def request_drain(self, *_args) -> None:
        """Signal-handler body: finish the current cell, then wind down."""
        self.draining = True

    def install_signal_handlers(self) -> None:
        try:
            signal.signal(signal.SIGINT, self.request_drain)
            signal.signal(signal.SIGTERM, self.request_drain)
        except ValueError:
            pass  # not the main thread (in-process worker in a test)

    def _keep_leases(self) -> None:
        """Daemon-thread body refreshing held leases at ttl/3, so a cell
        slower than the TTL is not reclaimed out from under a live worker."""
        while not self._stop.wait(self.config.lease_ttl_s / 3.0):
            with self._held_lock:
                held = list(self._held)
            if held:
                self.queue.extend(self.worker_id, held, self.config.lease_ttl_s)

    def _campaign_config(self, campaign_id: str) -> dict:
        if campaign_id not in self._config_cache:
            self._config_cache[campaign_id] = self.queue.campaign_config(campaign_id)
        return self._config_cache[campaign_id]

    # ------------------------------------------------------------- one cell

    def run_job(self, job: Job) -> dict:
        """Classify one queued cell; returns the RunResult payload."""
        config_payload = self._campaign_config(job.campaign)
        fingerprint = None
        if self.cache is not None:
            fingerprint = cell_fingerprint(config_payload, job.key)
            cached = self.cache.get_result(fingerprint)
            if cached is not None:
                self.cache_hits += 1
                return cached
        config = CampaignConfig.from_payload(config_payload)
        payload = job.payload
        spec = FaultSpec(
            kind=FaultKind(payload["kind"]),
            location=payload["location"],
            seed=payload["seed"],
        )
        result = run_campaign_cell(
            config, payload["workload"], payload["mechanism"], spec
        )
        encoded = result.to_payload()
        if self.cache is not None and fingerprint is not None:
            self.cache.put_result(fingerprint, encoded)
        return encoded

    def _maybe_die(self) -> None:
        kill_after = self.config.kill_after_cells
        if kill_after is not None and self.cells_done >= kill_after:
            # worker-kill fault: no cleanup, no flush — the queue must
            # recover from exactly this.
            os.kill(os.getpid(), signal.SIGKILL)

    # ----------------------------------------------------------------- loop

    def run(self) -> int:
        """Claim/run/ack until the queue is idle (or a drain request).

        Returns the process exit code: 0 on normal completion, 130 after
        a graceful drain.
        """
        config = self.config
        beat_stop = start_beat_thread(
            self.board, self.worker_id, config.heartbeat_interval_s
        )
        keeper = threading.Thread(
            target=self._keep_leases, name="lease-keeper", daemon=True
        )
        keeper.start()
        try:
            while not self.draining:
                jobs = self.queue.claim(
                    self.worker_id, batch=config.batch, ttl_s=config.lease_ttl_s
                )
                if not jobs:
                    if config.self_reclaim:
                        self.queue.reclaim(
                            self.board,
                            heartbeat_timeout_s=config.heartbeat_timeout_s,
                        )
                        if self.queue.counts().pending:
                            continue  # reclaimed something: try again now
                    if config.exit_when_idle and self.queue.idle():
                        break
                    time.sleep(config.poll_interval_s)
                    continue
                with self._held_lock:
                    self._held = [job.id for job in jobs]
                for index, job in enumerate(jobs):
                    if self.draining:
                        released = self.queue.release(
                            self.worker_id, [j.id for j in jobs[index:]]
                        )
                        if released:
                            print(
                                f"[{self.worker_id}] drain: released "
                                f"{released} unstarted cell(s)",
                                flush=True,
                            )
                        break
                    try:
                        payload = self.run_job(job)
                    except Exception as exc:
                        # run_campaign_cell never raises; anything here is
                        # queue-side bookkeeping (bad payload, dead cache).
                        self.queue.fail(
                            self.worker_id,
                            job.id,
                            f"worker-side error: {type(exc).__name__}: {exc}",
                        )
                        continue
                    finally:
                        with self._held_lock:
                            if job.id in self._held:
                                self._held.remove(job.id)
                    self.queue.ack(self.worker_id, job.id, payload)
                    self.cells_done += 1
                    self._maybe_die()
                with self._held_lock:
                    self._held = []
        finally:
            beat_stop.set()
            self._stop.set()
            self.board.finish_task(self.worker_id)
        if self.draining:
            print(
                f"[{self.worker_id}] drained after {self.cells_done} cell(s); "
                "completed cells are durable in the queue — restart workers "
                "(or `python -m repro serve` on the same --queue dir) to resume",
                flush=True,
            )
            return 130
        return 0


def worker_main(config: WorkerConfig, cache=None) -> int:
    """Process entry point: signal handlers + the worker loop."""
    worker = QueueWorker(config, cache=cache)
    worker.install_signal_handlers()
    code = worker.run()
    summary = (
        f"[{worker.worker_id}] done: {worker.cells_done} cell(s), "
        f"{worker.queue.events.duplicates} duplicate(s) discarded"
    )
    if cache is not None:
        summary += f", {worker.cache_hits} cache hit(s)"
    print(summary, flush=True)
    return code
