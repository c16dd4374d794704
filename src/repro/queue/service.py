"""The campaign service: enqueue, spawn workers, reclaim, collect.

``python -m repro serve`` runs a :class:`CampaignService`: it enqueues a
campaign into the durable :class:`~repro.queue.WorkQueue`, spawns N
``python -m repro worker`` subprocesses against the queue directory, and
then does only coordinator work — reclaiming dead workers' leases (with
an *unskewed* clock), respawning crashed workers up to a bound, and
reporting progress — until every cell is done or quarantined.  Because
workers also self-reclaim, the coordinator is an optimisation, not a
single point of failure: killing it and later restarting ``serve`` (or
just pointing fresh workers at the queue directory) resumes the campaign
exactly where it stopped.

Collection is where the distributed path meets the serial contract: the
merged :class:`~repro.faults.campaign.CampaignResult` lists cells in the
*deterministic sweep order* of ``Campaign.cells()``, not completion
order, so ``--verify-serial`` can assert the merged stable payloads are
byte-identical to an in-process serial run of the same config.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..faults.campaign import Campaign, CampaignConfig, CampaignResult, RunResult
from ..obs import MetricsRegistry
from ..supervise.policy import RetryPolicy
from .store import QueueError, ReclaimEvent, WorkQueue, canonical_key


def campaign_cell_jobs(config: CampaignConfig):
    """``(key, payload)`` pairs for every cell of ``config``'s sweep grid,
    in deterministic sweep order, keyed exactly like the checkpoint."""
    campaign = Campaign(config)
    for workload, mechanism, spec in campaign.cells():
        key = Campaign._cell_key(workload, mechanism, spec)
        yield key, {
            "workload": workload,
            "mechanism": mechanism,
            "kind": spec.kind.value,
            "location": spec.location,
            "seed": spec.seed,
        }


def enqueue_campaign(
    queue: WorkQueue,
    campaign_id: str,
    config: CampaignConfig,
    priority: int = 0,
    weight: float = 1.0,
) -> int:
    """Register ``config`` under ``campaign_id`` and enqueue its cells.

    Idempotent: re-running against a half-finished queue enqueues only
    the cells that are not already present (the resume path).
    """
    queue.create_campaign(
        campaign_id, config.to_payload(), priority=priority, weight=weight
    )
    return queue.enqueue(campaign_id, campaign_cell_jobs(config))


def collect_campaign(queue: WorkQueue, campaign_id: str) -> CampaignResult:
    """Merge a campaign's queued results into a :class:`CampaignResult`,
    in deterministic sweep order (the serial-equivalence contract)."""
    config = CampaignConfig.from_payload(queue.campaign_config(campaign_id))
    results = queue.results(campaign_id)
    poisoned = queue.quarantined(campaign_id)
    outcome = CampaignResult()
    for key, payload in campaign_cell_jobs(config):
        canon = canonical_key(key)
        if canon in results:
            outcome.results.append(RunResult.from_payload(results[canon]))
        elif canon in poisoned:
            outcome.quarantined.append(
                {
                    "workload": payload["workload"],
                    "mechanism": payload["mechanism"],
                    "kind": payload["kind"],
                    "location": payload["location"],
                    "reason": poisoned[canon],
                }
            )
    return outcome


def verify_against_serial(
    config: CampaignConfig, distributed: CampaignResult
) -> Optional[str]:
    """None when the distributed merge is byte-identical to a serial run
    of the same config, else a human-readable mismatch description."""
    if distributed.quarantined:
        return f"{len(distributed.quarantined)} cell(s) quarantined"
    serial = Campaign(config).run()
    want = [r.stable_payload() for r in serial.results]
    have = [r.stable_payload() for r in distributed.results]
    if len(want) != len(have):
        return f"cell count mismatch: serial {len(want)}, distributed {len(have)}"
    for index, (expected, actual) in enumerate(zip(want, have)):
        if expected != actual:
            return (
                f"cell {index} differs: serial {json.dumps(expected, sort_keys=True)}"
                f" != distributed {json.dumps(actual, sort_keys=True)}"
            )
    return None


@dataclass(frozen=True)
class ServiceConfig:
    """Coordinator knobs for one ``serve`` invocation."""

    queue_root: Union[str, Path]
    workers: int = 3
    batch: int = 2
    lease_ttl_s: float = 15.0
    #: Worker beats older than this are presumed dead on reclaim.
    heartbeat_timeout_s: float = 5.0
    #: Coordinator loop cadence (reclaim + respawn + progress).
    reclaim_interval_s: float = 0.5
    #: Crashed workers respawned before the service gives up spawning
    #: (lease expiry still drains the queue through surviving workers).
    max_respawns: int = 3
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Extra argv appended to every spawned worker (cache flags etc.).
    worker_args: Sequence[str] = ()
    #: Chaos injection, applied to worker index 0 only (first spawn):
    #: worker-kill after K cells / lease-clock-skew of S seconds.
    kill_worker_after_cells: Optional[int] = None
    clock_skew_s: float = 0.0
    #: Print per-loop progress lines.
    verbose: bool = True


@dataclass
class ServiceReport:
    """What one ``serve`` run did, per campaign and overall."""

    results: Dict[str, CampaignResult] = field(default_factory=dict)
    reclaims: List[ReclaimEvent] = field(default_factory=list)
    respawns: int = 0
    drained: bool = False
    elapsed_s: float = 0.0
    metrics: dict = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"campaign service: {len(self.results)} campaign(s) in "
            f"{self.elapsed_s:.1f}s, {len(self.reclaims)} lease reclaim(s), "
            f"{self.respawns} worker respawn(s)"
            + (" — DRAINED (resumable)" if self.drained else "")
        ]
        for campaign_id, result in self.results.items():
            done = len(result.results)
            lines.append(
                f"  {campaign_id}: {done} cell(s) done, "
                f"{len(result.quarantined)} quarantined"
            )
        return "\n".join(lines)


class CampaignService:
    """Coordinator: worker pool + lease reclaim over one queue directory."""

    def __init__(self, config: ServiceConfig, metrics: Optional[MetricsRegistry] = None):
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        # The coordinator's queue handle uses the real clock on purpose:
        # reclaim decisions must not inherit an injected worker skew.
        self.queue = WorkQueue(
            config.queue_root, retry=config.retry, metrics=self.metrics
        )
        self.board = self.queue.board()
        self.draining = False
        self._procs: Dict[str, subprocess.Popen] = {}
        self._spawned = 0

    # ------------------------------------------------------------- spawning

    def _worker_argv(self, worker_id: str, first: bool) -> List[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue",
            str(config.queue_root),
            "--worker-id",
            worker_id,
            "--claim-batch",
            str(config.batch),
            "--lease-ttl",
            str(config.lease_ttl_s),
            "--worker-heartbeat-timeout",
            str(config.heartbeat_timeout_s),
        ]
        if first:
            if config.kill_worker_after_cells is not None:
                argv += ["--kill-after-cells", str(config.kill_worker_after_cells)]
            if config.clock_skew_s:
                argv += ["--clock-skew", str(config.clock_skew_s)]
        argv += list(config.worker_args)
        return argv

    def _spawn(self, first: bool) -> None:
        worker_id = f"w{self._spawned}"
        self._spawned += 1
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        parts = env.get("PYTHONPATH", "")
        if src not in parts.split(os.pathsep):
            env["PYTHONPATH"] = src + (os.pathsep + parts if parts else "")
        self._procs[worker_id] = subprocess.Popen(
            self._worker_argv(worker_id, first), env=env
        )
        self.metrics.count("queue.workers-spawned")

    def _reap(self) -> int:
        """Remove exited workers; returns how many died *unexpectedly*
        (non-zero, non-drain exit) and respawns them within the budget."""
        died = 0
        for worker_id, proc in list(self._procs.items()):
            code = proc.poll()
            if code is None:
                continue
            del self._procs[worker_id]
            if code in (0, 130):
                continue  # idle exit or graceful drain
            died += 1
            self.metrics.count("queue.workers-died")
        return died

    def request_drain(self, *_args) -> None:
        self.draining = True

    def install_signal_handlers(self) -> None:
        try:
            signal.signal(signal.SIGINT, self.request_drain)
            signal.signal(signal.SIGTERM, self.request_drain)
        except ValueError:
            pass

    # ----------------------------------------------------------------- run

    def run(self, campaign_ids: Sequence[str]) -> ServiceReport:
        """Drive the pool until every listed campaign is complete."""
        config = self.config
        report = ServiceReport()
        started = time.monotonic()
        # Stamps left by SIGKILLed runs are swept before this run trusts
        # any stamp it finds.
        self.board.sweep_stale(max_age_s=max(60.0, 4 * config.lease_ttl_s))
        respawns_left = config.max_respawns
        for _ in range(config.workers):
            self._spawn(first=self._spawned == 0)
        try:
            while not self.draining:
                if all(self.queue.is_complete(c) for c in campaign_ids):
                    break
                events = self.queue.reclaim(
                    self.board, heartbeat_timeout_s=config.heartbeat_timeout_s
                )
                report.reclaims.extend(events)
                for event in events:
                    if config.verbose:
                        print(
                            f"[serve] reclaimed cell {canonical_key(event.key)} "
                            f"from {event.owner}: {event.outcome} ({event.reason})",
                            flush=True,
                        )
                died = self._reap()
                for _ in range(died):
                    if respawns_left > 0 and not self.queue.idle():
                        respawns_left -= 1
                        report.respawns += 1
                        self._spawn(first=False)
                if not self._procs and self.queue.idle():
                    break  # workers finished between our checks
                if not self._procs and respawns_left <= 0:
                    raise QueueError(
                        "all workers died and the respawn budget is spent; "
                        f"queue state: {self.queue.counts().format()}"
                    )
                time.sleep(config.reclaim_interval_s)
        finally:
            self._shutdown_workers()
        report.drained = self.draining
        for campaign_id in campaign_ids:
            report.results[campaign_id] = collect_campaign(self.queue, campaign_id)
        report.elapsed_s = time.monotonic() - started
        report.metrics = self.metrics.snapshot()
        return report

    def _shutdown_workers(self) -> None:
        """Drain the pool: SIGTERM (graceful drain), bounded wait, SIGKILL."""
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + max(10.0, 2 * self.config.lease_ttl_s)
        for proc in self._procs.values():
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
