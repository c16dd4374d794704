"""Chaos test for the distributed campaign service: SIGKILL workers
mid-campaign and assert exactly-once completion with a merged result
byte-identical to a serial run (ISSUE acceptance bar)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults import Campaign, CampaignConfig, FaultKind
from repro.queue import (
    WorkQueue,
    collect_campaign,
    enqueue_campaign,
    verify_against_serial,
)
from repro.supervise import RetryPolicy

SRC = Path(__file__).resolve().parents[1] / "src"

CHAOS_CONFIG = CampaignConfig(
    workloads=("gcc",),
    mechanisms=("aos",),
    kinds=(
        FaultKind.PTR_PAC_FLIP,
        FaultKind.PTR_VA_FLIP,
        FaultKind.USE_AFTER_FREE,
        FaultKind.DOUBLE_FREE,
        FaultKind.HBT_ENTRY_CORRUPT,
        FaultKind.CHUNK_HEADER_CORRUPT,
    ),
    locations=1,
    objects=8,
    churn=1,
)


def worker_argv(queue_root, worker_id, extra=()):
    return [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--queue",
        str(queue_root),
        "--worker-id",
        worker_id,
        "--claim-batch",
        "1",
        "--lease-ttl",
        "2",
        "--worker-heartbeat-timeout",
        "1",
        "--no-cache",
        *extra,
    ]


def spawn_worker(queue_root, worker_id, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        worker_argv(queue_root, worker_id, extra),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_all(procs, timeout_s=180.0):
    deadline = time.monotonic() + timeout_s
    outputs = []
    for proc in procs:
        remaining = max(1.0, deadline - time.monotonic())
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            pytest.fail(f"worker pid {proc.pid} hung past the chaos deadline:\n{out}")
        outputs.append(out)
    return outputs


def assert_exactly_once(queue, campaign_id, config):
    """The acceptance invariant: zero lost, zero duplicated, byte-identical."""
    counts = queue.counts(campaign_id)
    total = counts.total
    assert counts.pending == 0, counts.format()
    assert counts.leased == 0, counts.format()
    assert counts.quarantined == 0, counts.format()
    assert counts.done == total, counts.format()
    distributed = collect_campaign(queue, campaign_id)
    assert verify_against_serial(config, distributed) is None
    # Byte-level check, spelled out: identical canonical JSON.
    serial = Campaign(config).run()
    serial_bytes = json.dumps(
        [r.stable_payload() for r in serial.results], sort_keys=True
    ).encode()
    distributed_bytes = json.dumps(
        [r.stable_payload() for r in distributed.results], sort_keys=True
    ).encode()
    assert serial_bytes == distributed_bytes


@pytest.mark.slow
class TestWorkerCrashChaos:
    def test_self_killing_worker_campaign_completes_exactly_once(self, tmp_path):
        """3 workers, one SIGKILLs itself after its first ack. Survivors
        self-reclaim the orphaned leases; every cell completes exactly
        once; the merge is byte-identical to a serial run."""
        queue_root = tmp_path / "q"
        queue = WorkQueue(queue_root, retry=RetryPolicy(max_retries=3))
        enqueue_campaign(queue, "chaos", CHAOS_CONFIG)
        chaos = spawn_worker(queue_root, "w0", extra=["--kill-after-cells", "1"])
        # The survivors start only once w0 holds a lease (or has already
        # acked), so they cannot drain the campaign before w0 claims a
        # cell: w0 is then bound to ack one and kill itself.
        deadline = time.monotonic() + 60.0
        while True:
            exited = chaos.poll() is not None  # read before the counts
            counts = queue.counts("chaos")
            if counts.leased or counts.done:
                break
            if exited or time.monotonic() > deadline:
                chaos.kill()
                out, _ = chaos.communicate()
                pytest.fail(f"w0 never claimed a cell:\n{out}")
            time.sleep(0.05)
        procs = [chaos, spawn_worker(queue_root, "w1"), spawn_worker(queue_root, "w2")]
        outputs = wait_all(procs)
        # The chaos worker must actually have died by SIGKILL.
        assert procs[0].returncode == -signal.SIGKILL, outputs[0]
        assert procs[1].returncode == 0, outputs[1]
        assert procs[2].returncode == 0, outputs[2]
        assert_exactly_once(queue, "chaos", CHAOS_CONFIG)

    def test_externally_killed_worker_is_recovered(self, tmp_path):
        """SIGKILL arrives from outside (no cooperation from the victim),
        mid-lease. A late-started worker drains the backlog."""
        queue_root = tmp_path / "q"
        queue = WorkQueue(queue_root, retry=RetryPolicy(max_retries=3))
        enqueue_campaign(queue, "chaos", CHAOS_CONFIG)
        victim = spawn_worker(queue_root, "victim")
        # Let it claim a lease before the kill.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if queue.counts("chaos").leased or queue.counts("chaos").done:
                break
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
        victim.communicate()
        rescuer = spawn_worker(queue_root, "rescuer")
        wait_all([rescuer])
        assert rescuer.returncode == 0
        assert_exactly_once(queue, "chaos", CHAOS_CONFIG)

    def test_clock_skewed_worker_does_not_break_exactly_once(self, tmp_path):
        """One worker stamps leases with a skewed clock (lease-clock-skew
        queue fault): peers may reclaim its cells instantly, but nothing
        is lost or double-merged."""
        queue_root = tmp_path / "q"
        queue = WorkQueue(queue_root, retry=RetryPolicy(max_retries=5))
        enqueue_campaign(queue, "chaos", CHAOS_CONFIG)
        procs = [
            spawn_worker(queue_root, "skewed", extra=["--clock-skew", "-30"]),
            spawn_worker(queue_root, "honest"),
        ]
        outputs = wait_all(procs)
        assert procs[0].returncode == 0, outputs[0]
        assert procs[1].returncode == 0, outputs[1]
        assert_exactly_once(queue, "chaos", CHAOS_CONFIG)
