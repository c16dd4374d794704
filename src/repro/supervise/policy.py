"""Supervision policies: retry/backoff and deadlines.

The knobs here are deliberately plain frozen dataclasses so a
:class:`~repro.supervise.supervisor.Supervisor` run is a pure function of
(policy, tasks, worker): the backoff schedule derives its jitter from a
seeded hash of ``(seed, task key, attempt)``, never from the wall clock or
a shared RNG, so a rerun of the same sweep retries at the same simulated
offsets and the :class:`~repro.supervise.supervisor.SupervisionReport`
is reproducible modulo elapsed times.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SupervisionError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    #: Retries after the first attempt (0 = fail fast).
    max_retries: int = 2
    #: Delay before the first retry.
    backoff_base_s: float = 0.05
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Ceiling on any single delay.
    backoff_cap_s: float = 2.0
    #: Relative jitter amplitude: each delay lands in ``raw * [1-j, 1+j]``.
    jitter: float = 0.25
    #: Seed for the jitter hash, so reruns back off identically.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SupervisionError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise SupervisionError("backoff delays must be >= 0")
        if not 0 <= self.jitter < 1:
            raise SupervisionError("jitter must be in [0, 1)")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retrying ``key`` after its ``attempt``-th failure.

        Deterministic: the jitter comes from a hash of (seed, key, attempt),
        so two runs of the same sweep produce the same schedule.
        """
        if attempt < 1:
            raise SupervisionError("delay() is defined for attempt >= 1")
        raw = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_cap_s,
        )
        if raw == 0 or self.jitter == 0:
            return raw
        digest = hashlib.sha256(f"{self.seed}:{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
        jittered = raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)
        # The cap is a hard ceiling: positive jitter on an at-cap delay
        # must not push past it (a long chaos campaign would otherwise
        # accumulate unbounded extra sleep across its retries).
        return min(jittered, self.backoff_cap_s)


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything a :class:`Supervisor` needs besides the tasks."""

    #: Worker processes (values < 1 mean "decided by the caller").
    jobs: int = 1
    #: Per-task wall-clock deadline, counted from the send to a worker;
    #: None disables hang detection.
    deadline_s: Optional[float] = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SupervisionError("deadline_s must be positive or None")

    def effective_jobs(self, fallback: int = 1) -> int:
        return self.jobs if self.jobs >= 1 else max(1, fallback)
