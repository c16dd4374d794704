"""The worker pool every dispatch runs on, and the supervisor over it.

:class:`WorkerPool` holds up to N forked ``multiprocessing.Process``
workers, each on its own ``Pipe``.  The parent sends one payload to an
idle worker and waits on the pipes and the process sentinels together,
so it always knows which task each worker runs:

* a worker that exits without replying is charged ``crash`` for its own
  task only, and a fresh worker takes its place;
* a task past its deadline (counted from the send) gets only its worker
  killed and replaced, and is charged ``hang``;
* no other task is ever charged or requeued, and closing the pool (on
  completion or on an interrupt) never waits for queued work.

:class:`Supervisor` runs a batch of independent, picklable tasks on the
pool and refuses to let any single task take the run down:

1. **Per-task retry** — a task that raises, hangs past its deadline or
   loses its worker is retried up to
   :attr:`~repro.supervise.policy.RetryPolicy.max_retries` times with
   exponential backoff and deterministic (seeded) jitter.
2. **Quarantine** — a task that fails every attempt is recorded as
   quarantined with its failure history instead of failing the run; the
   caller persists the quarantine (e.g. in a campaign checkpoint) so a
   resumed sweep skips the poison cell.

Supervised tasks always run in a worker, at any ``jobs``, so a crashing
task can never take the parent down.  Everything that happened is
returned in a :class:`SupervisionReport`: one :class:`AttemptRecord` per
attempt, the quarantine roster and the accumulated backoff.  A streaming
``on_result`` callback lets callers checkpoint each success immediately,
so a supervised run that is later killed resumes like a serial one.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ReproError, SupervisionError
from .policy import SupervisorConfig

#: Cap on stored failure detail, so a worker traceback cannot bloat
#: reports/checkpoints.
_DETAIL_LIMIT = 600

#: Workers are forked: they inherit the parent's modules (and any
#: instrumentation wrapped around them) without pickling the worker.
_FORK = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class Task:
    """One unit of supervised work: a stable key plus a picklable payload."""

    key: str
    payload: Any


class WorkerError(ReproError):
    """A task failed inside a worker process.

    Names *which* task failed and how, even across the pickling boundary:
    a worker that died, a task past its deadline, or an exception that
    could not be sent back.
    """

    def __init__(self, key: str, kind: str, message: str) -> None:
        super().__init__(f"task {key!r} failed: {kind}: {message}")
        self.key = key
        self.kind = kind
        self.message = message

    def __reduce__(self):
        return (type(self), (self.key, self.kind, self.message))


@dataclass
class AttemptRecord:
    """One attempt of one task."""

    key: str
    attempt: int  # 1-based
    outcome: str  # "ok" | "error" | "hang" | "crash"
    elapsed: float = 0.0
    detail: str = ""

    def to_payload(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SupervisionReport:
    """Structured account of everything a supervised run did."""

    attempts: List[AttemptRecord] = field(default_factory=list)
    #: key -> human-readable reason (terminal failure history).
    quarantined: Dict[str, str] = field(default_factory=dict)
    #: Keys skipped because an earlier run already quarantined them.
    skipped_quarantined: List[str] = field(default_factory=list)
    #: Total deterministic backoff slept before retries.
    backoff_s: float = 0.0

    def completed_keys(self) -> List[str]:
        return [a.key for a in self.attempts if a.outcome == "ok"]

    @property
    def retries(self) -> int:
        return sum(1 for a in self.attempts if a.attempt > 1)

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.attempts:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def attempts_for(self, key: str) -> List[AttemptRecord]:
        """Every attempt of one task, in execution order — the per-cell
        audit trail a chaos campaign points at when a cell needed retries."""
        return [a for a in self.attempts if a.key == key]

    def attempt_outcomes(self) -> Dict[str, List[str]]:
        """key -> outcome sequence (e.g. ``["hang", "ok"]``), so retry
        behaviour is auditable without walking the raw attempt list."""
        outcomes: Dict[str, List[str]] = {}
        for record in self.attempts:
            outcomes.setdefault(record.key, []).append(record.outcome)
        return outcomes

    def accounts_for(self, keys: Sequence[str]) -> bool:
        """True when every key is either completed or quarantined."""
        done = set(self.completed_keys()) | set(self.quarantined)
        done.update(self.skipped_quarantined)
        return all(key in done for key in keys)

    def to_payload(self) -> dict:
        return {
            "attempts": [a.to_payload() for a in self.attempts],
            "quarantined": dict(self.quarantined),
            "skipped_quarantined": list(self.skipped_quarantined),
            "backoff_s": self.backoff_s,
        }

    def format(self) -> str:
        counts = self.outcome_counts()
        lines = [
            "Supervision report",
            f"  attempts: {len(self.attempts)}  "
            + "  ".join(f"{k}: {v}" for k, v in sorted(counts.items())),
            f"  retries: {self.retries}  backoff slept: {self.backoff_s:.2f}s",
        ]
        for key, reason in self.quarantined.items():
            lines.append(f"  quarantined: {key} ({reason})")
        if self.skipped_quarantined:
            lines.append(
                "  skipped (quarantined in an earlier run): "
                + ", ".join(self.skipped_quarantined)
            )
        return "\n".join(lines)


# -------------------------------------------------------------- worker pool


def _serve(conn, worker: Callable[[Any], Any]) -> None:
    """Worker process body: run each payload received until ``None``.

    Replies ``(True, result, "")`` or ``(False, exception, traceback)``;
    an exception or result that does not pickle is replied as
    ``(False, None, description)``.
    """
    # The parent owns interrupts: it kills its workers when it stops.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = (True, worker(payload), "")
        except Exception as exc:
            reply = (False, exc, traceback.format_exc())
        try:
            conn.send(reply)
        except Exception as exc:
            conn.send((False, None, f"unpicklable reply: {_describe(exc)}"))


class Finished(NamedTuple):
    """One task the pool is done with."""

    key: str
    outcome: str  # "ok" | "error" | "hang" | "crash"
    #: The result, or the exception that ended the task.
    value: Any
    elapsed: float


@dataclass
class _Worker:
    process: Any
    conn: Any
    key: str = ""
    sent: float = 0.0


class WorkerPool:
    """Up to ``jobs`` forked workers, one pipe each, one task per worker.

    Workers start on demand and are replaced when they die or are killed
    for a deadline.  :meth:`close` (also on leaving the ``with`` block)
    stops idle workers and kills busy ones, so it never waits for a task.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        jobs: int,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.worker = worker
        self.jobs = jobs
        self.deadline_s = deadline_s
        self._idle: List[_Worker] = []
        self._busy: Dict[str, _Worker] = {}

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def busy(self) -> int:
        return len(self._busy)

    @property
    def free(self) -> int:
        """How many more tasks :meth:`send` accepts right now."""
        return self.jobs - len(self._busy)

    def _spawn(self) -> _Worker:
        conn, child = _FORK.Pipe()
        process = _FORK.Process(target=_serve, args=(child, self.worker))
        process.start()
        child.close()
        return _Worker(process, conn)

    def _retire(self, proc: _Worker) -> Optional[int]:
        """Kill ``proc`` (a no-op once it exited), reap it and release its
        pipe; returns its exit code."""
        proc.process.kill()
        proc.process.join()
        code = proc.process.exitcode
        proc.process.close()
        proc.conn.close()
        return code

    def send(self, key: str, payload: Any) -> None:
        """Start ``key`` on an idle worker (call only while :attr:`free`)."""
        while True:
            proc = self._idle.pop() if self._idle else self._spawn()
            try:
                proc.conn.send(payload)
                break
            except (BrokenPipeError, ConnectionResetError):
                self._retire(proc)  # died while idle: start another
        proc.key, proc.sent = key, time.monotonic()
        self._busy[key] = proc

    def wait(self, timeout: Optional[float] = None) -> List[Finished]:
        """Block until a busy worker replies, dies or passes its deadline,
        or ``timeout`` elapses; returns the tasks that finished."""
        if self.deadline_s is not None and self._busy:
            first = min(proc.sent for proc in self._busy.values())
            due = max(0.0, first + self.deadline_s - time.monotonic())
            timeout = due if timeout is None else min(timeout, due)
        if not self._busy:
            time.sleep(timeout or 0.0)
            return []
        handles = [proc.conn for proc in self._busy.values()]
        handles += [proc.process.sentinel for proc in self._busy.values()]
        ready = set(connection_wait(handles, timeout))
        now = time.monotonic()
        finished: List[Finished] = []
        for key, proc in list(self._busy.items()):
            elapsed = now - proc.sent
            if proc.conn in ready or proc.process.sentinel in ready:
                del self._busy[key]
                finished.append(self._reply(proc, elapsed))
            elif self.deadline_s is not None and elapsed >= self.deadline_s:
                del self._busy[key]
                self._retire(proc)
                error = WorkerError(
                    key,
                    "hang",
                    f"killed after {elapsed:.1f}s (deadline {self.deadline_s:.3g}s)",
                )
                finished.append(Finished(key, "hang", error, elapsed))
        return finished

    def _reply(self, proc: _Worker, elapsed: float) -> Finished:
        """Read the reply of a worker whose pipe or sentinel is ready."""
        key = proc.key
        try:
            ok, value, detail = proc.conn.recv()
        except (EOFError, OSError):
            code = self._retire(proc)
            error = WorkerError(key, "crash", f"worker died with exit code {code}")
            return Finished(key, "crash", error, elapsed)
        except Exception as exc:  # the reply does not unpickle here
            ok, value, detail = False, None, f"{type(exc).__name__}: {exc}"
        self._idle.append(proc)
        if ok:
            return Finished(key, "ok", value, elapsed)
        if value is None:
            return Finished(key, "error", WorkerError(key, "error", detail), elapsed)
        # Keep the worker's traceback, which does not survive pickling.
        value.__cause__ = WorkerError(key, type(value).__name__, detail)
        return Finished(key, "error", value, elapsed)

    def close(self) -> None:
        """Stop idle workers and kill busy ones; returns once all exited."""
        for proc in self._idle:
            try:
                proc.conn.send(None)
            except OSError:
                pass
        for proc in self._idle:
            proc.process.join(timeout=1.0)
        for proc in (*self._idle, *self._busy.values()):
            self._retire(proc)
        self._idle.clear()
        self._busy.clear()


def _describe(error: BaseException) -> str:
    """One line naming what ended a task, for reports and checkpoints."""
    if isinstance(error, WorkerError):
        return error.message
    return f"{type(error).__name__}: {error}"


# -------------------------------------------------------------- supervisor


@dataclass
class _Pending:
    """One task waiting to (re)run."""

    task: Task
    attempt: int = 1  # attempt number this entry will consume
    not_before: float = 0.0  # monotonic time gating the retry backoff


def _clip(text: str) -> str:
    text = text.strip()
    return text if len(text) <= _DETAIL_LIMIT else text[:_DETAIL_LIMIT] + "..."


def _pop_ready(queue: "deque[_Pending]", now: float) -> Optional[_Pending]:
    """Next entry whose backoff has elapsed, preserving queue order."""
    for _ in range(len(queue)):
        if queue[0].not_before <= now:
            return queue.popleft()
        queue.rotate(-1)
    return None


class Supervisor:
    """Runs tasks on a :class:`WorkerPool` under the configured deadline
    and retry policy."""

    def __init__(self, config: SupervisorConfig = SupervisorConfig()) -> None:
        self.config = config

    def _fail(
        self, pend: _Pending, done: Finished, report: SupervisionReport
    ) -> Optional[_Pending]:
        """Charge one failed attempt; returns the retry entry or None
        (quarantined)."""
        key = pend.task.key
        detail = _clip(_describe(done.value))
        report.attempts.append(
            AttemptRecord(key, pend.attempt, done.outcome, done.elapsed, detail)
        )
        policy = self.config.retry
        if pend.attempt >= policy.max_attempts:
            report.quarantined[key] = (
                f"{done.outcome} on attempt {pend.attempt}/{policy.max_attempts}: "
                f"{detail or 'no detail'}"
            )
            return None
        delay = policy.delay(key, pend.attempt)
        report.backoff_s += delay
        return _Pending(pend.task, pend.attempt + 1, time.monotonic() + delay)

    def run(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Task],
        on_result: Optional[Callable[[str, Any], None]] = None,
    ) -> Tuple[Dict[str, Any], SupervisionReport]:
        """Execute ``worker(task.payload)`` for every task, supervised.

        Returns ``({key: result}, report)``.  Quarantined keys are absent
        from the results dict and present in ``report.quarantined``; the
        report accounts for every task either way.
        """
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise SupervisionError("duplicate task keys in supervised batch")
        report = SupervisionReport()
        results: Dict[str, Any] = {}
        queue = deque(_Pending(task) for task in tasks)
        running: Dict[str, _Pending] = {}
        jobs = min(self.config.effective_jobs(), max(1, len(tasks)))
        with WorkerPool(worker, jobs, self.config.deadline_s) as pool:
            while queue or running:
                now = time.monotonic()
                while pool.free:
                    pend = _pop_ready(queue, now)
                    if pend is None:
                        break
                    pool.send(pend.task.key, pend.task.payload)
                    running[pend.task.key] = pend
                gate = None
                if queue and pool.free:
                    gate = max(0.0, min(p.not_before for p in queue) - now)
                for done in pool.wait(gate):
                    pend = running.pop(done.key)
                    if done.outcome != "ok":
                        retry = self._fail(pend, done, report)
                        if retry is not None:
                            queue.append(retry)
                        continue
                    report.attempts.append(
                        AttemptRecord(done.key, pend.attempt, "ok", done.elapsed)
                    )
                    results[done.key] = done.value
                    if on_result is not None:
                        on_result(done.key, done.value)
        return results, report
