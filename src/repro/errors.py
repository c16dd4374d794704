"""Exception hierarchy for the AOS reproduction.

Every error raised by this package derives from :class:`ReproError` so
downstream users can catch package failures with a single ``except`` clause.
Simulated *architectural* faults (the events a real AOS machine would raise
as hardware exceptions and hand to the OS) live in
:mod:`repro.core.exceptions`; the classes here represent *host-level* misuse
of the library itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A simulation parameter is out of range or inconsistent."""


class MemoryError_(ReproError):
    """Illegal use of the simulated memory model (bad address, overlap...).

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`MemoryError`, which means something entirely different.
    """


class AllocatorError(ReproError):
    """The simulated heap allocator was driven into an invalid state."""


class EncodingError(ReproError):
    """A pointer/bounds encoding operation received an unencodable value."""


class SimulationError(ReproError):
    """The timing simulation reached an inconsistent internal state."""


class WorkloadError(ReproError):
    """A workload profile or trace generator was mis-parameterised."""


class FaultInjectionError(ReproError):
    """A fault-injection request could not be applied to the target state
    (unknown fault kind, no live object/slot at the requested location)."""


class ExperimentTimeout(ReproError):
    """A single experiment/campaign run exceeded its wall-clock deadline.

    Raised cooperatively by :class:`repro.faults.campaign.Deadline` checks
    between simulated operations, so a wedged run surfaces as a structured
    ``timed-out`` outcome instead of stalling the whole sweep.
    """


class CheckpointError(ReproError):
    """A results checkpoint file is unreadable or belongs to a different
    run configuration."""


class InvariantViolation(ReproError):
    """The ``--paranoid`` oracle found simulator state that breaks an AOS
    structural invariant (non-terminal MCQ entries, HBT occupancy diverging
    from the live allocation count, BWB hints beyond the associativity,
    signed pointers that no longer round-trip) — i.e. silent corruption
    that the normal outcome taxonomy would have reported as a clean cell.

    ``violations`` carries the individual findings (printable objects).
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)

    def __reduce__(self):
        return (type(self), (self.args[0], self.violations))


class SupervisionError(ReproError):
    """The supervision layer itself was misused (bad policy parameters,
    duplicate task keys) — distinct from the task failures it manages."""


class QuarantinedCellError(ReproError):
    """A result was asked of a simulation cell the supervisor quarantined.

    The cell's measurement does not exist: it is never re-simulated in
    the calling process, where a crash or hang would take the caller down
    with it.  ``cell`` names it (``workload/key``), ``reason`` is the
    supervisor's terminal failure history.
    """

    def __init__(self, cell: str, reason: str):
        super().__init__(f"cell {cell} was quarantined by the supervisor: {reason}")
        self.cell = cell
        self.reason = reason


class TraceFormatError(ReproError):
    """A trace file violates the versioned trace schema (`repro.traces`).

    This is the contract the ingestion frontend makes with callers: a
    malformed, truncated or inconsistent trace file *always* raises this
    (or a subclass) — it never produces a silent partial
    :class:`~repro.workloads.WorkloadTrace`/``Program``.
    """


class TraceVersionError(TraceFormatError):
    """The trace header declares a schema version this decoder does not
    speak (forward-incompatible versions are rejected, never guessed)."""


class TraceDecodeError(TraceFormatError):
    """The byte/line stream itself is malformed: bad magic, truncated
    frame or line, unknown record kind, missing end-of-trace record,
    trailing garbage, or a field that fails schema validation."""


class TraceSemanticError(TraceFormatError):
    """The record stream decodes but describes an impossible program:
    duplicate allocation ids, frees of unknown objects, double frees,
    accesses to objects that were never declared, preamble objects
    appearing after window events."""
