"""Simulation kernels: reference semantics and the fast path.

Two kernels execute a lowered program:

- ``"reference"`` — :class:`repro.cpu.pipeline.PipelineModel`, the readable
  scoreboard model that defines the simulator's semantics and serves as
  the test oracle;
- ``"fast"``      — :func:`repro.kernel.fast.run_fast`, a flattened/inlined
  transcription of the same arithmetic, byte-identical by contract
  (``tests/test_kernel_equivalence.py``) and ~3x faster.

Every untraced run uses ``fast``; a run with an event tracer uses
``reference``, the only kernel that emits trace events.  No setting
chooses between them: :class:`repro.cpu.core.Simulator`'s ``kernel``
argument exists so tests and tools can run the oracle.
"""

from __future__ import annotations

from ..errors import ConfigError

#: Valid kernel names, reference (the oracle) first.
KERNELS = ("reference", "fast")


def validate_kernel(name: str) -> str:
    """Return ``name`` if it names a kernel, else raise :class:`ConfigError`."""
    if name not in KERNELS:
        raise ConfigError(
            f"unknown simulation kernel {name!r}; expected one of {', '.join(KERNELS)}"
        )
    return name
