"""Simulation kernels: reference semantics and the fast path.

Two kernels execute a lowered program, both walking the same typed
columns of its :class:`~repro.isa.program.Program`:

- ``"reference"`` — :class:`repro.cpu.pipeline.PipelineModel`, the readable
  scoreboard model that defines the simulator's semantics and serves as
  the test oracle;
- ``"fast"``      — :func:`repro.kernel.fast.run_fast`, the same
  scoreboard loop in C (``_fast.c``, a CPython extension over the
  program's columns and the live cache sets), byte-identical by contract
  (``tests/test_kernel_equivalence.py``, ``tests/test_kernel_native.py``).

Every untraced run uses ``fast``; a run with an event tracer uses
``reference``, the only kernel that emits trace events.  No setting
chooses between them: :class:`repro.cpu.core.Simulator`'s ``kernel``
argument exists so tests and tools can run the oracle.  The C module is
built on the first untraced simulation or trace generation of a process
and cached in the artifact cache root under ``native/``, keyed by its
source digest and the interpreter's ABI tag; a host with no C compiler or
Python headers runs ``reference`` and the Python generator loops instead
and warns once per process.
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
