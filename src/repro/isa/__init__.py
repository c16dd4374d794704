"""ISA model: pointer bit layout, the instruction set and its programs.

This package defines the AArch64-like instruction vocabulary the simulator
executes (:class:`Op`) and the :class:`Program` that holds a lowered
stream of it as typed columns, the one program format both timing kernels
walk.  The vocabulary includes the five new AOS instructions (§IV-A):
``pacma``/``pacmb``, ``xpacm``, ``autm``, ``bndstr`` and ``bndclr``,
alongside the stock Arm PA instructions (``pacia``/``autia``/...) used by
the PA baseline.
"""

from .encoding import PointerLayout, SignedPointer
from .instructions import Op
from .program import Program, ProgramBuilder

__all__ = [
    "PointerLayout",
    "SignedPointer",
    "Op",
    "Program",
    "ProgramBuilder",
]
