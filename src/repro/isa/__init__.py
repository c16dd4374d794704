"""ISA model: pointer bit layout, the instruction set and its programs.

This package defines the AArch64-like instruction vocabulary the simulator
executes, including the five new AOS instructions (§IV-A): ``pacma``/
``pacmb``, ``xpacm``, ``autm``, ``bndstr`` and ``bndclr``, alongside the
stock Arm PA instructions (``pacia``/``autia``/...) used by the PA baseline.
"""

from .encoding import PointerLayout, SignedPointer
from .instructions import Op, Instruction, is_memory_op, is_alu_op
from .program import Program, ProgramBuilder

__all__ = [
    "PointerLayout",
    "SignedPointer",
    "Op",
    "Instruction",
    "is_memory_op",
    "is_alu_op",
    "Program",
    "ProgramBuilder",
]
