"""A functional Arm-MTE/SPARC-ADI-style memory-tagging model (§X).

Memory tagging assigns a small lock tag (4 bits in MTE/ADI) to each
16-byte memory granule and places a matching key tag in the pointer's
upper bits; a dereference traps when the tags disagree.  The paper's
related-work comparison (§X) highlights the consequence of the tiny tag:

    "Given the probability of bug detection, specifically 94 % with
     4-bit tags, an attacker may bypass the protection with a
     sufficient number of attempts."

This model implements tag assignment on allocation, tag checks on every
access, re-tagging on free (temporal protection, also probabilistic), and
exposes the detection probability analytically and empirically so the
tag-size trade-off against AOS's 16-bit PACs can be reproduced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime

#: MTE/ADI granule size.
GRANULE = 16


class MTEFault(Exception):
    """A tag-check fault (pointer tag != memory tag)."""


@dataclass(frozen=True)
class TaggedPointer:
    """A pointer with its key tag in the (modelled) upper bits."""

    address: int
    tag: int

    def offset(self, delta: int) -> "TaggedPointer":
        return TaggedPointer(address=self.address + delta, tag=self.tag)

    def __int__(self) -> int:
        return self.address


class MTERuntime(HeapRuntime):
    """A memory-tagging protected heap with ``tag_bits``-wide lock tags."""

    name = "mte"

    def __init__(
        self,
        tag_bits: int = 4,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        seed: int = 0xAD1,
    ) -> None:
        if not 1 <= tag_bits <= 16:
            raise ValueError("tag width must be 1..16 bits")
        self.tag_bits = tag_bits
        self.tag_space = 1 << tag_bits
        super().__init__(layout)
        self._rng = random.Random(seed)
        #: granule index -> lock tag.
        self._tags: Dict[int, int] = {}
        self.checks = 0
        self.tag_faults = 0

    # ------------------------------------------------------------------ tags

    def _granules(self, address: int, size: int):
        start = address // GRANULE
        end = (address + max(size, 1) - 1) // GRANULE
        return range(start, end + 1)

    def _random_tag(self, exclude: int = -1) -> int:
        """MTE picks a random non-matching tag on (re-)colouring."""
        while True:
            tag = self._rng.randrange(self.tag_space)
            if tag != exclude:
                return tag

    @staticmethod
    def _tagged(pointer) -> TaggedPointer:
        if isinstance(pointer, TaggedPointer):
            return pointer
        # An attacker-crafted integer pointer carries whatever key tag the
        # attacker picked; untagged memory reads as tag 0, so the best
        # strategy is tag 0 (MTE does not tag non-heap regions).
        return TaggedPointer(address=int(pointer), tag=0)

    # ------------------------------------------------------------------ heap

    def malloc(self, size: int) -> TaggedPointer:
        address = self.allocator.malloc(size)
        tag = self._random_tag()
        for granule in self._granules(address, size):
            self._tags[granule] = tag
        return TaggedPointer(address=address, tag=tag)

    def free(self, pointer) -> TaggedPointer:
        """Free and *re-colour* the granules so stale pointers (usually)
        trap — temporal protection with the same 1-in-2^tag_bits escape."""
        pointer = self._tagged(pointer)
        self.check(pointer)
        size = self.allocator.allocated_size(pointer.address)
        self.allocator.free(pointer.address)
        for granule in self._granules(pointer.address, size):
            self._tags[granule] = self._random_tag(exclude=pointer.tag)
        return pointer  # dangling pointer keeps its stale key tag

    # ---------------------------------------------------------------- checks

    def check(self, pointer: TaggedPointer, size: int = 8) -> None:
        self.checks += 1
        for granule in self._granules(pointer.address, size):
            if self._tags.get(granule, 0) != pointer.tag:
                self.tag_faults += 1
                raise MTEFault(
                    f"tag check fault at {pointer.address:#x}: pointer tag "
                    f"{pointer.tag:#x} != memory tag {self._tags.get(granule, 0):#x}"
                )

    def load(self, pointer, size: int = 8) -> int:
        pointer = self._tagged(pointer)
        self.check(pointer, size)
        return self.read(pointer.address, size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        pointer = self._tagged(pointer)
        self.check(pointer, size)
        self.write(pointer.address, value, size)

    def offset(self, pointer, delta: int) -> TaggedPointer:
        return self._tagged(pointer).offset(delta)

    def forge_tag(self, pointer, tag: int) -> TaggedPointer:
        """Attacker rewrites the pointer's key tag (``tag`` mod its width)."""
        return TaggedPointer(self._tagged(pointer).address, tag % self.tag_space)

    # -------------------------------------------------------------- analysis

    def detection_probability(self) -> float:
        """P(an adjacent-object violation is caught) = 1 - 2^-tag_bits.

        4-bit tags give 93.75 % — the "94 %" of §X.
        """
        return 1.0 - 1.0 / self.tag_space
