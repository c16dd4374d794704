"""A functional PACStack-style authenticated return-address chain.

PACStack (see PAPERS.md) protects *only* the call stack: each pushed
return address is bound to the previous authentication token,

    aret_i = PAC_ia(ret_i, aret_{i-1}),

forming a chain rooted in a per-thread secret, so an attacker who
overwrites any saved return address (or replays an old one out of
order) fails authentication at the matching return.  The heap is left
completely unprotected — the mirror image of AOS, which is exactly why
it earns a row in the cross-paper matrix: it covers the return path AOS
ignores and nothing else.
"""

from __future__ import annotations

from ..crypto.pac import PACGenerator, PAKeys
from ..memory.runtime import HeapRuntime, ReturnStack


class PACStackFault(Exception):
    """Return-address chain authentication failed."""


class PACStackRuntime(ReturnStack, HeapRuntime):
    """The authenticated call-stack chain over an unprotected heap.

    A ``smash_ret`` overwrite of the topmost saved return address cannot
    recompute the chained token without the key."""

    name = "pacstack"

    #: Chain root: stands in for the per-thread boot-time secret.
    ROOT_TOKEN = 0x0A05

    def __init__(self, pac_bits: int = 16, pac_mode: str = "fast") -> None:
        super().__init__()
        self.generator = PACGenerator(keys=PAKeys(), pac_bits=pac_bits, mode=pac_mode)
        self.auth_failures = 0

    def _token(self, return_address: int, previous: int) -> int:
        return self.generator.compute(return_address, previous, key_name="ia")

    def call(self) -> None:
        return_address = self.call_site()
        previous = self._frames[-1][1] if self._frames else self.ROOT_TOKEN
        self._frames.append([return_address, self._token(return_address, previous)])

    def ret(self) -> int:
        if not self._frames:
            raise PACStackFault("return-address chain underflow")
        return_address, token = self._frames.pop()
        previous = self._frames[-1][1] if self._frames else self.ROOT_TOKEN
        if token != self._token(return_address, previous):
            self.auth_failures += 1
            raise PACStackFault(
                f"return address {return_address:#x} fails chain "
                f"authentication at depth {len(self._frames)}"
            )
        return return_address
