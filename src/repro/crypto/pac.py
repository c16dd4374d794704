"""Pointer authentication code (PAC) generation on top of QARMA-64.

Arm PA computes ``PAC = truncate(QARMA(key, pointer, modifier))`` and places
it in the unused upper bits of the pointer (§II-B).  The PAC size depends on
the virtual-address scheme; the paper evaluates 16-bit PACs (Table IV).

:class:`PAKeys` models the banked key registers of Armv8.3-A (APIAKey,
APIBKey, APDAKey, APDBKey, plus the AOS "M" keys for ``pacma``/``pacmb``),
which are architecturally invisible to user space — the threat model assumes
the attacker cannot read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .qarma import Qarma64

MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """A well-mixed 64-bit finaliser (SplitMix64) for the fast PAC mode."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array (arithmetic wraps mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass
class PAKeys:
    """The per-process PA key registers.

    Defaults use the published values from §VI of the paper so the Fig. 11
    experiment is bit-for-bit reproducible.
    """

    #: Instruction keys (return-address / code-pointer signing).
    apia: int = 0x4E6F572069574E54206F6620416C6C21
    apib: int = 0x1A2B3C4D5E6F708192A3B4C5D6E7F809
    #: Data keys (Arm ``pacda``/``pacdb``).
    apda: int = 0x9D8C7B6A5948372615F4E3D2C1B0A998
    apdb: int = 0x0F1E2D3C4B5A69788796A5B4C3D2E1F0
    #: AOS memory keys (``pacma``/``pacmb``, §IV-A).  Key A defaults to the
    #: paper's published study key.
    apma: int = 0x84BE85CE9804E94BEC2802D4E0A488E9
    apmb: int = 0x2B7E151628AED2A6ABF7158809CF4F3C

    def key_for(self, name: str) -> int:
        """Look up a key register by its short name (e.g. ``"ia"``, ``"ma"``)."""
        table = {
            "ia": self.apia,
            "ib": self.apib,
            "da": self.apda,
            "db": self.apdb,
            "ma": self.apma,
            "mb": self.apmb,
        }
        if name not in table:
            raise KeyError(f"unknown PA key register {name!r}")
        return table[name]


@dataclass
class PACGenerator:
    """Computes truncated PACs the way Arm PA does (QARMA + truncation).

    Parameters
    ----------
    keys:
        The key register file.
    pac_bits:
        The PAC width; 11..32 depending on the VA scheme (§II-B).  The
        paper's evaluation uses 16.
    rounds, sbox:
        QARMA parameters.  ``sigma_1`` with ``r = 7`` is the recommended
        QARMA-64 configuration.
    """

    keys: PAKeys = field(default_factory=PAKeys)
    pac_bits: int = 16
    rounds: int = 7
    sbox: int = 1
    #: ``"qarma"`` computes real QARMA-64 PACs (used by the Fig. 11 study);
    #: ``"fast"`` substitutes a statistically equivalent keyed integer hash
    #: for large workload simulations.  Fig. 11 demonstrates QARMA's PAC
    #: uniformity, which is the only property the HBT depends on, so the
    #: substitution preserves collision behaviour (documented in DESIGN.md).
    mode: str = "qarma"

    def __post_init__(self) -> None:
        if not 11 <= self.pac_bits <= 32:
            raise ValueError("PAC size must be between 11 and 32 bits (§II-B)")
        if self.mode not in ("qarma", "fast"):
            raise ValueError("PAC mode must be 'qarma' or 'fast'")
        self._ciphers: Dict[str, Qarma64] = {}
        self._batch_ciphers: Dict[str, object] = {}

    def _cipher(self, key_name: str) -> Qarma64:
        cipher = self._ciphers.get(key_name)
        if cipher is None:
            cipher = Qarma64(
                self.keys.key_for(key_name), rounds=self.rounds, sbox=self.sbox
            )
            self._ciphers[key_name] = cipher
        return cipher

    def compute(self, pointer: int, modifier: int, key_name: str = "ma") -> int:
        """Return the truncated PAC for ``pointer`` under ``modifier``.

        The full 64-bit QARMA output is truncated to :attr:`pac_bits` bits,
        exactly as the hardware drops the bits that do not fit the unused
        pointer field.
        """
        if self.mode == "fast":
            full = _splitmix64(
                (pointer & MASK64)
                ^ _splitmix64((modifier & MASK64) ^ (self.keys.key_for(key_name) & MASK64))
            )
        else:
            full = self._cipher(key_name).encrypt(pointer & MASK64, modifier & MASK64)
        return full & ((1 << self.pac_bits) - 1)

    def compute_batch(self, pointers, modifier: int, key_name: str = "ma") -> list:
        """Truncated PACs for many pointers under one modifier.

        Semantically ``[self.compute(p, modifier, key_name) for p in
        pointers]`` — the property tests in ``tests/test_properties.py`` pin
        that equivalence — computed by :meth:`compute_array`.
        """
        if len(pointers) == 0:
            return []
        words = np.array([p & MASK64 for p in pointers], dtype=np.uint64)
        return self.compute_array(words, modifier, key_name=key_name).tolist()

    def compute_array(
        self, pointers: np.ndarray, modifier: int, key_name: str = "ma"
    ) -> np.ndarray:
        """:meth:`compute` over a ``uint64`` array of pointers.

        Fast mode runs SplitMix64 array-wise; QARMA mode runs the
        NumPy-vectorised :class:`~repro.crypto.qarma_batch.Qarma64Batch`
        instead of one scalar permutation per pointer.
        """
        if self.mode == "fast":
            salt = _splitmix64(
                (modifier & MASK64) ^ (self.keys.key_for(key_name) & MASK64)
            )
            full = _splitmix64_array(pointers ^ np.uint64(salt))
            return full & np.uint64((1 << self.pac_bits) - 1)
        batch = self._batch_ciphers.get(key_name)
        if batch is None:
            from .qarma_batch import Qarma64Batch

            batch = Qarma64Batch(
                self.keys.key_for(key_name), rounds=self.rounds, sbox=self.sbox
            )
            self._batch_ciphers[key_name] = batch
        return batch.pacs(pointers, modifier & MASK64, pac_bits=self.pac_bits)

    @property
    def pac_space(self) -> int:
        """Number of distinct PAC values (the HBT row count, §V-B)."""
        return 1 << self.pac_bits
