"""Property round-trip tests: bounds compression, pointer signing, QARMA.

Each property drives ~1000 seeded-random cases through an encode/decode
pair and asserts the algebraic invariant the paper's hardware relies on.
Plain ``random.Random`` loops (not hypothesis) keep the case count and
the failure inputs exactly reproducible from the printed seed.
"""

import random

import numpy as np
import pytest

from repro.core.bounds import (
    CompressedBounds,
    compress_bounds,
    decompress_bounds,
    truncate_address,
)
from repro.core.signing import AuthenticationFault, PointerSigner
from repro.crypto.pac import PACGenerator, PAKeys
from repro.crypto.qarma import MASK64, Qarma64
from repro.crypto.qarma_batch import Qarma64Batch
from repro.errors import EncodingError
from repro.isa.encoding import PointerLayout

SEED = 0xA05
CASES = 1000


def _cases(seed=SEED, count=CASES):
    rng = random.Random(seed)
    return rng, range(count)


class TestBoundsCompression:
    """Fig. 9: 29-bit LowBnd + 32-bit Size with carry compensation."""

    def test_compress_decompress_round_trip(self):
        rng, cases = _cases()
        for _ in cases:
            lower = rng.randrange(0, 1 << 32) & ~0xF
            size = rng.randrange(1, 1 << 32)
            bounds = decompress_bounds(compress_bounds(lower, size))
            assert bounds.lower == lower, (lower, size)
            assert bounds.size == size, (lower, size)
            assert bounds.upper == lower + size

    def test_containment_within_allocation(self):
        rng, cases = _cases(seed=SEED + 1)
        for _ in cases:
            lower = rng.randrange(0, 1 << 32) & ~0xF
            size = rng.randrange(1, 1 << 32)
            bounds = decompress_bounds(compress_bounds(lower, size))
            assert bounds.contains(lower), (lower, size)
            assert bounds.contains(lower + size - 1), (lower, size)
            interior = lower + rng.randrange(size)
            assert bounds.contains(interior), (lower, size, interior)

    def test_rejection_outside_allocation(self):
        rng, cases = _cases(seed=SEED + 2)
        for _ in cases:
            lower = rng.randrange(1 << 10, 1 << 32) & ~0xF
            size = rng.randrange(1, 1 << 20)
            bounds = decompress_bounds(compress_bounds(lower, size))
            assert not bounds.contains(lower + size), (lower, size)
            assert not bounds.contains(lower - 1), (lower, size)

    def test_carry_compensation_across_bit32(self):
        """Fig. 9b's C bit: allocations straddling the 2^33 boundary keep
        their upper half in bounds even though tAddr drops bit 33."""
        rng, cases = _cases(seed=SEED + 3)
        for _ in cases:
            # Lower bound just below 2^33 (bit 32 set), size crossing it.
            lower = ((1 << 33) - rng.randrange(16, 1 << 16)) & ~0xF
            size = rng.randrange(1 << 17, 1 << 20)
            bounds = decompress_bounds(compress_bounds(lower, size))
            crossing = (1 << 33) + rng.randrange(size - ((1 << 33) - lower))
            assert crossing < lower + size
            assert bounds.contains(crossing), (lower, size, crossing)

    def test_truncate_address_identity_below_bit33(self):
        rng, cases = _cases(seed=SEED + 4)
        for _ in cases:
            address = rng.randrange(0, 1 << 33)
            low_field = rng.randrange(0, 1 << 28)  # bit 32 of LowBnd clear
            assert truncate_address(address, low_field) == address

    def test_empty_record_contains_nothing(self):
        bounds = CompressedBounds(raw=0)
        assert bounds.is_empty
        assert not bounds.contains(0)

    def test_compress_validates_inputs(self):
        with pytest.raises(EncodingError):
            compress_bounds(0x1008, 64)  # not 16-byte aligned
        with pytest.raises(EncodingError):
            compress_bounds(0x1000, 0)  # zero size
        with pytest.raises(EncodingError):
            compress_bounds(0x1000, 1 << 32)  # size field overflow


class TestPointerLayout:
    """§IV-A pointer format: VA(46) | AHC(2) | PAC(16)."""

    def test_sign_decode_round_trip(self):
        layout = PointerLayout()
        rng, cases = _cases(seed=SEED + 5)
        for _ in cases:
            address = rng.randrange(0, 1 << layout.va_bits)
            pac = rng.randrange(0, 1 << layout.pac_bits)
            ahc = rng.randrange(0, 4)
            pointer = layout.sign(address, pac, ahc)
            assert layout.address(pointer) == address
            assert layout.pac(pointer) == pac
            assert layout.ahc(pointer) == ahc
            assert layout.is_signed(pointer) == (ahc != 0)
            decoded = layout.decode(pointer)
            assert (decoded.address, decoded.pac, decoded.ahc) == (
                address, pac, ahc,
            )

    def test_strip_removes_metadata_and_is_idempotent(self):
        layout = PointerLayout()
        rng, cases = _cases(seed=SEED + 6)
        for _ in cases:
            address = rng.randrange(0, 1 << layout.va_bits)
            pointer = layout.sign(
                address, rng.randrange(1 << layout.pac_bits), rng.randrange(4)
            )
            stripped = layout.strip(pointer)
            assert stripped == address
            assert layout.strip(stripped) == stripped
            assert not layout.is_signed(stripped)

    def test_sign_validates_field_widths(self):
        layout = PointerLayout()
        with pytest.raises(EncodingError):
            layout.sign(1 << layout.va_bits, 0, 0)
        with pytest.raises(EncodingError):
            layout.sign(0, 1 << layout.pac_bits, 0)
        with pytest.raises(EncodingError):
            layout.sign(0, 0, 4)


class TestSignerRoundTrip:
    """pacma -> xpacm/autm semantics over random pointers (fast PAC mode)."""

    def setup_method(self):
        self.signer = PointerSigner(generator=PACGenerator(mode="fast"))

    def test_pacma_xpacm_restores_address(self):
        rng, cases = _cases(seed=SEED + 7)
        va_bits = self.signer.layout.va_bits
        for _ in cases:
            address = rng.randrange(0, 1 << va_bits) & ~0xF
            modifier = rng.randrange(0, 1 << 64)
            size = rng.randrange(1, 1 << 32)
            signed = self.signer.pacma(address, modifier, size)
            assert self.signer.xpacm(signed) == address
            assert self.signer.is_signed(signed)

    def test_pacma_deterministic(self):
        rng, cases = _cases(seed=SEED + 8, count=200)
        for _ in cases:
            address = rng.randrange(0, 1 << 40) & ~0xF
            modifier = rng.randrange(0, 1 << 64)
            size = rng.randrange(1, 1 << 20)
            assert self.signer.pacma(address, modifier, size) == (
                self.signer.pacma(address, modifier, size)
            )

    def test_autm_passes_signed_and_faults_unsigned(self):
        rng, cases = _cases(seed=SEED + 9, count=200)
        for _ in cases:
            address = rng.randrange(0, 1 << 40) & ~0xF
            signed = self.signer.pacma(address, rng.randrange(1 << 32), 64)
            assert self.signer.autm(signed) == signed  # autm does not strip
            with pytest.raises(AuthenticationFault):
                self.signer.autm(self.signer.xpacm(signed))


class TestBatchQarmaEquivalence:
    """The NumPy-vectorised QARMA (``repro.crypto.qarma_batch``) must be
    element-for-element identical to the scalar reference cipher — the
    invariant the batched preamble signing (and therefore the fast-kernel
    lowering path) rests on."""

    #: Degenerate and published key material: all-zero, all-ones (128-bit),
    #: and the paper's §VI study key.
    EDGE_KEYS = (0, (1 << 128) - 1, PAKeys().apma)
    EDGE_TWEAKS = (0, MASK64)
    EDGE_PLAINTEXTS = (0, 1, MASK64, 1 << 63)

    def test_encrypt_matches_scalar(self):
        rng, cases = _cases(seed=SEED + 20)
        key = PAKeys().apma
        scalar = Qarma64(key)
        batch = Qarma64Batch(key)
        plaintexts = [rng.randrange(0, 1 << 64) for _ in cases]
        for start in range(0, CASES, 250):  # 4 tweaks x 250 points
            tweak = rng.randrange(0, 1 << 64)
            chunk = plaintexts[start : start + 250]
            got = batch.encrypt(np.array(chunk, dtype=np.uint64), tweak)
            want = [scalar.encrypt(p, tweak) for p in chunk]
            assert [int(x) for x in got] == want, (tweak, start)

    def test_encrypt_edge_values(self):
        rng, _ = _cases(seed=SEED + 21)
        for key in self.EDGE_KEYS:
            scalar = Qarma64(key)
            batch = Qarma64Batch(key)
            points = list(self.EDGE_PLAINTEXTS) + [
                rng.randrange(0, 1 << 64) for _ in range(8)
            ]
            for tweak in self.EDGE_TWEAKS:
                got = batch.encrypt(np.array(points, dtype=np.uint64), tweak)
                want = [scalar.encrypt(p, tweak) for p in points]
                assert [int(x) for x in got] == want, (key, tweak)

    def test_pacs_are_truncated_encryptions(self):
        rng, _ = _cases(seed=SEED + 22)
        key = PAKeys().apmb
        scalar = Qarma64(key)
        batch = Qarma64Batch(key)
        for pac_bits in (11, 16, 32):
            pointers = [rng.randrange(0, 1 << 64) for _ in range(100)]
            tweak = rng.randrange(0, 1 << 64)
            got = batch.pacs(
                np.array(pointers, dtype=np.uint64), tweak, pac_bits=pac_bits
            )
            mask = (1 << pac_bits) - 1
            want = [scalar.encrypt(p, tweak) & mask for p in pointers]
            assert [int(x) for x in got] == want, pac_bits

    def test_generator_compute_batch_matches_compute(self):
        rng, _ = _cases(seed=SEED + 23)
        for mode, count in (("qarma", 200), ("fast", 800)):
            generator = PACGenerator(mode=mode)
            pointers = [rng.randrange(0, 1 << 64) for _ in range(count)]
            modifier = rng.randrange(0, 1 << 64)
            for key_name in ("ma", "mb"):
                got = generator.compute_batch(pointers, modifier, key_name=key_name)
                want = [
                    generator.compute(p, modifier, key_name=key_name)
                    for p in pointers
                ]
                assert got == want, (mode, key_name)
        assert PACGenerator().compute_batch([], 42) == []

    def test_signer_pacma_batch_matches_pacma(self):
        rng, _ = _cases(seed=SEED + 24)
        for mode, count in (("qarma", 150), ("fast", 850)):
            signer = PointerSigner(generator=PACGenerator(mode=mode))
            va_limit = 1 << signer.layout.va_bits
            pointers = [rng.randrange(0, va_limit) for _ in range(count)]
            # Sizes cover the zero-means-one re-signing convention (§IV-C).
            sizes = [rng.choice((0, 1, 16, rng.randrange(1, 1 << 20))) for _ in pointers]
            modifier = rng.randrange(0, 1 << 64)
            got = signer.pacma_batch(pointers, modifier, sizes)
            want = [
                signer.pacma(p, modifier, s) for p, s in zip(pointers, sizes)
            ]
            assert got == want, mode
