"""Intra-chip checksum primitives used by LOT-ECC and Multi-ECC.

LOT-ECC's tier-1 detection is a per-chip checksum of the bytes that chip
contributes to a line: a mismatch both detects the error and localizes it to
one chip, which turns the inter-chip parity tier into an erasure code.
"""

from __future__ import annotations

import numpy as np


def ones_complement_checksum16(data: np.ndarray) -> np.ndarray:
    """16-bit one's-complement checksum over the last axis of a byte array.

    Input shape ``(..., 2k)`` (byte count must be even); output shape
    ``(..., 2)`` - the complemented end-around-carry sum, big-endian.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.shape[-1] % 2:
        raise ValueError("byte count must be even for a 16-bit checksum")
    # One whole-array sum of the bytes read as big-endian 16-bit words.
    total = data.view(">u2").sum(axis=-1, dtype=np.uint64)
    # Fold the carries back in.  A row of L <= 0xFFFF words sums to at most
    # L * 0xFFFF, which two folds bring within 16 bits; four folds suffice
    # for any row below 2^32 words.
    for _ in range(2 if data.shape[-1] < 1 << 17 else 4):
        total = (total & 0xFFFF) + (total >> 16)
    # An array (never a NumPy scalar, which would drop the byte order) of
    # big-endian words, viewed back as their two bytes.
    csum = np.asarray(0xFFFF - total, dtype=">u2")
    return csum[..., None].view(np.uint8)


def xor_checksum8(data: np.ndarray) -> np.ndarray:
    """Position-rotated additive 8-bit checksum; output shape ``(..., 1)``.

    Each byte is rotated left by its position before a mod-256 sum.  The
    rotation makes the sum sensitive to byte order, and the addition avoids
    the linear-cancellation blind spots of a plain XOR fold (e.g. the same
    delta applied to every byte).  Any single-byte change is detected
    (rotation is a bijection, so the summand always changes).  Used where
    only one byte of budget exists (LOT-ECC9's per-chip checksums) - weaker
    than the 16-bit one's-complement sum, as in the original LOT-ECC tiers.
    """
    data = np.asarray(data, dtype=np.uint8)
    n = data.shape[-1]
    shifts = (np.arange(n) % 8).astype(np.uint16)
    wide = data.astype(np.uint16)
    rotated = ((wide << shifts) | (wide >> (8 - shifts))) & 0xFF
    total = rotated.sum(axis=-1) & 0xFF
    return total[..., None].astype(np.uint8)
