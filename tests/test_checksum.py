"""Tests for intra-chip checksum primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.checksum import ones_complement_checksum16, xor_checksum8
from repro.ecc.lot_ecc import LotEcc5


def _checksum16_oracle(data: np.ndarray) -> np.ndarray:
    """The original strided-slice formula: high/low bytes combined into
    words, summed, carries folded until the sum fits, complemented."""
    data = np.asarray(data, dtype=np.uint8)
    words = (data[..., 0::2].astype(np.uint32) << 8) | data[..., 1::2].astype(np.uint32)
    total = words.sum(axis=-1, dtype=np.uint64)
    while np.any(total >> 16):
        total = (total & 0xFFFF) + (total >> 16)
    csum = (~total.astype(np.uint32)) & 0xFFFF
    out = np.empty(csum.shape + (2,), dtype=np.uint8)
    out[..., 0] = (csum >> 8) & 0xFF
    out[..., 1] = csum & 0xFF
    return out


def _assert_matches_oracle(data: np.ndarray) -> None:
    got = ones_complement_checksum16(data)
    ref = _checksum16_oracle(data)
    assert got.dtype == ref.dtype == np.uint8
    assert got.shape == ref.shape == data.shape[:-1] + (2,)
    assert np.array_equal(got, ref)


class TestOnesComplement16:
    def test_shape(self, rng):
        data = rng.integers(0, 256, (5, 16), dtype=np.uint8)
        assert ones_complement_checksum16(data).shape == (5, 2)

    def test_deterministic(self, rng):
        data = rng.integers(0, 256, 16, dtype=np.uint8)
        a = ones_complement_checksum16(data)
        assert np.array_equal(a, ones_complement_checksum16(data))

    def test_detects_single_byte_change(self, rng):
        data = rng.integers(0, 256, 16, dtype=np.uint8)
        ref = ones_complement_checksum16(data)
        for i in range(16):
            bad = data.copy()
            bad[i] ^= 0x01
            assert not np.array_equal(ones_complement_checksum16(bad), ref), i

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            ones_complement_checksum16(np.zeros(7, dtype=np.uint8))

    def test_zero_data(self):
        # sum = 0 -> checksum = ~0 = 0xFFFF
        out = ones_complement_checksum16(np.zeros(8, dtype=np.uint8))
        assert out[0] == 0xFF and out[1] == 0xFF

    def test_verification_identity(self, rng):
        """Standard internet-checksum property: sum(data + csum words) is all-ones."""
        data = rng.integers(0, 256, 16, dtype=np.uint8)
        csum = ones_complement_checksum16(data)
        combined = np.concatenate([data, csum])
        words = (combined[0::2].astype(np.uint32) << 8) | combined[1::2]
        total = int(words.sum())
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF

    @given(st.integers(0, 2**32 - 1), st.integers(0, 15), st.integers(1, 255))
    @settings(max_examples=40)
    def test_any_single_corruption_detected(self, seed, pos, delta):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, 16, dtype=np.uint8)
        bad = data.copy()
        bad[pos] ^= delta
        assert not np.array_equal(
            ones_complement_checksum16(bad), ones_complement_checksum16(data)
        )


class TestOnesComplement16MatchesOracle:
    """The whole-array sum equals the strided-slice formula on every shape."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_1d_rows(self, seed, words):
        rng = np.random.default_rng(seed)
        _assert_matches_oracle(rng.integers(0, 256, 2 * words, dtype=np.uint8))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_split_to_chips_views(self, seed, lines):
        """Non-contiguous per-chip views, as the LOT-ECC codecs pass them."""
        scheme = LotEcc5()
        rng = np.random.default_rng(seed)
        chips = scheme.split_to_chips(rng.integers(0, 256, (lines, 64), dtype=np.uint8))
        assert not chips.flags.c_contiguous
        _assert_matches_oracle(chips)
        _assert_matches_oracle(chips[0])
        _assert_matches_oracle(chips[:, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_4d_batches(self, seed):
        rng = np.random.default_rng(seed)
        _assert_matches_oracle(rng.integers(0, 256, (2, 3, 4, 16), dtype=np.uint8))

    @given(st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_all_ff_rows(self, words):
        _assert_matches_oracle(np.full((3, 2 * words), 0xFF, dtype=np.uint8))

    @pytest.mark.parametrize(
        "words, folds",
        [
            ([0xFFFF, 0xFFFF, 0x0001], 2),
            ([0xFFFF] * 0x10001, 2),
            ([0xFFFF] * 0x10002 + [0x0001], 3),  # a row past 2^16 words
        ],
    )
    def test_rows_needing_several_carry_folds(self, words, folds):
        total, needed = sum(words), 0
        while total >> 16:
            total, needed = (total & 0xFFFF) + (total >> 16), needed + 1
        assert needed == folds
        data = np.array(words, dtype=">u2").view(np.uint8)
        _assert_matches_oracle(data)
        _assert_matches_oracle(np.stack([data, data[::-1]]))


class TestXor8:
    def test_shape(self, rng):
        data = rng.integers(0, 256, (4, 8), dtype=np.uint8)
        assert xor_checksum8(data).shape == (4, 1)

    def test_detects_single_byte_change(self, rng):
        data = rng.integers(0, 256, 8, dtype=np.uint8)
        ref = xor_checksum8(data)
        for i in range(8):
            bad = data.copy()
            bad[i] ^= 0xFF
            assert not np.array_equal(xor_checksum8(bad), ref), i

    def test_detects_swapped_bytes_usually(self, rng):
        """The rotation term makes simple transpositions visible."""
        data = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.uint8)
        swapped = data.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert not np.array_equal(xor_checksum8(swapped), xor_checksum8(data))
