"""``ECCScheme.correct_lines`` (batched codec) vs per-line ``correct_line``.

The vectorized overrides in the chipkill and LOT-ECC families must agree
with the base-class loop - and hence with ``correct_line`` - for every
outcome field, across clean lines, in-spec corruptions, beyond-spec
corruptions, and declared erasures.
"""

import numpy as np
import pytest

from repro.ecc.base import ECCScheme
from repro.ecc.chipkill import Chipkill18, Chipkill36
from repro.ecc.double_chipkill import DoubleChipkill40
from repro.ecc.lot_ecc import LotEcc5, LotEcc9
from repro.ecc.lot_ecc_rs import LotEcc5RS

SCHEMES = [
    Chipkill36,
    Chipkill18,
    DoubleChipkill40,
    LotEcc5,
    LotEcc5RS,
    LotEcc9,
]


def _mixed_batch(scheme, rng, n=48):
    """A batch mixing clean lines, chip kills, double kills, and bit flips."""
    data = rng.integers(0, 256, (n, scheme.line_size), dtype=np.uint8)
    det = scheme.compute_detection(data)
    corr = scheme.compute_correction(data)
    chips = scheme.split_to_chips(data)
    bad = chips.copy()
    for i in range(n):
        kind = i % 4
        if kind == 0:
            continue  # clean
        if kind == 1:  # one chip replaced
            chip = int(rng.integers(scheme.data_chips))
            bad[i, chip] = rng.integers(0, 256, scheme.chip_bytes, dtype=np.uint8)
        elif kind == 2:  # two chips replaced (beyond spec for most schemes)
            for chip in rng.choice(scheme.data_chips, size=2, replace=False):
                bad[i, int(chip)] = rng.integers(0, 256, scheme.chip_bytes, dtype=np.uint8)
        else:  # a single bit flip
            chip = int(rng.integers(scheme.data_chips))
            byte = int(rng.integers(scheme.chip_bytes))
            bad[i, chip, byte] ^= np.uint8(1 << int(rng.integers(8)))
    return data, bad, det, corr


def _assert_matches_base(scheme, bad, det, corr, erasures):
    batched = scheme.correct_lines(bad, det, corr, erasures=erasures)
    reference = ECCScheme.correct_lines(scheme, bad, det, corr, erasures=erasures)
    assert np.array_equal(batched.ok, reference.ok)
    assert np.array_equal(batched.corrected, reference.corrected)
    assert np.array_equal(batched.detected, reference.detected)
    assert np.array_equal(batched.data[batched.ok], reference.data[reference.ok])
    return batched


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed", [0, 17])
def test_mixed_batch_matches_per_line(scheme_cls, seed):
    scheme = scheme_cls()
    rng = np.random.default_rng(seed)
    data, bad, det, corr = _mixed_batch(scheme, rng)
    res = _assert_matches_base(scheme, bad, det, corr, None)
    # Clean lines (every 4th) must pass through untouched.
    clean = np.arange(0, len(data), 4)
    assert res.ok[clean].all()
    assert not res.detected[clean].any()
    assert np.array_equal(res.data[clean], data[clean])
    # Single-chip kills are in spec for every catalog scheme.
    killed = np.arange(1, len(data), 4)
    assert res.corrected[killed].all()
    assert np.array_equal(res.data[killed], data[killed])


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda c: c.__name__)
def test_erasure_batch_matches_per_line(scheme_cls):
    # The same chip erased in every line - the shape the machine's
    # faulty-bank scrub runs produce from the health table.
    scheme = scheme_cls()
    rng = np.random.default_rng(3)
    n = 32
    data = rng.integers(0, 256, (n, scheme.line_size), dtype=np.uint8)
    det = scheme.compute_detection(data)
    corr = scheme.compute_correction(data)
    bad = scheme.split_to_chips(data).copy()
    victim = 1
    bad[:, victim] = rng.integers(0, 256, (n, scheme.chip_bytes), dtype=np.uint8)
    res = _assert_matches_base(scheme, bad, det, corr, {victim})
    assert res.ok.all()
    assert np.array_equal(res.data, data)


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda c: c.__name__)
def test_erasure_plus_extra_damage_matches_per_line(scheme_cls):
    # Erased chip plus an unrelated bit flip: exercises the slow-retry path
    # of the RS batch decode and the LOT-ECC fallback cases.
    scheme = scheme_cls()
    rng = np.random.default_rng(11)
    n = 32
    data = rng.integers(0, 256, (n, scheme.line_size), dtype=np.uint8)
    det = scheme.compute_detection(data)
    corr = scheme.compute_correction(data)
    bad = scheme.split_to_chips(data).copy()
    bad[:, 0] = rng.integers(0, 256, (n, scheme.chip_bytes), dtype=np.uint8)
    flip = np.arange(0, n, 3)
    other = 2 % scheme.data_chips
    bad[flip, other, 0] ^= np.uint8(0x40)
    _assert_matches_base(scheme, bad, det, corr, {0})


def test_empty_batch():
    scheme = Chipkill36()
    bad = np.zeros((0, scheme.data_chips, scheme.chip_bytes), dtype=np.uint8)
    det = np.zeros((0, scheme.detection_bytes_per_line), dtype=np.uint8)
    corr = np.zeros((0, scheme.correction_bytes_per_line), dtype=np.uint8)
    res = scheme.correct_lines(bad, det, corr)
    assert res.data.shape == (0, scheme.line_size)
    assert res.ok.shape == (0,)
