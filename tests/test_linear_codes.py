"""The linear-code contract and the campaign tallies built on it.

A scheme that declares ``ECCScheme.linear`` promises that the decoder's
verdict on a corrupted line depends on the error pattern alone, so
``ECCScheme.correct_errors`` decodes the error on the zero line.  These
tests hold every declared-linear catalog scheme to payload independence
(with plain LOT-ECC5, whose one's-complement checksums are not linear, as
the control that the check can fail), and hold the scatter tally of the
fault campaigns equal to a per-trial encode-corrupt-decode oracle.
"""

import inspect

import numpy as np
import pytest

import repro.ecc
from repro.ecc import Chipkill18, Chipkill36, DoubleChipkill40, ECCScheme, LotEcc5, LotEcc5RS
from repro.experiments import coverage
from repro.faults.montecarlo import _codec_scatter_tally, _draw_scatter_chunk
from repro.util.rng import make_rng

CATALOG = [
    cls
    for cls in (getattr(repro.ecc, name) for name in repro.ecc.__all__)
    if inspect.isclass(cls) and issubclass(cls, ECCScheme) and not inspect.isabstract(cls)
]
LINEAR = [cls for cls in CATALOG if cls.linear]


def _scatter_errors(scheme, counts, pos, bit) -> np.ndarray:
    """Each trial's drawn flips as a chip-matrix XOR error, one flip at a time."""
    n = counts.size
    error = np.zeros((n, scheme.data_chips * scheme.chip_bytes), dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(counts)))
    for t in range(n):
        for p, b in zip(pos[starts[t] : starts[t + 1]], bit[starts[t] : starts[t + 1]]):
            error[t, p] ^= 1 << int(b)
    return error.reshape(n, scheme.data_chips, scheme.chip_bytes)


def _outcomes(scheme, base: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Per-trial ``(ok, right)`` of storing *base*, XOR-ing *error* into its
    chips and correcting: the encode path, whatever ``linear`` says."""
    chips = scheme.split_to_chips(base)
    res = scheme.correct_lines(
        chips ^ error, scheme.compute_detection(base), scheme.compute_correction(base)
    )
    return np.stack([res.ok, res.ok & np.all(res.data == base, axis=1)])


def _draws(scheme, seed: int):
    """Chip-kill and scatter trials: ``(payloads, errors)`` pairs."""
    rng = make_rng(np.random.SeedSequence((34, seed)))
    out = []
    for pattern in ("single-chip kill", "double-chip kill"):
        data, spec = coverage._draw_chunk(scheme, pattern, 512, rng)
        out.append((data, coverage._error(scheme, scheme.split_to_chips(data), spec)))
    data, counts, pos, bit = _draw_scatter_chunk(rng, scheme, 3.0, 2048)
    out.append((data, _scatter_errors(scheme, counts, pos, bit)))
    return out


def _payload_independent(scheme, seed: int) -> bool:
    for data, error in _draws(scheme, seed):
        zero = np.zeros_like(data)
        if not np.array_equal(_outcomes(scheme, data, error), _outcomes(scheme, zero, error)):
            return False
    return True


class TestDeclaredLinearity:
    def test_rs_chipkill_codes_declare_it(self):
        assert {cls.__name__ for cls in LINEAR} == {"Chipkill18", "Chipkill36", "DoubleChipkill40"}

    @pytest.mark.parametrize("scheme_cls", LINEAR, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_outcome_independent_of_payload(self, scheme_cls, seed):
        assert _payload_independent(scheme_cls(), seed)

    def test_checksum_scheme_fails_the_check(self):
        """The control: LOT-ECC5's one's-complement checksums see a flip as
        +-2^b depending on the payload bit, so payload independence fails
        on the same draws."""
        assert not LotEcc5.linear
        assert not _payload_independent(LotEcc5(), 0)


class TestEncodeLine:
    @pytest.mark.parametrize("scheme_cls", CATALOG, ids=lambda c: c.__name__)
    def test_matches_the_payload_functions(self, scheme_cls):
        scheme = scheme_cls()
        data = make_rng(5).integers(0, 256, (16, scheme.line_size), dtype=np.uint8)
        chips, det, cor = scheme.encode_line(data)
        assert np.array_equal(chips, scheme.split_to_chips(data))
        assert np.array_equal(det, scheme.compute_detection(data))
        assert np.array_equal(cor, scheme.compute_correction(data))


def _scatter_reference(scheme, data, counts, pos, bit) -> np.ndarray:
    """Per-trial oracle of the scatter tally: encode the payload, flip its
    bits, ``correct_line``, and flag a claimed recovery with wrong data."""
    error = _scatter_errors(scheme, counts, pos, bit)
    wrong = np.zeros(counts.size)
    for t in range(counts.size):
        chips = scheme.split_to_chips(data[t])
        det, cor = scheme.compute_detection(data[t]), scheme.compute_correction(data[t])
        res = scheme.correct_line(chips ^ error[t], det, cor)
        wrong[t] = res.data is not None and not np.array_equal(res.data, data[t])
    return wrong


class TestScatterTallyEqualsReference:
    @pytest.mark.parametrize(
        "scheme_cls", [Chipkill36, Chipkill18, DoubleChipkill40, LotEcc5, LotEcc5RS]
    )
    @pytest.mark.parametrize("rate", [1.0, 4.0])
    def test_identical_indicators(self, scheme_cls, rate):
        scheme = scheme_cls()
        rng = make_rng(np.random.SeedSequence((34, 2)))
        data, counts, pos, bit = _draw_scatter_chunk(rng, scheme, rate, 512)
        assert (counts == 0).any()  # clean trials skip the decoder
        batched = _codec_scatter_tally(scheme, data, counts, pos, bit)
        assert np.array_equal(batched, _scatter_reference(scheme, data, counts, pos, bit))
