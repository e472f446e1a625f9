"""Empirical detection-coverage campaign (Section VI-D).

Monte Carlo over simulated *address-decoder* faults: a chip coherently
returns another location's data.  Plain LOT-ECC5's chip-local checksums
travel with the wrong data and stay self-consistent, so the error escapes;
the VI-D Reed-Solomon variant computes its on-the-fly check symbol across
chips and catches it.  This is the measured counterpart to the paper's
once-per-300,000-years analytic estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.lot_ecc import LotEcc5
from repro.ecc.lot_ecc_rs import LotEcc5RS
from repro.util.rng import make_rng


@dataclass
class DetectionCoverage:
    """Outcome of one scheme's address-error campaign."""

    scheme: str
    trials: int
    detected: int
    corrected: int

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials

    @property
    def correction_rate(self) -> float:
        return self.corrected / self.trials


def _address_error_trial_plain(scheme: LotEcc5, rng) -> "tuple[bool, bool]":
    """Plain LOT-ECC5 with chip-local checksums: data + checksum swap together."""
    data = rng.integers(0, 256, 64, dtype=np.uint8)
    wrong = rng.integers(0, 256, 64, dtype=np.uint8)
    victim = int(rng.integers(scheme.data_chips))
    chips, det, cor = scheme.encode_line(data)
    wchips, wdet, _ = scheme.encode_line(wrong)
    bad = chips.copy()
    bad[victim] = wchips[victim]
    bad_det = det.reshape(scheme.data_chips, -1).copy()
    bad_det[victim] = wdet.reshape(scheme.data_chips, -1)[victim]
    bad_det = bad_det.reshape(-1)
    detected = scheme.detect_line(bad, bad_det).error
    res = scheme.correct_line(bad, bad_det, cor)
    corrected = res.data is not None and np.array_equal(res.data, data)
    return detected, corrected


def _address_error_trial_rs(scheme: LotEcc5RS, rng) -> "tuple[bool, bool]":
    data = rng.integers(0, 256, 64, dtype=np.uint8)
    wrong = rng.integers(0, 256, 64, dtype=np.uint8)
    victim = int(rng.integers(scheme.data_chips))
    chips, det, cor = scheme.encode_line(data)
    bad = chips.copy()
    bad[victim] = scheme.split_to_chips(wrong)[victim]
    detected = scheme.detect_line(bad, det).error
    res = scheme.correct_line(bad, det, cor)
    corrected = res.data is not None and np.array_equal(res.data, data)
    return detected, corrected


def _draw_trials(scheme, trials: int, rng) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Every trial's payload, wrong-row data and victim chip, drawn in the
    order the per-trial functions draw them."""
    data = np.empty((trials, scheme.line_size), dtype=np.uint8)
    wrong = np.empty_like(data)
    victim = np.empty(trials, dtype=np.intp)
    for t in range(trials):
        data[t] = rng.integers(0, 256, scheme.line_size, dtype=np.uint8)
        wrong[t] = rng.integers(0, 256, scheme.line_size, dtype=np.uint8)
        victim[t] = rng.integers(scheme.data_chips)
    return data, wrong, victim


def _address_error_batch(
    scheme, data, wrong, victim, chip_local: bool
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-trial detected and corrected flags of a batch of address errors.

    One encode and one :meth:`~repro.ecc.base.ECCScheme.correct_lines`
    call; for both encodings the batch's ``detected`` flag is
    :meth:`detect_line`'s verdict (a recomputed detection payload that
    differs from the stored one).  With *chip_local* detection bits (plain
    LOT-ECC5's checksums) the victim's stored checksum is the wrong row's
    too.
    """
    n = victim.size
    rows = np.arange(n)
    chips, det, cor = scheme.encode_line(data)
    bad = chips.copy()
    bad[rows, victim] = scheme.split_to_chips(wrong)[rows, victim]
    if chip_local:
        det = det.reshape(n, scheme.data_chips, -1).copy()
        wdet = scheme.compute_detection(wrong).reshape(n, scheme.data_chips, -1)
        det[rows, victim] = wdet[rows, victim]
        det = det.reshape(n, -1)
    res = scheme.correct_lines(bad, det, cor)
    return res.detected, res.ok & np.all(res.data == data, axis=1)


def address_error_campaign(trials: int = 300, seed: int = 0) -> "list[DetectionCoverage]":
    """Run the campaign for both encodings; returns coverage per scheme.

    Each scheme draws its trials from a fresh *seed* stream in the order
    of :func:`_address_error_trial_plain` / :func:`_address_error_trial_rs`,
    then decodes them in one batch.  The per-trial functions stay as its
    oracle (``tests/test_extensions.py`` holds every trial's flags equal).
    """
    out = []
    for scheme, chip_local in ((LotEcc5(), True), (LotEcc5RS(), False)):
        data, wrong, victim = _draw_trials(scheme, trials, make_rng(seed))
        detected, corrected = _address_error_batch(scheme, data, wrong, victim, chip_local)
        out.append(DetectionCoverage(scheme.name, trials, int(detected.sum()), int(corrected.sum())))
    return out
