"""RAIM: redundant array of independent memory (DIMM-kill correct) [IBM z196].

:class:`Raim45` is the commercial baseline: every 128B line is striped
across five DIMMs of nine X4 chips each - four data DIMMs plus one DIMM
holding their bytewise XOR - so a complete DIMM failure is survivable.  Each
DIMM also carries one ECC chip of within-DIMM detection bits, which both
flags errors on the fly and *localizes* them to a DIMM, turning the RAIM
parity into an erasure code.

:class:`Raim18EP` is the geometry the paper pairs with ECC Parity: a 64B
line confined to one rank of 18 X4 chips (two 9-chip DIMMs).  Detection
stays inline in the two per-DIMM ECC chips; the correction payload is the
XOR of the two DIMM halves' data (R = 0.5), which ECC Parity then stores
only as a cross-channel parity.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import (
    CorrectResult,
    DetectResult,
    ECCScheme,
    EccTraffic,
)
from repro.gf import GF256, ReedSolomon


class _RaimBase(ECCScheme):
    """Shared per-DIMM detection machinery (RS(9,8) over GF(2^8) per word)."""

    chip_width = 4
    chips_per_dimm = 9
    data_chips_per_dimm = 8

    def __init__(self):
        self._det_rs = ReedSolomon(GF256, self.chips_per_dimm, self.data_chips_per_dimm)
        #: bytes each chip contributes to a line
        self._chip_bytes = self.line_size // self.data_chips
        #: words per DIMM segment (one symbol per chip per word)
        self._words = self._chip_bytes

    @property
    def n_data_dimms(self) -> int:
        return self.data_chips // self.data_chips_per_dimm

    @property
    def dimm_data_bytes(self) -> int:
        """Data bytes each DIMM contributes to one line."""
        return self.line_size // self.n_data_dimms

    def _dimm_segments(self, data: np.ndarray) -> np.ndarray:
        """Split line(s) into per-DIMM data: ``(..., n_data_dimms, 8, chip_bytes)``."""
        chips = self.split_to_chips(data)  # (..., data_chips, chip_bytes)
        lead = chips.shape[:-2]
        return chips.reshape(*lead, self.n_data_dimms, self.data_chips_per_dimm, self._chip_bytes)

    def compute_detection(self, data: np.ndarray) -> np.ndarray:
        """Per-DIMM RS check symbols: one symbol per word per DIMM."""
        segs = self._dimm_segments(data)  # (..., dimms, 8 chips, words)
        words = np.swapaxes(segs, -1, -2)  # (..., dimms, words, 8 symbols)
        checks = self._det_rs.encode(words)[..., self.data_chips_per_dimm :]
        return checks.reshape(*checks.shape[:-3], -1).copy()  # (..., dimms * words)

    def _detection_per_dimm(self, detection: np.ndarray) -> np.ndarray:
        return np.asarray(detection, dtype=np.uint8).reshape(self.n_data_dimms, self._words)

    def _bad_dimms(self, chips: np.ndarray, detection: np.ndarray) -> np.ndarray:
        """Indices of data DIMMs whose detection bits mismatch."""
        data = self.merge_from_chips(chips)
        computed = self._detection_per_dimm(self.compute_detection(data))
        stored = self._detection_per_dimm(detection)
        return np.nonzero(np.any(computed != stored, axis=1))[0]

    def detect_line(self, chips: np.ndarray, detection: np.ndarray) -> DetectResult:
        bad = self._bad_dimms(chips, detection)
        if bad.size == 0:
            return DetectResult(error=False)
        return DetectResult(error=True, chip=int(bad[0]) if bad.size == 1 else None)

    @property
    def detection_bytes_per_line(self) -> int:
        return self.n_data_dimms * self._words

    @property
    def detection_overhead(self) -> float:
        # One ECC chip per 8 data chips in every DIMM.
        return 1 / self.data_chips_per_dimm

    def _correct_via_dimm_parity(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        parity_of_dimms: np.ndarray,
        erasures: "set[int] | None",
    ) -> CorrectResult:
        """Erase-and-rebuild one DIMM segment using the XOR of all segments."""
        chips = np.asarray(chips, dtype=np.uint8)
        bad = set(int(d) for d in self._bad_dimms(chips, detection))
        if erasures:
            bad |= {int(c) // self.data_chips_per_dimm for c in erasures}
        if not bad:
            return CorrectResult(data=self.merge_from_chips(chips), corrected=False, detected=False)
        if len(bad) > 1:
            return CorrectResult(data=None, corrected=False, detected=True)
        victim = bad.pop()
        segs = self._dimm_segments(self.merge_from_chips(chips))
        flat = segs.reshape(self.n_data_dimms, -1)
        others = np.bitwise_xor.reduce(np.delete(flat, victim, axis=0), axis=0)
        rebuilt = np.bitwise_xor(np.asarray(parity_of_dimms, dtype=np.uint8), others)
        flat = flat.copy()
        flat[victim] = rebuilt
        fixed_chips = flat.reshape(self.data_chips, self._chip_bytes)
        # Verify the surviving DIMMs only: the victim's stored detection
        # bytes died with it and are regenerated from the rebuilt data.
        still_bad = set(int(d) for d in self._bad_dimms(fixed_chips, detection))
        if still_bad - {victim}:
            return CorrectResult(data=None, corrected=False, detected=True)
        return CorrectResult(data=self.merge_from_chips(fixed_chips), corrected=True, detected=True)


class Raim45(_RaimBase):
    """Commercial RAIM: 45 X4 chips (5 DIMMs), 128B lines, inline parity DIMM.

    The parity DIMM travels with every access, so no extra requests are ever
    needed (``EccTraffic.INLINE``) - the cost is activating 45 chips per
    access and a 40.6% capacity overhead (13 of 45 chips are redundancy).
    """

    name = "RAIM"
    line_size = 128
    chips_per_rank = 45
    data_chips = 32
    traffic = EccTraffic.INLINE

    @property
    def correction_bytes_per_line(self) -> int:
        return self.dimm_data_bytes  # the parity DIMM's 32B data image

    @property
    def correction_overhead(self) -> float:
        # The whole fifth DIMM: 9 chips per 32 data chips.
        return self.chips_per_dimm / self.data_chips

    def compute_correction(self, data: np.ndarray) -> np.ndarray:
        segs = self._dimm_segments(data)
        lead = segs.shape[:-3]
        flat = segs.reshape(*lead, self.n_data_dimms, self.dimm_data_bytes)
        return np.bitwise_xor.reduce(flat, axis=-2)

    def correct_line(self, chips, detection, correction, erasures=None):
        return self._correct_via_dimm_parity(chips, detection, correction, erasures)


class Raim18EP(_RaimBase):
    """RAIM geometry for ECC Parity: 18 X4 chips (2 DIMMs), 64B lines.

    Detection bits (one ECC chip per DIMM) stay inline; the correction
    payload - XOR of the two DIMM halves - is 32B per 64B line (R = 0.5) and
    is intended to be stored via cross-channel ECC parity rather than
    directly.  Updates to the (parity of the) correction bits use the
    XOR-cacheline path.
    """

    name = "RAIM-18 (EP base)"
    line_size = 64
    chips_per_rank = 18
    data_chips = 16
    traffic = EccTraffic.XOR_LINE
    ecc_line_coverage = 2  # one 64B ECC/XOR line holds correction for 2 data lines

    @property
    def correction_bytes_per_line(self) -> int:
        return self.dimm_data_bytes  # 32B: XOR of the two DIMM halves

    @property
    def correction_overhead(self) -> float:
        return self.correction_bytes_per_line / self.line_size

    def compute_correction(self, data: np.ndarray) -> np.ndarray:
        segs = self._dimm_segments(data)
        lead = segs.shape[:-3]
        flat = segs.reshape(*lead, self.n_data_dimms, self.dimm_data_bytes)
        return np.bitwise_xor.reduce(flat, axis=-2)

    def correct_line(self, chips, detection, correction, erasures=None):
        return self._correct_via_dimm_parity(chips, detection, correction, erasures)
