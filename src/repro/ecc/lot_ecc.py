"""LOT-ECC: localized and tiered chipkill correct [Udipi et al., ISCA'12].

LOT-ECC separates the two jobs a symbol code does at once:

* tier 1 (detection + localization): an *intra-chip* checksum of each chip's
  contribution to the line, stored in a dedicated narrow ECC chip and read
  with every access;
* tier 2 (correction): an *inter-chip* XOR parity of the data chips'
  segments (the "global error correction" / GEC data), stored in separate
  ECC lines elsewhere in data memory.

Because the checksum localizes the faulty chip, the XOR tier only ever has
to solve an erasure, so a plain parity suffices.  The price is the GEC
capacity: 40.6% total for the five-chip variant, which is what ECC Parity
amortizes across channels.

Two variants from the paper:

* :class:`LotEcc5` ("LOT-ECC II"): 4 X16 data chips + 1 half-capacity X8
  ECC chip; most energy-efficient, highest capacity overhead.
* :class:`LotEcc9` ("LOT-ECC I"): 8 X8 data chips + 1 X8 ECC chip.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import (
    BatchCorrectResult,
    CorrectResult,
    DetectResult,
    ECCScheme,
    EccTraffic,
)
from repro.ecc.checksum import ones_complement_checksum16, xor_checksum8


class _LotEcc(ECCScheme):
    """Shared checksum + XOR-parity machinery for both LOT-ECC variants."""

    traffic = EccTraffic.ECC_LINE
    line_size = 64
    #: Bytes of checksum stored per data chip per line.
    checksum_bytes: int = 2

    # -- capacity -----------------------------------------------------------------

    @property
    def detection_bytes_per_line(self) -> int:
        return self.checksum_bytes * self.data_chips

    @property
    def correction_bytes_per_line(self) -> int:
        return self.chip_bytes  # one chip-segment of XOR parity

    @property
    def detection_overhead(self) -> float:
        return self.detection_bytes_per_line / self.line_size

    @property
    def correction_overhead(self) -> float:
        # Each (GEC payload + its own checksums) ECC line covers
        # ``ecc_line_coverage`` data lines: e.g. (64+8)/(4*64) for LOT-ECC5.
        ecc_line_bytes = self.line_size + self.detection_bytes_per_line
        return ecc_line_bytes / (self.ecc_line_coverage * self.line_size)

    # -- codec ---------------------------------------------------------------------

    def _checksum(self, segments: np.ndarray) -> np.ndarray:
        """Per-chip checksums: ``(..., chips, chip_bytes)`` -> ``(..., chips*cs_bytes)``."""
        if self.checksum_bytes == 2:
            out = ones_complement_checksum16(segments)
        else:
            out = xor_checksum8(segments)
        return out.reshape(*out.shape[:-2], out.shape[-2] * out.shape[-1])

    def compute_detection(self, data: np.ndarray) -> np.ndarray:
        return self._checksum(self.split_to_chips(data))

    def compute_correction(self, data: np.ndarray) -> np.ndarray:
        """GEC segment: bytewise XOR of all data chips' contributions."""
        return np.bitwise_xor.reduce(self.split_to_chips(data), axis=-2)

    def _mismatched_chips(self, chips: np.ndarray, detection: np.ndarray) -> np.ndarray:
        stored = np.asarray(detection, dtype=np.uint8).reshape(self.data_chips, self.checksum_bytes)
        computed = self._checksum(np.asarray(chips, dtype=np.uint8)).reshape(
            self.data_chips, self.checksum_bytes
        )
        return np.nonzero(np.any(stored != computed, axis=1))[0]

    def detect_line(self, chips: np.ndarray, detection: np.ndarray) -> DetectResult:
        bad = self._mismatched_chips(chips, detection)
        if bad.size == 0:
            return DetectResult(error=False)
        # A single mismatch localizes the faulty data chip; several mismatches
        # mean either the checksum chip itself failed or a multi-chip fault.
        return DetectResult(error=True, chip=int(bad[0]) if bad.size == 1 else None)

    def correct_line(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> CorrectResult:
        chips = np.asarray(chips, dtype=np.uint8)
        bad = set(int(c) for c in self._mismatched_chips(chips, detection))
        if erasures:
            bad |= {int(c) for c in erasures}
        if not bad:
            return CorrectResult(data=self.merge_from_chips(chips), corrected=False, detected=False)
        if len(bad) > 1:
            # Several checksum mismatches usually mean the checksum chip
            # itself died (its whole segment goes at once).  Test that
            # hypothesis against the GEC parity: if the data chips still XOR
            # to the stored parity, the data is intact and only the stored
            # checksums are garbage.
            if erasures is None or all(e >= self.data_chips for e in erasures):
                gec = np.bitwise_xor.reduce(chips, axis=0)
                if np.array_equal(gec, np.asarray(correction, dtype=np.uint8)):
                    return CorrectResult(
                        data=self.merge_from_chips(chips), corrected=True, detected=True
                    )
            # Otherwise parity is a single-erasure code; more than one
            # suspect data chip is uncorrectable at this tier.
            return CorrectResult(data=None, corrected=False, detected=True)
        victim = bad.pop()
        others = np.bitwise_xor.reduce(np.delete(chips, victim, axis=0), axis=0)
        rebuilt = np.bitwise_xor(np.asarray(correction, dtype=np.uint8), others)
        fixed = chips.copy()
        fixed[victim] = rebuilt
        # Verify against the stored checksum of the rebuilt chip (guards
        # against a stale/corrupt GEC segment).
        if self._mismatched_chips(fixed, detection).size:
            return CorrectResult(data=None, corrected=False, detected=True)
        return CorrectResult(data=self.merge_from_chips(fixed), corrected=True, detected=True)

    def correct_lines(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> BatchCorrectResult:
        """Batched correction as three vectorized cases by suspect count.

        Clean rows pass through; single-suspect rows XOR-rebuild the victim
        segment from the GEC parity and verify its checksum; multi-suspect
        rows test the checksum-chip-died hypothesis against the parity.
        Checksum-chip erasures (``e >= data_chips``) fall back to the scalar
        path - no caller batches those.
        """
        if erasures and any(e >= self.data_chips for e in erasures):
            return super().correct_lines(chips, detection, correction, erasures=erasures)
        chips = np.asarray(chips, dtype=np.uint8)
        total = chips.shape[0]
        detection = np.asarray(detection, dtype=np.uint8)
        correction = np.asarray(correction, dtype=np.uint8)
        stored = detection.reshape(total, self.data_chips, self.checksum_bytes)
        computed = self._checksum(chips).reshape(total, self.data_chips, self.checksum_bytes)
        bad = np.any(stored != computed, axis=2)  # (T, data_chips)
        if erasures:
            bad[:, sorted(erasures)] = True
        nbad = bad.sum(axis=1)

        data = np.zeros((total, self.line_size), dtype=np.uint8)
        ok = np.zeros(total, dtype=bool)
        corrected = np.zeros(total, dtype=bool)
        detected = nbad > 0

        clean = nbad == 0
        if clean.any():
            data[clean] = self.merge_from_chips(chips[clean])
            ok[clean] = True

        gec = np.bitwise_xor.reduce(chips, axis=1)  # (T, chip_bytes)

        single = np.flatnonzero(nbad == 1)
        if single.size:
            victim = np.argmax(bad[single], axis=1)
            victim_rows = chips[single, victim]
            # XOR of the other chips = XOR of all chips ^ the victim's row.
            rebuilt = correction[single] ^ gec[single] ^ victim_rows
            # Only the victim changed, so re-verification reduces to its own
            # stored checksum (the other chips' status is unchanged).
            cs = self._checksum(rebuilt[:, None, :]).reshape(single.size, self.checksum_bytes)
            good = np.all(cs == stored[single, victim], axis=1)
            fixed = chips[single].copy()
            fixed[np.arange(single.size), victim] = rebuilt
            idx = single[good]
            data[idx] = self.merge_from_chips(fixed[good])
            ok[idx] = True
            corrected[idx] = True

        multi = np.flatnonzero(nbad > 1)
        if multi.size and not erasures:
            # Checksum-chip-died hypothesis: data chips still XOR to the
            # stored GEC parity, so only the stored checksums are garbage.
            good = np.all(gec[multi] == correction[multi], axis=1)
            idx = multi[good]
            data[idx] = self.merge_from_chips(chips[idx])
            ok[idx] = True
            corrected[idx] = True
        return BatchCorrectResult(data=data, ok=ok, corrected=corrected, detected=detected)


class LotEcc5(_LotEcc):
    """LOT-ECC II: 4 X16 data chips + 1 X8 checksum chip, 64B lines.

    The X8 ECC chip has half the width and capacity of the X16 data chips;
    it carries a 16-bit checksum per data chip per line.  One 72B GEC line
    (64B parity + 8B checksums) covers four data lines, giving the 40.6%
    total overhead the paper quotes.
    """

    name = "LOT-ECC5"
    chips_per_rank = 5
    data_chips = 4
    chip_width = 16
    checksum_bytes = 2
    ecc_line_coverage = 4

    def chip_widths(self) -> "list[int]":
        return [16, 16, 16, 16, 8]


class LotEcc9(_LotEcc):
    """LOT-ECC I: 8 X8 data chips + 1 X8 checksum chip, 64B lines.

    One byte of checksum per data chip per line; one 72B GEC line covers
    eight data lines (26.5% total overhead).
    """

    name = "LOT-ECC9"
    chips_per_rank = 9
    data_chips = 8
    chip_width = 8
    checksum_bytes = 1
    ecc_line_coverage = 8
