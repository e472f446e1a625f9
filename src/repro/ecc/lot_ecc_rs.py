"""Section VI-D's modified LOT-ECC5 encoding: inter-chip Reed-Solomon.

Plain LOT-ECC detects errors with *intra-chip* checksums, so a DRAM address
decoder fault - the chip coherently returning the wrong row - escapes
detection: the data and its chip-local checksum are self-consistent.  The
paper fixes this for banks not marked faulty by replacing LOT-ECC's
inter-device parity with a Reed-Solomon code over GF(2^16):

* each 16-byte word is eight 16-bit data symbols interleaved evenly across
  the four X16 chips (two symbols per chip per word);
* RS(10, 8) over GF(2^16) appends two check symbols;
* check symbol #1 is stored in the X8 ECC chip and checked on the fly -
  being computed from *different* chips, it catches address errors;
* check symbol #2 plus the intra-chip checksums form the correction
  payload (stored via ECC parity), keeping R = 0.25 like plain LOT-ECC5;
* correction localizes the faulty chip with the checksums and then
  erasure-decodes the chip's two symbols per word with both check symbols.
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
from repro.ecc.checksum import ones_complement_checksum16
from repro.gf import GF65536, ReedSolomon


def _bytes_to_symbols(data: np.ndarray) -> np.ndarray:
    """Big-endian byte pairs -> uint16 symbols, over the last axis."""
    data = np.asarray(data, dtype=np.uint8)
    return (data[..., 0::2].astype(np.uint16) << 8) | data[..., 1::2]


def _symbols_to_bytes(sym: np.ndarray) -> np.ndarray:
    sym = np.asarray(sym, dtype=np.uint16)
    out = np.empty(sym.shape[:-1] + (sym.shape[-1] * 2,), dtype=np.uint8)
    out[..., 0::2] = (sym >> 8) & 0xFF
    out[..., 1::2] = sym & 0xFF
    return out


class LotEcc5RS(ECCScheme):
    """LOT-ECC5 with the Section VI-D inter-chip RS(10,8) over GF(2^16)."""

    name = "LOT-ECC5/RS (VI-D)"
    line_size = 64
    chips_per_rank = 5
    data_chips = 4
    chip_width = 16
    traffic = EccTraffic.ECC_LINE
    ecc_line_coverage = 4
    #: symbols each chip contributes to one word
    SYMBOLS_PER_CHIP = 2
    WORDS = 4  # 64B line / 16B word

    def __init__(self):
        self._rs = ReedSolomon(GF65536, 10, 8)

    def chip_widths(self) -> "list[int]":
        return [16, 16, 16, 16, 8]

    # -- capacity (identical budget to plain LOT-ECC5) -------------------------------

    @property
    def detection_bytes_per_line(self) -> int:
        return 2 * self.WORDS  # check symbol #1 per word, in the X8 chip

    @property
    def correction_bytes_per_line(self) -> int:
        return 2 * self.WORDS + 2 * self.data_chips  # check #2 + checksums

    @property
    def detection_overhead(self) -> float:
        return 0.125  # the X8 chip, as in plain LOT-ECC5

    @property
    def correction_overhead(self) -> float:
        # Same ECC-line layout as LOT-ECC5: one 72B line per 4 data lines.
        return (self.line_size + 8) / (self.ecc_line_coverage * self.line_size)

    # -- symbol plumbing ------------------------------------------------------------------

    def _words_symbols(self, data: np.ndarray) -> np.ndarray:
        """Line(s) -> ``(..., WORDS, 8)`` uint16 data-symbol matrix.

        Word ``w`` takes bytes ``[4w, 4w+4)`` of every chip; chip ``c``
        supplies symbols ``2c`` and ``2c+1`` of the word (even interleave).
        """
        chips = self.split_to_chips(data)  # (..., 4, 16)
        lead = chips.shape[:-2]
        per_word = chips.reshape(*lead, self.data_chips, self.WORDS, 4)
        sym = _bytes_to_symbols(per_word)  # (..., 4 chips, 4 words, 2 sym)
        sym = np.swapaxes(sym, -3, -2)  # (..., words, chips, 2)
        return sym.reshape(*lead, self.WORDS, 8)

    def _symbols_to_chips(self, sym: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_words_symbols`: ``(..., WORDS, 8)`` -> ``(..., 4, 16)``."""
        sym = np.asarray(sym, dtype=np.uint16)
        lead = sym.shape[:-2]
        per_word = sym.reshape(*lead, self.WORDS, self.data_chips, self.SYMBOLS_PER_CHIP)
        per_chip = np.swapaxes(per_word, -3, -2)  # (..., chips, words, 2)
        return _symbols_to_bytes(per_chip.reshape(*lead, self.data_chips, -1))

    def _check_symbols(self, data: np.ndarray) -> np.ndarray:
        """Both RS check symbols per word: ``(..., WORDS, 2)`` uint16."""
        return self._rs.encode(self._words_symbols(data))[..., 8:]

    # -- payloads --------------------------------------------------------------------------

    def compute_detection(self, data: np.ndarray) -> np.ndarray:
        checks = self._check_symbols(data)[..., 0]  # (..., WORDS)
        return _symbols_to_bytes(checks)

    def _correction(self, data: np.ndarray, checks: np.ndarray) -> np.ndarray:
        """Correction payload from the line(s) and their check symbols."""
        csums = ones_complement_checksum16(self.split_to_chips(data))
        csums = csums.reshape(*csums.shape[:-2], -1)
        return np.concatenate([_symbols_to_bytes(checks[..., 1]), csums], axis=-1)

    def compute_correction(self, data: np.ndarray) -> np.ndarray:
        return self._correction(data, self._check_symbols(data))

    def encode_line(self, data: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One RS encode for both payloads."""
        data = np.asarray(data, dtype=np.uint8)
        checks = self._check_symbols(data)
        return (
            self.split_to_chips(data),
            _symbols_to_bytes(checks[..., 0]),
            self._correction(data, checks),
        )

    # -- detection (inter-chip: catches address errors) -------------------------------------

    def detect_line(self, chips: np.ndarray, detection: np.ndarray) -> DetectResult:
        data = self.merge_from_chips(chips)
        expected = self.compute_detection(data)
        mismatch = not np.array_equal(
            expected, np.asarray(detection, dtype=np.uint8).reshape(-1)
        )
        return DetectResult(error=mismatch, chip=None)

    # -- correction --------------------------------------------------------------------------

    def _split_correction(self, correction: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        correction = np.asarray(correction, dtype=np.uint8).reshape(-1)
        check2 = _bytes_to_symbols(correction[: 2 * self.WORDS])
        csums = correction[2 * self.WORDS :].reshape(self.data_chips, 2)
        return check2, csums

    def correct_line(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> CorrectResult:
        chips = np.asarray(chips, dtype=np.uint8)
        data = self.merge_from_chips(chips)
        det_stored = np.asarray(detection, dtype=np.uint8).reshape(-1)
        detected = not np.array_equal(self.compute_detection(data), det_stored)
        if not detected and not erasures:
            return CorrectResult(data=data, corrected=False, detected=False)

        check2, csums = self._split_correction(correction)
        # Localize: intra-chip checksums name the faulty chip.
        computed = ones_complement_checksum16(chips)
        bad = set(int(c) for c in np.nonzero(np.any(computed != csums, axis=1))[0])
        if erasures:
            bad |= {int(c) for c in erasures if c < self.data_chips}
        # An address error leaves the checksums consistent (the chip returns
        # coherent wrong-row data); fall back to RS error decoding then.
        words = self._words_symbols(data)  # (WORDS, 8)
        det_sym = _bytes_to_symbols(det_stored)  # (WORDS,)
        codewords = np.concatenate(
            [words, det_sym[:, None], check2[:, None]], axis=1
        )  # (WORDS, 10)
        if len(bad) > 1:
            return CorrectResult(data=None, corrected=False, detected=True)
        if bad:
            victim = bad.pop()
            positions = [victim * self.SYMBOLS_PER_CHIP + k for k in range(self.SYMBOLS_PER_CHIP)]
            # chip c holds word-symbol indices 2c, 2c+1 under the interleave
            res = self._rs.decode(codewords, erasures=positions)
        else:
            res = self._rs.decode(codewords)
        if not res.ok.all():
            return CorrectResult(data=None, corrected=False, detected=True)
        fixed_syms = res.corrected[:, :8]
        fixed_chips = self._symbols_to_chips(fixed_syms.astype(np.uint16))
        fixed = self.merge_from_chips(fixed_chips)
        # Final cross-check against the stored inter-chip detection symbol.
        if not np.array_equal(self.compute_detection(fixed), det_stored):
            return CorrectResult(data=None, corrected=False, detected=True)
        changed = bool(res.n_corrected.sum() > 0) or not np.array_equal(fixed, data)
        return CorrectResult(data=fixed, corrected=changed, detected=True)

    def correct_lines(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> BatchCorrectResult:
        """Batched :meth:`correct_line`: localize every line's victim chip in
        one checksum pass, then group rows by victim signature so each group
        decodes through one batched RS call (the batched kernel sees
        ``group_rows * WORDS`` codewords at once, and the per-erasure-set
        solve cache is hit instead of rebuilt).  ``tests/test_correct_lines.py``
        holds this equal to the base per-line loop.
        """
        chips = np.asarray(chips, dtype=np.uint8)
        total = chips.shape[0]
        data = self.merge_from_chips(chips)
        det_stored = np.asarray(detection, dtype=np.uint8).reshape(total, -1)
        computed_det = np.asarray(self.compute_detection(data), dtype=np.uint8).reshape(
            total, -1
        )
        mismatch = np.any(computed_det != det_stored, axis=1)

        out = np.zeros((total, self.line_size), dtype=np.uint8)
        ok = np.zeros(total, dtype=bool)
        corrected = np.zeros(total, dtype=bool)
        detected = mismatch.copy()

        # Declared erasures force every line through the decode path.
        active = mismatch | bool(erasures)
        clean = ~active
        out[clean] = data[clean]
        ok[clean] = True
        act = np.flatnonzero(active)
        if act.size == 0:
            return BatchCorrectResult(data=out, ok=ok, corrected=corrected, detected=detected)
        detected[act] = True

        correction = np.asarray(correction, dtype=np.uint8).reshape(total, -1)
        check2 = _bytes_to_symbols(correction[:, : 2 * self.WORDS])  # (T, WORDS)
        csums = correction[:, 2 * self.WORDS :].reshape(total, self.data_chips, 2)
        badmask = np.any(ones_complement_checksum16(chips) != csums, axis=2)  # (T, 4)
        if erasures:
            era = sorted({int(c) for c in erasures if c < self.data_chips})
            if era:
                badmask[:, era] = True
        nbad = badmask[act].sum(axis=1)
        victim = np.argmax(badmask[act], axis=1)

        words = self._words_symbols(data[act])  # (A, WORDS, 8)
        det_sym = _bytes_to_symbols(det_stored[act])  # (A, WORDS)
        codewords = np.concatenate(
            [words, det_sym[:, :, None], check2[act][:, :, None]], axis=2
        )  # (A, WORDS, 10)

        # Group by victim signature: one batched decode per erasure set.
        # Multi-victim rows are never selected and stay failed+detected.
        for v in range(-1, self.data_chips):
            if v < 0:
                sel = np.flatnonzero(nbad == 0)
                era_pos = None
            else:
                sel = np.flatnonzero((nbad == 1) & (victim == v))
                era_pos = [v * self.SYMBOLS_PER_CHIP + k for k in range(self.SYMBOLS_PER_CHIP)]
            if not sel.size:
                continue
            res = self._rs.decode(codewords[sel].reshape(-1, self._rs.n), erasures=era_pos)
            ok_w = res.ok.reshape(sel.size, self.WORDS).all(axis=1)
            fixed_syms = res.corrected.reshape(sel.size, self.WORDS, self._rs.n)[:, :, :8]
            fixed_chips = self._symbols_to_chips(fixed_syms.astype(np.uint16))
            fixed = self.merge_from_chips(fixed_chips)
            recheck = np.asarray(self.compute_detection(fixed), dtype=np.uint8).reshape(
                sel.size, -1
            )
            good = ok_w & np.all(recheck == det_stored[act][sel], axis=1)
            rows = act[sel[good]]
            out[rows] = fixed[good]
            ok[rows] = True
            changed = (res.n_corrected.reshape(sel.size, self.WORDS).sum(axis=1) > 0) | np.any(
                fixed != data[act][sel], axis=1
            )
            corrected[rows] = changed[good]
        return BatchCorrectResult(data=out, ok=ok, corrected=corrected, detected=detected)
