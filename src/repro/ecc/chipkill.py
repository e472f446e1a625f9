"""Commercial chipkill-correct ECC schemes (36-device and 18-device).

Both stripe each memory word one 8-bit symbol per DRAM chip and protect it
with a Reed-Solomon code over GF(2^8):

* **36-device** [AMD K8 BKDG]: 32 data + 4 check symbols per word, 128B
  lines.  Two check symbols suffice for detection; the other two are the
  correction payload (the split ECC Parity exploits).
* **18-device** [AMD Family 15h BKDG]: 16 data + 2 check symbols per word,
  64B lines.  The same two symbols serve detection *and* correction, so
  correcting a chip erasure consumes the entire detection margin - the
  "slightly impacts error detection coverage" caveat in the paper.

Both schemes decode entirely through the batched RS codec: every
``ReedSolomon.decode`` / ``decode_erasures_batch`` call here hands the
codec *all* codewords of the line batch at once, so dirty words run the
compiled GF core in one call rather than a per-word Python loop, and the
per-erasure-set solve state is cached on the codec across calls.
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
from repro.gf import GF256, ReedSolomon


def _flat(checks: np.ndarray) -> np.ndarray:
    """Check symbols ``(..., words, k)`` as a ``(..., words * k)`` payload."""
    return checks.reshape(*checks.shape[:-2], -1).copy()


class _RsChipkill(ECCScheme):
    """Shared machinery for symbol-per-chip RS chipkill codes."""

    traffic = EccTraffic.INLINE
    chip_width = 4
    #: Data and check symbols form one RS codeword per word: linear over XOR.
    linear = True
    #: Check symbols per word reserved for detection (stored in ECC chips).
    detect_symbols: int = 0
    #: Check symbols per word reserved for correction.
    correct_symbols: int = 0

    def __init__(self):
        n = self.data_chips + self.detect_symbols + self.correct_symbols
        self._rs = ReedSolomon(GF256, n, self.data_chips)
        self._words = self.line_size // self.data_chips  # symbols each chip supplies

    # -- geometry / capacity ------------------------------------------------------

    @property
    def detection_bytes_per_line(self) -> int:
        return self.detect_symbols * self._words

    @property
    def correction_bytes_per_line(self) -> int:
        return self.correct_symbols * self._words

    @property
    def detection_overhead(self) -> float:
        return self.detect_symbols / self.data_chips

    @property
    def correction_overhead(self) -> float:
        return self.correct_symbols / self.data_chips

    # -- codec ---------------------------------------------------------------------

    def _check_symbols(self, data: np.ndarray) -> np.ndarray:
        """All RS check symbols for line(s): shape ``(..., words, n_check)``."""
        # Word w is symbol column w of the chip matrix: one byte per chip.
        words = np.swapaxes(self.split_to_chips(data), -1, -2)  # (..., words, data_chips)
        return self._rs.encode(words)[..., self.data_chips :]

    def compute_detection(self, data: np.ndarray) -> np.ndarray:
        return _flat(self._check_symbols(data)[..., : self.detect_symbols])

    def compute_correction(self, data: np.ndarray) -> np.ndarray:
        return _flat(self._check_symbols(data)[..., self.detect_symbols :])

    def encode_line(self, data: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One RS encode for both payloads."""
        data = np.asarray(data, dtype=np.uint8)
        checks = self._check_symbols(data)
        return (
            self.split_to_chips(data),
            _flat(checks[..., : self.detect_symbols]),
            _flat(checks[..., self.detect_symbols :]),
        )

    def _assemble(self, chips: np.ndarray, detection: np.ndarray, correction: np.ndarray) -> np.ndarray:
        """Rebuild full RS codewords from the stored pieces: ``(words, n)``."""
        det = np.asarray(detection, dtype=np.uint8).reshape(self._words, self.detect_symbols)
        parts = [np.asarray(chips, dtype=np.uint8).T, det]
        if self.correct_symbols:
            parts.append(np.asarray(correction, dtype=np.uint8).reshape(self._words, self.correct_symbols))
        return np.concatenate(parts, axis=1)

    def detect_line(self, chips: np.ndarray, detection: np.ndarray) -> DetectResult:
        data = self.merge_from_chips(chips)
        expected = self.compute_detection(data)
        mismatch = not np.array_equal(expected, np.asarray(detection, dtype=np.uint8).reshape(-1))
        return DetectResult(error=mismatch, chip=None)

    def correct_line(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> CorrectResult:
        codewords = self._assemble(chips, detection, correction)
        erasure_pos = sorted(erasures) if erasures else None
        if erasure_pos:
            # Fast path: a known-dead chip erases the same symbol of every
            # word; the vectorized erasure solver handles the whole line at
            # once, falling back to the general errors-and-erasures decoder
            # only for words with additional corruption.
            res = self._rs.decode_erasures_batch(codewords, erasure_pos)
            if not res.ok.all():
                slow = self._rs.decode(codewords, erasures=erasure_pos)
                fixed = np.where(res.ok[:, None], res.corrected, slow.corrected)
                res = type(res)(
                    corrected=fixed.astype(res.corrected.dtype),
                    ok=res.ok | slow.ok,
                    had_errors=res.had_errors | slow.had_errors,
                    n_corrected=np.where(res.ok, res.n_corrected, slow.n_corrected),
                )
        else:
            res = self._rs.decode(codewords, erasures=erasure_pos)
        detected = bool(res.had_errors.any())
        if not res.ok.all():
            return CorrectResult(data=None, corrected=False, detected=True)
        fixed_chips = res.corrected[:, : self.data_chips].T  # (data_chips, words)
        data = self.merge_from_chips(fixed_chips)
        corrected = bool(res.n_corrected.sum() > 0)
        return CorrectResult(data=data, corrected=corrected, detected=detected)

    def correct_lines(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> BatchCorrectResult:
        """Batched correction: all ``T * words`` codewords in one decode.

        Words are independent RS codewords, so flattening the line axis into
        the word axis preserves :meth:`correct_line`'s semantics exactly;
        with erasures, only the words the vectorized erasure solver rejects
        take the scalar errors-and-erasures path.
        """
        chips = np.asarray(chips, dtype=np.uint8)
        total = chips.shape[0]
        det = np.asarray(detection, dtype=np.uint8).reshape(total, self._words, self.detect_symbols)
        parts = [np.swapaxes(chips, -1, -2), det]  # (T, words, data_chips)
        if self.correct_symbols:
            parts.append(
                np.asarray(correction, dtype=np.uint8).reshape(
                    total, self._words, self.correct_symbols
                )
            )
        codewords = np.concatenate(parts, axis=2).reshape(total * self._words, self._rs.n)
        erasure_pos = sorted(erasures) if erasures else None
        if erasure_pos:
            res = self._rs.decode_erasures_batch(codewords, erasure_pos)
            ok_w, fixed_w, ncorr_w = res.ok, res.corrected, res.n_corrected
            if not ok_w.all():
                retry = np.flatnonzero(~ok_w)
                slow = self._rs.decode(codewords[retry], erasures=erasure_pos)
                fixed_w[retry] = slow.corrected
                ok_w = ok_w.copy()
                ok_w[retry] = slow.ok
                ncorr_w = ncorr_w.copy()
                ncorr_w[retry] = np.where(slow.ok, slow.n_corrected, ncorr_w[retry])
            had_w = np.ones_like(ok_w)  # declared erasures: every word suspected
        else:
            res = self._rs.decode(codewords)
            ok_w, fixed_w, ncorr_w, had_w = res.ok, res.corrected, res.n_corrected, res.had_errors

        ok = ok_w.reshape(total, self._words).all(axis=1)
        detected = had_w.reshape(total, self._words).any(axis=1) | ~ok
        corrected = ok & (ncorr_w.reshape(total, self._words).sum(axis=1) > 0)
        data = np.zeros((total, self.line_size), dtype=np.uint8)
        fixed_chips = np.swapaxes(
            fixed_w.reshape(total, self._words, self._rs.n)[ok, :, : self.data_chips], -1, -2
        )
        data[ok] = self.merge_from_chips(fixed_chips.astype(np.uint8))
        return BatchCorrectResult(data=data, ok=ok, corrected=corrected, detected=detected)


class Chipkill36(_RsChipkill):
    """36-device commercial chipkill correct: 36 X4 chips, 128B lines.

    Four check symbols per 32-symbol word (RS(36,32), d=5): corrects any
    single-chip failure as an erasure with detection margin to spare, or any
    two chip erasures.
    """

    name = "36-device commercial chipkill"
    line_size = 128
    chips_per_rank = 36
    data_chips = 32
    detect_symbols = 2
    correct_symbols = 2


class Chipkill18(_RsChipkill):
    """18-device commercial chipkill correct: 18 X4 chips, 64B lines.

    Two check symbols per 16-symbol word (RS(18,16), d=3): corrects a
    located chip failure (erasure) but with no remaining detection margin;
    the stored symbols are simultaneously the detection and correction bits,
    so ``correction_overhead`` is zero for capacity-accounting purposes.
    """

    name = "18-device commercial chipkill"
    line_size = 64
    chips_per_rank = 18
    data_chips = 16
    detect_symbols = 2
    correct_symbols = 0

    @property
    def correction_overhead(self) -> float:
        return 0.0  # the two check symbols are already counted as detection
