"""Common interface for memory ECC schemes.

Every scheme plays two roles:

* **Functional codec** - bit-true ``encode_line`` / ``detect_line`` /
  ``correct_line`` over NumPy byte arrays, used by the fault-injection
  machinery to measure real correction coverage.  A line is represented by
  the per-data-chip payload matrix plus separately stored detection and
  correction payloads, mirroring how the bits live in DRAM.

* **Geometry / cost descriptor** - chips per rank, line size, capacity
  overhead split (detection vs correction), and the write-traffic behaviour
  of its ECC-related lines.  The timing/energy plane consumes only this
  descriptor.

The split between *detection* and *correction* payloads is the load-bearing
abstraction: ECC Parity (``repro.core``) stores detection bits per channel as
usual but replaces stored correction payloads with their cross-channel XOR.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

import numpy as np


class EccTraffic(enum.Enum):
    """How a scheme's ECC bits generate extra memory traffic on writes.

    ``INLINE``    - ECC bits travel with the data burst (dedicated ECC chips);
                    no extra requests ever.
    ``ECC_LINE``  - correction bits live in separate ECC lines that must be
                    read-modified-written (cacheable in the LLC); an eviction
                    costs one memory write.
    ``XOR_LINE``  - correction state is maintained with the XOR-cacheline
                    technique [Multi-ECC / ECC Parity]; an eviction costs one
                    memory read plus one write.
    """

    INLINE = "inline"
    ECC_LINE = "ecc_line"
    XOR_LINE = "xor_line"


@dataclass(frozen=True)
class DetectResult:
    """Outcome of error detection on one line.

    ``error`` is True when any corruption was detected; ``chip`` localizes
    the faulty data chip when the scheme can do so (LOT-ECC checksums can,
    symbol codes report it only after correction), else ``None``.
    """

    error: bool
    chip: "int | None" = None


@dataclass
class CorrectResult:
    """Outcome of error correction on one line."""

    data: "np.ndarray | None"  #: recovered line payload, or None if uncorrectable
    corrected: bool  #: True when errors were present and fully repaired
    detected: bool  #: True when errors were present at all


@dataclass
class BatchCorrectResult:
    """Outcome of error correction on a batch of lines (see
    :meth:`ECCScheme.correct_lines`)."""

    data: np.ndarray  #: (T, line_size) recovered payloads; zeros where not ``ok``
    ok: np.ndarray  #: (T,) bool - row recovered (clean or corrected)
    corrected: np.ndarray  #: (T,) bool - errors were present and fully repaired
    detected: np.ndarray  #: (T,) bool - errors were present at all


class ECCScheme(abc.ABC):
    """Abstract memory ECC scheme (geometry + bit-true codec)."""

    #: Human-readable scheme name, matching the paper's terminology.
    name: str = "abstract"
    #: Data payload bytes delivered per memory access (64 or 128).
    line_size: int = 64
    #: Total DRAM chips activated per access (data + ECC chips).
    chips_per_rank: int = 0
    #: Number of chips holding data (the rest hold ECC bits).
    data_chips: int = 0
    #: DRAM chip data-bus width in bits (4, 8, or 16).  Mixed-width ranks
    #: override :meth:`chip_widths`.
    chip_width: int = 4
    #: How ECC updates hit memory on writes.
    traffic = EccTraffic.INLINE
    #: Data lines covered by one ECC/XOR cacheline (when traffic is not INLINE).
    ecc_line_coverage: int = 0
    #: True when the stored line (data, detection and correction payloads)
    #: is a linear code over XOR: the decoder's verdict on a corrupted line
    #: then depends only on the error pattern, not on the payload, so
    #: :meth:`correct_errors` decodes the error alone.  The one's-complement
    #: checksums of LOT-ECC and Multi-ECC are not linear.
    linear: bool = False

    # -- capacity ---------------------------------------------------------------

    @property
    @abc.abstractmethod
    def detection_overhead(self) -> float:
        """Capacity overhead fraction attributable to detection bits."""

    @property
    @abc.abstractmethod
    def correction_overhead(self) -> float:
        """Capacity overhead fraction attributable to correction bits."""

    @property
    def capacity_overhead(self) -> float:
        """Total ECC capacity overhead as a fraction of data capacity."""
        return self.detection_overhead + self.correction_overhead

    @property
    def correction_ratio(self) -> float:
        """``R``: stored correction-bit bytes per data byte (paper §III-E).

        This is what the ECC Parity capacity formula divides by ``N - 1``.
        """
        return self.correction_bytes_per_line / self.line_size

    @property
    @abc.abstractmethod
    def correction_bytes_per_line(self) -> int:
        """Bytes of correction payload computed per data line."""

    @property
    @abc.abstractmethod
    def detection_bytes_per_line(self) -> int:
        """Bytes of detection payload stored per data line."""

    def chip_widths(self) -> "list[int]":
        """Per-chip I/O widths for one rank (overridden by mixed ranks)."""
        return [self.chip_width] * self.chips_per_rank

    # -- functional codec ---------------------------------------------------------

    @property
    def chip_bytes(self) -> int:
        """Data bytes each data chip contributes to one line."""
        return self.line_size // self.data_chips

    def split_to_chips(self, data: np.ndarray) -> np.ndarray:
        """Reshape line payload(s) into the per-chip matrix.

        Layout is symbol-interleaved: consecutive bytes of the line rotate
        across chips, matching how a burst interleaves chip outputs.  Shape
        ``(..., line_size)`` -> ``(..., data_chips, chip_bytes)``.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] != self.line_size:
            raise ValueError(f"{self.name}: expected {self.line_size}B line, got {data.shape[-1]}")
        lead = data.shape[:-1]
        return np.swapaxes(data.reshape(*lead, self.chip_bytes, self.data_chips), -1, -2)

    def merge_from_chips(self, chips: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`split_to_chips` (batch-aware)."""
        chips = np.asarray(chips, dtype=np.uint8)
        lead = chips.shape[:-2]
        return np.swapaxes(chips, -1, -2).reshape(*lead, self.line_size)

    @abc.abstractmethod
    def compute_detection(self, data: np.ndarray) -> np.ndarray:
        """Detection payload for line(s): ``(..., line_size)`` ->
        ``(..., detection_bytes_per_line)`` uint8."""

    @abc.abstractmethod
    def compute_correction(self, data: np.ndarray) -> np.ndarray:
        """Correction payload for line(s): ``(..., line_size)`` ->
        ``(..., correction_bytes_per_line)`` uint8."""

    def encode_line(self, data: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Encode a line: returns ``(chip_matrix, detection, correction)``."""
        data = np.asarray(data, dtype=np.uint8)
        return self.split_to_chips(data), self.compute_detection(data), self.compute_correction(data)

    @abc.abstractmethod
    def detect_line(self, chips: np.ndarray, detection: np.ndarray) -> DetectResult:
        """Check a (possibly corrupted) stored line against its detection bits."""

    @abc.abstractmethod
    def correct_line(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> CorrectResult:
        """Detect and correct a stored line using its correction payload.

        *erasures* optionally names data-chip indices already known faulty
        (e.g. from the bank health table); schemes use them as symbol
        erasures, which doubles correction power versus unlocated errors.
        """

    def correct_lines(
        self,
        chips: np.ndarray,
        detection: np.ndarray,
        correction: np.ndarray,
        erasures: "set[int] | None" = None,
    ) -> BatchCorrectResult:
        """Batched :meth:`correct_line` over ``T`` independent lines.

        ``chips`` is ``(T, data_chips, chip_bytes)``, ``detection``
        ``(T, detection_bytes)``, ``correction`` ``(T, correction_bytes)``;
        *erasures* (one set, applied to every line) matches the common
        callers - a bank-sized batch shares its health-table erasures.  The
        base implementation loops :meth:`correct_line`; schemes override it
        with array programs that feed whole codeword batches to the RS
        codec's compiled decode core, and ``tests/test_correct_lines.py``
        holds the two paths equal.  (The per-line loop doubles as the
        reference oracle, mirroring the scalar ``_decode_word`` retained
        inside the codec itself.)
        """
        chips = np.asarray(chips, dtype=np.uint8)
        total = chips.shape[0]
        data = np.zeros((total, self.line_size), dtype=np.uint8)
        ok = np.zeros(total, dtype=bool)
        corrected = np.zeros(total, dtype=bool)
        detected = np.zeros(total, dtype=bool)
        for i in range(total):
            res = self.correct_line(chips[i], detection[i], correction[i], erasures=erasures)
            if res.data is not None:
                data[i] = res.data
                ok[i] = True
            corrected[i] = res.corrected
            detected[i] = res.detected
        return BatchCorrectResult(data=data, ok=ok, corrected=corrected, detected=detected)

    def correct_errors(
        self, data: np.ndarray, error: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Store lines *data*, XOR *error* into their chip matrices, correct.

        *data* is ``(T, line_size)`` and *error* ``(T, data_chips,
        chip_bytes)``.  Returns per-line ``(ok, right)``: ``ok`` where the
        scheme claimed recovery, ``right`` where it also gave the stored line
        back.  Only lines with a nonzero error reach :meth:`correct_lines`;
        a clean line is ok and right under every scheme.  A :attr:`linear`
        scheme stores the zero line (zero detection and correction payloads,
        nothing to encode) and reads the verdict off the decoded error;
        every other scheme encodes *data*.
        """
        total = error.shape[0]
        ok = np.ones(total, dtype=bool)
        right = np.ones(total, dtype=bool)
        dirty = np.flatnonzero(error.reshape(total, -1).any(axis=1))
        if not dirty.size:
            return ok, right
        err = error[dirty]
        if self.linear:
            base = np.zeros((dirty.size, self.line_size), dtype=np.uint8)
            chips = err
            det = np.zeros((dirty.size, self.detection_bytes_per_line), dtype=np.uint8)
            cor = np.zeros((dirty.size, self.correction_bytes_per_line), dtype=np.uint8)
        else:
            base = data[dirty]
            chips, det, cor = self.encode_line(base)
            chips = chips ^ err
        res = self.correct_lines(chips, det, cor)
        ok[dirty] = res.ok
        right[dirty] = res.ok & np.all(res.data == base, axis=1)
        return ok, right

    # -- convenience --------------------------------------------------------------

    def roundtrip_ok(self, data: np.ndarray) -> bool:
        """Encode then correct an undamaged line; sanity helper for tests."""
        chips, det, cor = self.encode_line(data)
        res = self.correct_line(chips, det, cor)
        return res.data is not None and np.array_equal(res.data, np.asarray(data, dtype=np.uint8))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, line={self.line_size}B, "
            f"chips={self.chips_per_rank}, overhead={self.capacity_overhead:.1%})"
        )
