"""Placement of ECC parities and materialized ECC correction bits.

Implements the layouts of Figures 4 and 5:

* **Parity layout** (healthy memory).  Data rows of each bank are grouped
  into *blocks* of ``N - 1`` consecutive rows.  Within a block, every
  (channel, relative-row) cell is assigned to exactly one of ``N`` parity
  groups by a Latin-square rule; group ``i`` contains one row from every
  channel except channel ``i`` and stores its parity *in* channel ``i``.
  Any single-channel fault therefore touches at most one element of any
  group (member or parity), which is precisely the fault model ECC parity
  must cover; and each channel stores ``R`` rows of parity per block, i.e.
  the paper's ``R/(N-1)`` overhead, with each full parity row protecting
  ``(N-1)/R`` rows of data.

* **Materialized-ECC layout** (after a bank pair is marked faulty).  Banks
  are paired ``(2k, 2k+1)`` within a channel; each bank of a faulty pair
  stores the actual correction bits for the *other* bank's data, sized at
  twice the parity budget (``2R`` per data line) so the correction bits
  carry their own ECC protection (Section III-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Geometry:
    """Shape of the multi-channel memory the ECC Parity layer manages.

    ``rows_per_bank`` counts *data* rows; the parity region is reserved on
    top of them.  A row models a 4KB DRAM row / OS page holding
    ``lines_per_row`` cache lines.
    """

    channels: int
    banks: int
    rows_per_bank: int
    lines_per_row: int

    def __post_init__(self):
        if self.channels < 2:
            raise ValueError("ECC parity requires at least 2 channels")
        if self.banks % 2:
            raise ValueError("banks are managed in pairs; need an even count")

    @property
    def lines_per_bank(self) -> int:
        return self.rows_per_bank * self.lines_per_row

    @property
    def total_data_lines(self) -> int:
        return self.channels * self.banks * self.lines_per_bank

    @property
    def bank_pairs(self) -> int:
        return self.channels * self.banks // 2


@dataclass(frozen=True)
class ParityLocation:
    """Where the ECC parity of a data line lives and who shares it.

    ``members`` lists the (channel, row) of every group member (all distinct
    channels, excluding ``parity_channel``).  The parity payload for each
    line index ``l`` of the member rows is stored contiguously in the
    parity region of (``parity_channel``, same bank), at *slot*
    ``group_slot`` - an abstract index the machine maps to bytes.
    """

    parity_channel: int
    bank: int
    group_slot: int
    members: "tuple[tuple[int, int], ...]"  # ((channel, row), ...)


class ParityLayout:
    """Latin-square block layout for ECC parities (Figure 4)."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        n = geometry.channels
        if geometry.rows_per_bank % (n - 1):
            raise ValueError(
                f"rows_per_bank ({geometry.rows_per_bank}) must be a multiple of "
                f"channels-1 ({n - 1}) for a whole number of parity blocks"
            )
        self.blocks_per_bank = geometry.rows_per_bank // (n - 1)

    # -- forward mapping -----------------------------------------------------------

    def group_of(self, channel: int, row: int) -> "tuple[int, int]":
        """Parity (channel, block-local group id) covering (*channel*, *row*).

        Cell (c, rel) of a block belongs to group ``(c - rel - 1) mod N``,
        which is never ``c`` because ``rel <= N-2``.
        """
        n = self.geometry.channels
        block, rel = divmod(row, n - 1)
        parity_channel = (channel - rel - 1) % n
        return parity_channel, block

    def location_of(self, channel: int, bank: int, row: int) -> ParityLocation:
        """Full parity-group description for a data row."""
        n = self.geometry.channels
        parity_channel, block = self.group_of(channel, row)
        members = tuple(
            (c, block * (n - 1) + ((c - parity_channel - 1) % n))
            for c in range(n)
            if c != parity_channel
        )
        # Sanity: the Latin-square rule must place (channel, row) in the group.
        assert (channel, row) in members
        return ParityLocation(
            parity_channel=parity_channel,
            bank=bank,
            group_slot=block,
            members=members,
        )

    def member_grid(
        self, channels: np.ndarray, rows: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`location_of`'s members for a batch of data rows, as arrays.

        Returns ``(member_channels, member_rows)``, each ``(D, N-1)``: member
        ``j`` of a group with parity channel ``p`` in block ``b`` is row
        ``b*(N-1) + j`` of channel ``(p + 1 + j) mod N``.
        """
        n = self.geometry.channels
        block, rel = np.divmod(np.asarray(rows), n - 1)
        parity_channel = (np.asarray(channels) - rel - 1) % n
        j = np.arange(n - 1)
        return (parity_channel[:, None] + 1 + j) % n, block[:, None] * (n - 1) + j

    def members_of_group(self, parity_channel: int, block: int) -> "tuple[tuple[int, int], ...]":
        """The (channel, row) members whose parity lives at (parity_channel, block)."""
        n = self.geometry.channels
        return tuple(
            (c, block * (n - 1) + ((c - parity_channel - 1) % n))
            for c in range(n)
            if c != parity_channel
        )

    # -- capacity ---------------------------------------------------------------------

    def parity_rows_per_bank(self, correction_ratio: float) -> int:
        """Reserved parity rows per (channel, bank): ``ceil(blocks * R)``."""
        return math.ceil(self.blocks_per_bank * correction_ratio)

    def data_rows_per_parity_row(self, correction_ratio: float) -> float:
        """The paper's ``(N-1)/R`` rows of data protected per parity row."""
        return (self.geometry.channels - 1) / correction_ratio


class MaterializedLayout:
    """Cross-bank placement of actual correction bits (Figure 5).

    Bank ``2k`` stores the ECC lines for bank ``2k+1`` and vice versa, so a
    data request and its ECC-line request can overlap across banks.
    """

    @staticmethod
    def pair_of(bank: int) -> int:
        """The bank pair index a bank belongs to."""
        return bank // 2

    @staticmethod
    def partner(bank: int) -> int:
        """The other bank of *bank*'s pair - where its ECC lines live."""
        return bank ^ 1

    @staticmethod
    def ecc_rows_needed(rows_per_bank: int, correction_ratio: float) -> int:
        """Rows of a bank consumed by its partner's materialized ECC bits.

        Twice the parity budget: the correction bits themselves need ECC
        protection, and the paper simply doubles the allocation (§III-B).
        """
        return math.ceil(rows_per_bank * 2 * correction_ratio)
