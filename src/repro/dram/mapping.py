"""Physical-address to DRAM-coordinate mapping.

Reproduces the paper's policy: adjacent physical pages interleave across
logical channels (balancing bandwidth), while within a channel consecutive
lines of a page spread across ranks and banks (DRAMsim's
``High_Performance_Map`` spirit) so close-page accesses pipeline across
banks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class DramCoord(NamedTuple):
    """Where a line lands: channel, rank, bank, and row (grouping key)."""

    channel: int
    rank: int
    bank: int
    row: int


#: Process-wide decode memos, keyed by the mapping's defining parameters.
#: The mapping is a pure function of those parameters, so every
#: ``AddressMapping`` (and hence every ``SimSystem``) with the same
#: geometry shares one coordinate table instead of re-decoding the
#: workload footprint per config cell of an evaluation matrix.
_SHARED_TABLES: "dict[tuple, dict]" = {}


@dataclass(frozen=True)
class AddressMapping:
    """Page-interleaved channel mapping with a configurable intra-channel policy.

    ``policy="interleave"`` (default, DRAMsim's High_Performance_Map spirit)
    spreads consecutive lines of a page across ranks and banks so close-page
    accesses pipeline; ``policy="sequential"`` keeps a page's lines in one
    bank (rotating per page), serializing them behind tRC - the ablation
    case showing why the high-performance map matters.
    """

    channels: int
    ranks_per_channel: int
    banks_per_rank: int = 8
    line_size: int = 64
    page_size: int = 4096
    policy: str = "interleave"
    #: Hot-page placement (Section VI-A): line addresses at or above
    #: ``hot_arena_base_line`` are routed to ranks ``[0, hot_ranks)``;
    #: everything else uses the remaining ranks.  None disables arenas.
    hot_arena_base_line: "int | None" = None
    hot_ranks: int = 1
    #: Decode memo: the mapping is a pure function of the address and the
    #: timing plane re-maps the same LLC-footprint lines millions of times.
    #: Shared across instances with identical parameters via
    #: :data:`_SHARED_TABLES` (see ``__post_init__``).
    _coord_cache: "dict[int, DramCoord]" = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.policy not in ("interleave", "sequential"):
            raise ValueError(f"unknown mapping policy {self.policy!r}")
        if self.hot_arena_base_line is not None and not (
            0 < self.hot_ranks < self.ranks_per_channel
        ):
            raise ValueError("hot_ranks must leave at least one cold rank")
        key = self._table_key()
        cache = _SHARED_TABLES.get(key)
        if cache is None:
            cache = _SHARED_TABLES[key] = {}
        object.__setattr__(self, "_coord_cache", cache)

    def _table_key(self) -> tuple:
        return (
            self.channels,
            self.ranks_per_channel,
            self.banks_per_rank,
            self.line_size,
            self.page_size,
            self.policy,
            self.hot_arena_base_line,
            self.hot_ranks,
        )

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.line_size

    def map_line(self, line_addr: int) -> DramCoord:
        """Map a line-granularity address to its DRAM coordinates (memoized)."""
        coord = self._coord_cache.get(line_addr)
        if coord is None:
            coord = self._coord_cache[line_addr] = self._decode(line_addr)
        return coord

    def _decode(self, line_addr: int) -> DramCoord:
        page, offset = divmod(line_addr, self.lines_per_page)
        channel = page % self.channels
        page_in_chan = page // self.channels
        if self.hot_arena_base_line is not None:
            # The arena is bounded below the ECC-line regions (>= 1 << 40),
            # which stay with the cold ranks.
            hot = self.hot_arena_base_line <= line_addr < (1 << 40)
            rank_lo, rank_hi = (0, self.hot_ranks) if hot else (
                self.hot_ranks, self.ranks_per_channel
            )
        else:
            rank_lo, rank_hi = 0, self.ranks_per_channel
        n_ranks = rank_hi - rank_lo
        banks_total = n_ranks * self.banks_per_rank
        if self.policy == "interleave":
            # Rotate the bank stripe per page so bank 0 is not always hit first.
            bank_idx = (offset + page_in_chan) % banks_total
        else:  # sequential: the whole page lands in one bank
            bank_idx = page_in_chan % banks_total
        rank, bank = divmod(bank_idx, self.banks_per_rank)
        return DramCoord(channel, rank_lo + rank, bank, page_in_chan)

    def map_bytes(self, byte_addr: int) -> DramCoord:
        return self.map_line(byte_addr // self.line_size)
