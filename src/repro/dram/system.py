"""Multi-channel DDR3 memory system: channels + mapping + power integration.

This is the timing/energy substrate standing in for DRAMsim: the LLC model
pushes line requests in, completion times come back through the simulation
event loop, and per-rank command/residency counters are integrated into an
:class:`~repro.dram.power.EnergyBreakdown` at the end of a run.

.. warning:: Enqueue/decode behaviour here (address mapping dispatch,
   64-byte access accounting, finalize-time residency flush) has a second
   implementation in the compiled epoch kernel ``repro.cpu.epochnative``,
   under the bit-identity contract enforced by
   ``tests/test_epoch_kernel.py``; changes must land in both together.
   After a compiled-core run only ``accesses_64b``, the channels' issue
   counters and the ranks' energy counters, ``busy_until`` and
   ``accounted_to`` (finalized through the last cycle) are current; the
   channel queues and bank timing stay in the core until
   ``epochnative.readback`` is called (``_native`` is set until then).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.channel import Channel, MemRequest
from repro.dram.mapping import AddressMapping
from repro.dram.power import EnergyBreakdown, RankEnergyCounters, RankPowerModel
from repro.dram.timing import DDR3Timing


@dataclass
class MemorySystemConfig:
    """Geometry and device parameters of one memory system."""

    channels: int
    ranks_per_channel: int
    chip_widths: "list[int]"  #: per-chip widths of one rank (mixed chips allowed)
    line_size: int = 64
    banks_per_rank: int = 8
    timing: DDR3Timing = field(default_factory=DDR3Timing)
    mapping_policy: str = "interleave"
    #: Section VI-A heterogeneous channels: one chip-width list per rank
    #: (length ``ranks_per_channel``), overriding ``chip_widths``; energy is
    #: then integrated with a per-rank power model.
    rank_chip_widths: "list[list[int]] | None" = None
    #: Hot-page arena routing (see AddressMapping).
    hot_arena_base_line: "int | None" = None
    hot_ranks: int = 1


class MemorySystem:
    """The paper's memory substrate: N logical channels of DDR3 ranks."""

    def __init__(self, config: MemorySystemConfig):
        self.config = config
        self.timing = config.timing
        self.channels = [
            Channel(config.ranks_per_channel, config.banks_per_rank, config.timing)
            for _ in range(config.channels)
        ]
        self.mapping = AddressMapping(
            channels=config.channels,
            ranks_per_channel=config.ranks_per_channel,
            line_size=config.line_size,
            policy=config.mapping_policy,
            hot_arena_base_line=config.hot_arena_base_line,
            hot_ranks=config.hot_ranks,
        )
        if config.rank_chip_widths is not None:
            if len(config.rank_chip_widths) != config.ranks_per_channel:
                raise ValueError("rank_chip_widths must list one entry per rank")
            self._power_models = [
                RankPowerModel(w, config.timing, config.line_size)
                for w in config.rank_chip_widths
            ]
        else:
            self._power_models = [
                RankPowerModel(config.chip_widths, config.timing, config.line_size)
            ] * config.ranks_per_channel
        #: 64B-granularity access counter (Fig. 16's metric: a 128B line
        #: transfer counts as two accesses).
        self.accesses_64b = 0
        self._units_64b = max(1, config.line_size // 64)
        #: Set by a run of the compiled core until its full channel and
        #: rank state is read back (``repro.cpu.epochnative.readback``).
        self._native = None

    # -- request interface ------------------------------------------------------------------

    def enqueue(
        self, line_addr: int, is_write: bool, now: int, tag: object, demand: bool = False
    ) -> int:
        """Queue a line request; returns the channel index it landed on."""
        coord = self.mapping.map_line(line_addr)
        ch = coord[0]
        self.channels[ch].enqueue(
            MemRequest(
                rank=coord[1],
                bank=coord[2],
                row=coord[3],
                is_write=is_write,
                arrive=now,
                tag=tag,
                demand=demand,
            )
        )
        self.accesses_64b += self._units_64b
        return ch

    def advance_channel(self, index: int, now: int) -> "tuple[list[MemRequest], int | None]":
        """Let channel *index* issue work at *now*; see :meth:`Channel.advance`."""
        return self.channels[index].advance(now)

    def pending(self) -> int:
        return sum(ch.pending for ch in self.channels)

    # -- energy -------------------------------------------------------------------------------

    def finalize(self, end_cycle: int) -> None:
        """Account residency through *end_cycle* (idempotent, resumable)."""
        for ch in self.channels:
            ch.finalize(end_cycle)

    def snapshot_counters(self, now: int) -> "list[list[RankEnergyCounters]]":
        """Deep copy of all rank counters as of *now* (for warm-up subtraction)."""
        import copy

        self.finalize(now)
        return [copy.deepcopy(ch.energy_counters()) for ch in self.channels]

    def energy_since(
        self, baseline: "list[list[RankEnergyCounters]] | None" = None
    ) -> EnergyBreakdown:
        """Integrate energy, optionally net of a warm-up *baseline* snapshot."""
        total = EnergyBreakdown()
        for ci, ch in enumerate(self.channels):
            for ri, counters in enumerate(ch.energy_counters()):
                if baseline is not None:
                    b = baseline[ci][ri]
                    counters = RankEnergyCounters(
                        activates=counters.activates - b.activates,
                        read_bursts=counters.read_bursts - b.read_bursts,
                        write_bursts=counters.write_bursts - b.write_bursts,
                        cycles_active=counters.cycles_active - b.cycles_active,
                        cycles_precharge_standby=counters.cycles_precharge_standby
                        - b.cycles_precharge_standby,
                        cycles_powerdown=counters.cycles_powerdown - b.cycles_powerdown,
                    )
                total = total + self._power_models[ri].integrate(counters)
        return total
