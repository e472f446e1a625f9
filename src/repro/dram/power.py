"""DRAM energy integration following Micron TN-41-01.

The model charges, per rank:

* **activate energy** per ACT-PRE pair, from IDD0 net of the background
  current that would flow anyway during tRC;
* **burst energy** per read/write, from IDD4R/IDD4W net of active standby,
  for the burst duration, plus a per-bit I/O+termination term;
* **refresh energy**, amortized as (IDD5B - IDD3N) for tRFC every tREFI;
* **background energy** from the state-residency histogram the channel
  model records: active standby, precharge standby, and precharge
  power-down (the "sleep mode" the paper's close-page policy enables).

All energies are in nanojoules; the per-access dynamic terms scale with the
number and width of chips in the rank, which is the first-order effect
behind Figures 10-13.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.chip import ChipPower, chip_power_for_width
from repro.dram.timing import DDR3Timing


@dataclass
class RankEnergyCounters:
    """Raw event/residency tallies for one rank (filled by the channel model)."""

    activates: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    cycles_active: float = 0.0  #: cycles with >=1 bank open (standby, CKE high)
    cycles_precharge_standby: float = 0.0  #: all banks closed, CKE high
    cycles_powerdown: float = 0.0  #: all banks closed, CKE low


@dataclass
class EnergyBreakdown:
    """Energy in nJ, split the way Figures 12 and 13 report it."""

    activate: float = 0.0
    read: float = 0.0
    write: float = 0.0
    refresh: float = 0.0
    background: float = 0.0

    @property
    def dynamic(self) -> float:
        """Energy of read, write, and activate commands (paper's definition)."""
        return self.activate + self.read + self.write

    @property
    def total(self) -> float:
        return self.dynamic + self.refresh + self.background

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.activate + other.activate,
            self.read + other.read,
            self.write + other.write,
            self.refresh + other.refresh,
            self.background + other.background,
        )


#: Per-chip integration coefficients by (chip widths, timing), shared by
#: every model of that rank shape: a sweep builds a memory system per
#: cell, and the coefficients are pure functions of the key.
_COEFFS: "dict[tuple, tuple]" = {}


@dataclass
class RankPowerModel:
    """Energy integration for one rank of (possibly mixed-width) chips."""

    chip_widths: "list[int]"
    timing: DDR3Timing = field(default_factory=DDR3Timing)
    line_bytes: int = 64

    def __post_init__(self):
        self._chips = [chip_power_for_width(w) for w in self.chip_widths]
        key = (tuple(self.chip_widths), self.timing)
        coeffs = _COEFFS.get(key)
        if coeffs is None:
            coeffs = _COEFFS[key] = self._coefficients()
        self._coeffs = coeffs

    def _coefficients(self) -> "tuple[tuple, ...]":
        """Per chip: (ACT energy, read-burst energy, write-burst energy,
        refresh power, IDD3N, IDD2N, IDD2P, VDD), from the primitives below."""
        return tuple(
            (
                self._act_energy_chip(p),
                self._burst_energy_chip(p, write=False),
                self._burst_energy_chip(p, write=True),
                self._refresh_power_chip(p),
                p.idd3n,
                p.idd2n,
                p.idd2p,
                p.vdd,
            )
            for p in self._chips
        )

    # -- per-chip primitives (nJ) ---------------------------------------------------------

    def _act_energy_chip(self, p: ChipPower) -> float:
        """ACT+PRE pair energy, net of background, per TN-41-01."""
        t = self.timing
        # IDD0 is measured cycling ACT-PRE at tRC with the bank active tRAS
        # then precharged; subtract the standby current of the same pattern.
        background_ma = (p.idd3n * t.tras + p.idd2n * (t.trc - t.tras)) / t.trc
        return (p.idd0 - background_ma) * p.vdd * t.trc * t.tck_ns * 1e-3  # mA*V*ns -> nJ

    def _burst_energy_chip(self, p: ChipPower, write: bool) -> float:
        t = self.timing
        idd = p.idd4w if write else p.idd4r
        core = (idd - p.idd3n) * p.vdd * t.tburst * t.tck_ns * 1e-3
        bits = p.width * 2 * t.tburst  # DDR: two beats per cycle
        io = p.io_pj_per_bit * bits * 1e-3  # pJ -> nJ
        return core + io

    def _refresh_power_chip(self, p: ChipPower) -> float:
        """Average refresh power in mW (added on top of background)."""
        t = self.timing
        return (p.idd5b - p.idd3n) * p.vdd * (t.trfc / t.trefi)

    # -- rank-level integration -------------------------------------------------------------

    def integrate(self, counters: RankEnergyCounters) -> EnergyBreakdown:
        """Total rank energy for the recorded events and residencies.

        Sums chip by chip, in chip order, with each term's expression as
        written over the primitives, so results are bit-stable.
        """
        ns = self.timing.tck_ns
        acts = counters.activates
        reads = counters.read_bursts
        writes = counters.write_bursts
        active = counters.cycles_active
        standby = counters.cycles_precharge_standby
        powerdown = counters.cycles_powerdown
        total_cycles = active + standby + powerdown
        activate = read = write = refresh = background = 0.0
        for act, rd, wr, ref, idd3n, idd2n, idd2p, vdd in self._coeffs:
            activate += acts * act
            read += reads * rd
            write += writes * wr
            refresh += ref * total_cycles * ns * 1e-3  # mW*ns -> nJ
            background += (idd3n * active + idd2n * standby + idd2p * powerdown) * vdd * ns * 1e-3
        return EnergyBreakdown(activate, read, write, refresh, background)
