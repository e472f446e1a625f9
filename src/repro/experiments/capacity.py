"""Capacity-overhead arithmetic (Figure 1 and Table III).

Figure 1 splits each ECC's capacity overhead into detection and correction
bits; Table III adds the ECC-Parity variants with their static formula
(Section III-E) and end-of-life averages from the lifetime Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheme import ECCParityScheme
from repro.ecc.chipkill import Chipkill18, Chipkill36
from repro.ecc.lot_ecc import LotEcc5, LotEcc9
from repro.ecc.multi_ecc import MultiEcc
from repro.ecc.raim import Raim18EP, Raim45
from repro.faults.fit_rates import MemoryOrg
from repro.faults.montecarlo import EolCapacitySim
from repro.faults.rareevent import run_plain


@dataclass(frozen=True)
class CapacityRow:
    """One row of Figure 1 / Table III."""

    label: str
    detection: float
    correction: float
    eol_average: "float | None" = None  #: None for schemes without time growth

    @property
    def total(self) -> float:
        return self.detection + self.correction


def figure1_breakdown() -> "list[CapacityRow]":
    """Figure 1: detection/correction split of the baseline ECCs."""
    rows = []
    for scheme in (Chipkill36(), Raim45(), LotEcc9(), LotEcc5()):
        label = {
            "36-device commercial chipkill": "Commercial chipkill correct",
            "RAIM": "Commercial DIMM-kill correct (RAIM)",
            "LOT-ECC9": "LOT-ECC I (9 chips/rank)",
            "LOT-ECC5": "LOT-ECC II (5 chips/rank)",
        }[scheme.name]
        rows.append(CapacityRow(label, scheme.detection_overhead, scheme.correction_overhead))
    return rows


def _eol_fraction(channels: int, trials: int, seed: int) -> float:
    sim = EolCapacitySim(MemoryOrg(channels=channels), seed=seed)
    return run_plain(sim, trials).mean


def table3(trials: int = 5000, seed: int = 0) -> "list[CapacityRow]":
    """Table III: total capacity overheads including EOL averages."""
    rows = [
        CapacityRow("36-device commercial chipkill correct",
                    Chipkill36().detection_overhead, Chipkill36().correction_overhead),
        CapacityRow("18-device commercial chipkill correct",
                    Chipkill18().detection_overhead, Chipkill18().correction_overhead),
        CapacityRow("LOT-ECC9", LotEcc9().detection_overhead, LotEcc9().correction_overhead),
        CapacityRow("Multi-ECC", MultiEcc().detection_overhead, MultiEcc().correction_overhead),
        CapacityRow("LOT-ECC5", LotEcc5().detection_overhead, LotEcc5().correction_overhead),
    ]
    for channels, base, label in (
        (8, LotEcc5(), "8 chan LOT-ECC5 + ECC Parity"),
        (4, LotEcc5(), "4 chan LOT-ECC5 + ECC Parity"),
    ):
        ep = ECCParityScheme(base, channels)
        frac = _eol_fraction(channels, trials, seed)
        rows.append(
            CapacityRow(label, ep.detection_overhead, ep.parity_overhead,
                        eol_average=ep.eol_capacity_overhead(frac))
        )
    rows.append(CapacityRow("RAIM", Raim45().detection_overhead, Raim45().correction_overhead))
    for channels, label in ((10, "10 chan RAIM + ECC Parity"), (5, "5 chan RAIM + ECC Parity")):
        ep = ECCParityScheme(Raim18EP(), channels)
        frac = _eol_fraction(channels, trials, seed)
        rows.append(
            CapacityRow(label, ep.detection_overhead, ep.parity_overhead,
                        eol_average=ep.eol_capacity_overhead(frac))
        )
    return rows


def raid5_data_overhead(channels: int, detection: float = 0.125) -> float:
    """Capacity overhead of naive RAID5 over *data* lines (Section VII).

    The related-work strawman: striping a parity of the data lines across
    channels costs ``1/(N-1)`` of data capacity (50% for a quad-channel
    system, as the paper notes) plus the usual detection chips - the
    comparison that motivates taking the parity of *correction bits*
    instead.
    """
    if channels < 2:
        raise ValueError("RAID5 needs at least two channels")
    return detection + (1 + detection) / (channels - 1)


#: The paper's Table III values, for verification in tests/EXPERIMENTS.md.
PAPER_TABLE3 = {
    "36-device commercial chipkill correct": 0.125,
    "18-device commercial chipkill correct": 0.125,
    "LOT-ECC9": 0.265,
    "Multi-ECC": 0.129,
    "LOT-ECC5": 0.406,
    "8 chan LOT-ECC5 + ECC Parity": 0.165,
    "4 chan LOT-ECC5 + ECC Parity": 0.219,
    "RAIM": 0.406,
    "10 chan RAIM + ECC Parity": 0.188,
    "5 chan RAIM + ECC Parity": 0.266,
}
