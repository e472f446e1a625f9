#!/usr/bin/env python
"""Capacity planner: how ECC Parity's overhead scales with channel count.

For each candidate underlying ECC, prints the static capacity overhead of
ECC Parity as the number of channels sharing parities grows (the paper's
Section III-E formula), the end-of-life average from the lifetime Monte
Carlo, and the break-even against the commercial 12.5% chipkill overhead.

Run:  python examples/capacity_planner.py
"""

from repro.core import ECCParityScheme
from repro.ecc import Chipkill36, LotEcc5, LotEcc9, Raim18EP
from repro.experiments import format_table
from repro.faults import EolCapacitySim, MemoryOrg
from repro.faults.rareevent import run_plain

CHANNELS = [2, 3, 4, 6, 8, 12, 16]


def main() -> None:
    for base in (LotEcc5(), LotEcc9(), Raim18EP(), Chipkill36()):
        rows = []
        for n in CHANNELS:
            ep = ECCParityScheme(base, n)
            frac = run_plain(EolCapacitySim(MemoryOrg(channels=n), seed=n), 4000).mean
            rows.append(
                [
                    n,
                    f"{ep.parity_overhead:.2%}",
                    f"{ep.capacity_overhead:.2%}",
                    f"{ep.eol_capacity_overhead(frac):.2%}",
                    f"{base.capacity_overhead:.1%}",
                ]
            )
        print(
            format_table(
                ["channels", "parity lines", "static total", "EOL avg", "standalone"],
                rows,
                title=f"\nECC Parity over {base.name} (R = {base.correction_ratio})",
            )
        )
        # Where does it dip below commercial chipkill's 12.5% + detection?
        for n in CHANNELS:
            if ECCParityScheme(base, n).parity_overhead < 0.045:
                print(f"  -> parity overhead < 4.5% from {n} channels up")
                break


if __name__ == "__main__":
    main()
