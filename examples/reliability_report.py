#!/usr/bin/env python
"""One-stop reliability report for a candidate ECC-Parity deployment.

Given a channel count and FIT assumption, prints everything an architect
would ask before shipping: capacity overheads (static and end-of-life),
mean time between channel faults, the scrub-window risk curve, expected
materialized-memory fraction, and the Section VI system-level estimates.

Run:  python examples/reliability_report.py [channels] [fit_per_chip]
"""

import sys

from repro.core import ECCParityScheme
from repro.ecc import LotEcc5
from repro.experiments import format_table
from repro.faults import (
    EolCapacitySim,
    MemoryOrg,
    added_uncorrectable_interval_years,
    hpc_stall_fraction,
    mean_time_between_channel_faults_days,
    multi_channel_window_probability,
    undetectable_error_interval_years,
)
from repro.faults.rareevent import run_plain


def main(channels: int = 8, fit: float = 44.0) -> None:
    org = MemoryOrg(channels=channels)
    base = LotEcc5()
    ep = ECCParityScheme(base, channels)
    eol = run_plain(EolCapacitySim(org, seed=0), 10000)

    print(f"=== ECC Parity deployment report: {base.name}, N={channels}, {fit:g} FIT/chip ===\n")
    print(format_table(
        ["metric", "value"],
        [
            ["detection overhead", f"{ep.detection_overhead:.2%}"],
            ["parity-line overhead", f"{ep.parity_overhead:.2%}"],
            ["static total", f"{ep.capacity_overhead:.2%}"],
            ["EOL average (7 yr)", f"{ep.eol_capacity_overhead(eol.mean):.2%}"],
            ["EOL 99.9th pct", f"{ep.eol_capacity_overhead(eol.percentile(99.9)):.2%}"],
            ["standalone LOT-ECC5", f"{base.capacity_overhead:.2%}"],
        ],
        title="Capacity",
    ))
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["mean time between channel faults", f"{mean_time_between_channel_faults_days(fit, org):,.0f} days"],
            ["P(multi-channel, 8h window, 7yr)", f"{multi_channel_window_probability(8.0, fit, org):.2e}"],
            ["added UE interval (8h scrub)", f"{added_uncorrectable_interval_years(8.0, fit, org):,.0f} yr"],
            ["undetectable-error interval", f"{undetectable_error_interval_years(org, fit):,.0f} yr"],
            ["systems w/ any materialization", f"{eol.tail_probability(2 / org.total_banks):.1%}"],
            ["HPC stall fraction (2PB system)", f"{hpc_stall_fraction():.2%}"],
        ],
        title="Reliability",
    ))


if __name__ == "__main__":
    ch = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    fit = float(sys.argv[2]) if len(sys.argv) > 2 else 44.0
    main(ch, fit)
