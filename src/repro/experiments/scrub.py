"""Scrub-rate design space: reliability vs bandwidth/energy overhead.

Section VI-C gives the reliability side of the scrub-rate trade (Figure 18);
this experiment adds the cost side.  Two views:

* **analytic**: the bandwidth a patrol scrubber consumes is simply
  ``memory_bytes / window`` - a fraction of peak bandwidth that is
  negligible at the paper's 8-hour window and grows inversely with it;
* **simulated**: accelerated scrub intervals injected into the timing plane
  show how patrol reads interact with real traffic (they ride the
  background priority class, so demand impact stays small until the
  scrubber consumes a visible bandwidth share).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.system import ScrubConfig, SimResult
from repro.ecc.catalog import SystemConfig
from repro.experiments.runner import RunSpec, build_system
from repro.util.units import GIB
from repro.workloads.profiles import WorkloadProfile


def scrub_bandwidth_fraction(
    memory_gib: float,
    window_hours: float,
    peak_bandwidth_gbps: float,
) -> float:
    """Fraction of peak bandwidth a patrol scrubber consumes.

    One full sweep of *memory_gib* per *window_hours* against a channel
    aggregate of *peak_bandwidth_gbps* (GB/s).
    """
    bytes_per_second = memory_gib * GIB / (window_hours * 3600.0)
    return bytes_per_second / (peak_bandwidth_gbps * 1e9)


@dataclass
class ScrubPoint:
    """One simulated scrub-rate point."""

    interval_cycles: int
    result: SimResult
    scrub_reads: int


def scrub_sweep(
    workload: WorkloadProfile,
    config: SystemConfig,
    intervals: "list[int | None]",
    scale: int = 32,
    seed: int = 0,
) -> "list[ScrubPoint]":
    """Run the workload under increasingly aggressive patrol scrubbing.

    ``None`` in *intervals* means no scrubber (the baseline).
    """
    out = []
    spec = RunSpec(workload, config, seed=seed, scale=scale)
    for interval in intervals:
        scrub = (
            ScrubConfig(interval_cycles=interval, region_lines=1 << 20)
            if interval is not None
            else None
        )
        system = build_system(spec, scrub=scrub)
        res = system.run(spec.resolved_warmup, spec.resolved_measure)
        out.append(ScrubPoint(interval or 0, res, system.scrub_reads))
    return out
