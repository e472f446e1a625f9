"""Ablations of ECC Parity's design choices (called out in DESIGN.md).

* **XOR-cacheline caching** (Section III-D): compare the optimized design
  against a controller that pays the unoptimized Figure 6 step-E cost
  (three extra accesses) on every write-back.
* **Channel count**: the optimization's capacity benefit scales as
  ``R/(N-1)``, but its XOR-line coverage also scales with ``N-1``; this
  sweep measures both together on the timing plane.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cpu.ecc_traffic import EccTrafficModel
from repro.cpu.system import SimResult
from repro.core.scheme import ECCParityScheme
from repro.ecc.catalog import SystemConfig
from repro.ecc.lot_ecc import LotEcc5
from repro.experiments.runner import RunSpec, build_system
from repro.workloads.profiles import WorkloadProfile


def _run_with_model(spec: RunSpec, model: EccTrafficModel) -> SimResult:
    """Like runner.run but with an explicit ECC-traffic model."""
    system = build_system(spec, ecc_model=model)
    return system.run(spec.resolved_warmup, spec.resolved_measure)


@dataclass
class CachingAblation:
    """Optimized vs unoptimized parity-update traffic for one workload."""

    workload: str
    cached: SimResult
    uncached: SimResult

    @property
    def traffic_blowup(self) -> float:
        return (
            self.uncached.accesses_per_instruction / self.cached.accesses_per_instruction
        )

    @property
    def energy_blowup(self) -> float:
        return self.uncached.epi_nj / self.cached.epi_nj


def xor_caching_ablation(
    workload: WorkloadProfile,
    config: SystemConfig,
    scale: int = 32,
    seed: int = 0,
) -> CachingAblation:
    """Section III-D ablation on one workload/configuration."""
    scheme = config.make_scheme()
    n = config.channels if config.ecc_parity else None
    base_model = EccTrafficModel.for_scheme(scheme, ecc_parity_channels=n)
    spec = RunSpec(workload, config, seed=seed, scale=scale)
    cached = _run_with_model(spec, base_model)
    uncached = _run_with_model(spec, dataclasses.replace(base_model, cache_ecc_lines=False))
    return CachingAblation(workload.name, cached, uncached)


@dataclass
class ChannelSweepPoint:
    channels: int
    capacity_overhead: float
    result: SimResult


def channel_count_sweep(
    workload: WorkloadProfile,
    channel_counts: "list[int]",
    ranks_per_channel: int = 4,
    scale: int = 32,
    seed: int = 0,
) -> "list[ChannelSweepPoint]":
    """LOT-ECC5+ECC Parity across channel counts (capacity + traffic)."""
    out = []
    for n in channel_counts:
        cfg = SystemConfig(
            "lot_ecc5",
            channels=n,
            ranks_per_channel=ranks_per_channel,
            ecc_parity=True,
            total_pins=72 * n,
        )
        spec = RunSpec(workload, cfg, seed=seed, scale=scale)
        res = build_system(spec).run(spec.resolved_warmup, spec.resolved_measure)
        out.append(
            ChannelSweepPoint(
                channels=n,
                capacity_overhead=ECCParityScheme(LotEcc5(), n).capacity_overhead,
                result=res,
            )
        )
    return out
