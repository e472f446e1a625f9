"""Degraded-mode evaluation: cost of operating with faulty bank pairs.

The paper argues (Section III-C) that reading the ECC line for every
application read to a faulty bank (step B) is the most expensive added step
but stays cheap because it is LLC-cached and faults are rare.  This
experiment makes that quantitative: sweep the fraction of bank pairs
recorded as faulty and measure traffic, energy, and performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.degraded import DegradedMode
from repro.cpu.system import SimResult
from repro.ecc.catalog import SystemConfig
from repro.experiments.runner import RunSpec, build_system
from repro.workloads.profiles import WorkloadProfile


@dataclass
class DegradedPoint:
    """One sweep point: fraction of bank pairs faulty and measured costs."""

    faulty_fraction: float
    result: SimResult


def _faulty_bank_set(config: SystemConfig, fraction: float, banks_per_rank: int = 8):
    """Deterministically mark the first `fraction` of bank pairs faulty."""
    total_pairs = config.channels * config.ranks_per_channel * banks_per_rank // 2
    n_faulty = round(total_pairs * fraction)
    banks = []
    pair = 0
    for ch in range(config.channels):
        for rk in range(config.ranks_per_channel):
            for bp in range(banks_per_rank // 2):
                if pair < n_faulty:
                    banks.append((ch, rk, 2 * bp))
                    banks.append((ch, rk, 2 * bp + 1))
                pair += 1
    return banks


def degraded_sweep(
    workload: WorkloadProfile,
    config: SystemConfig,
    fractions: "list[float]",
    scale: int = 32,
    seed: int = 0,
) -> "list[DegradedPoint]":
    """Run the workload with increasing shares of faulty bank pairs."""
    out = []
    spec = RunSpec(workload, config, seed=seed, scale=scale)
    for frac in fractions:
        degraded = (
            DegradedMode.for_scheme(config.make_scheme(), _faulty_bank_set(config, frac))
            if frac > 0
            else None
        )
        system = build_system(spec, degraded=degraded)
        res = system.run(spec.resolved_warmup, spec.resolved_measure)
        out.append(DegradedPoint(frac, res))
    return out
