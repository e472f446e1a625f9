"""Materialization-storm transition experiment (Section III-B's claim).

When a bank pair's error counter saturates, the controller must read every
line of the pair, compute correction bits, write the ECC lines, and
recalculate the affected parity lines - "a few seconds of degraded memory
performance per hundreds of days", which the paper argues is negligible.

This experiment injects that maintenance storm into a running workload and
records the windowed-IPC timeline: how deep the dip is and how fast the
system recovers.  The storm volume is the real one for the simulated
geometry: every line of two banks read, plus the ECC and parity lines
rewritten (~ 2R + R/(N-1) of the pair's size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecc.catalog import SystemConfig
from repro.experiments.runner import RunSpec, build_system
from repro.workloads.profiles import WorkloadProfile


@dataclass
class TransitionResult:
    """Windowed-IPC timeline around a materialization storm."""

    window_cycles: int
    storm_cycle: int
    timeline_ipc: "list[float]"
    storm_reads: int
    storm_writes: int

    @property
    def baseline_ipc(self) -> float:
        pre = [v for i, v in enumerate(self.timeline_ipc) if (i + 1) * self.window_cycles < self.storm_cycle]
        pre = pre[1:]  # drop the cold first window
        return sum(pre) / len(pre) if pre else float("nan")

    @property
    def dip_ipc(self) -> float:
        idx = self.storm_cycle // self.window_cycles
        during = self.timeline_ipc[idx : idx + 3]
        return min(during) if during else float("nan")

    @property
    def recovery_windows(self) -> int:
        """Windows after the storm until IPC regains 95% of baseline."""
        idx = self.storm_cycle // self.window_cycles
        target = 0.95 * self.baseline_ipc
        for k, v in enumerate(self.timeline_ipc[idx:]):
            if v >= target:
                return k
        return len(self.timeline_ipc) - idx


def materialization_storm(
    workload: WorkloadProfile,
    config: SystemConfig,
    scale: int = 32,
    seed: int = 0,
    window_cycles: int = 20_000,
) -> TransitionResult:
    """Run a workload and inject one bank-pair materialization mid-flight."""
    scheme = config.make_scheme()
    spec = RunSpec(workload, config, seed=seed, scale=scale)
    system = build_system(spec)
    system.ipc_window = window_cycles

    # Storm volume: two banks' worth of lines read, 2R of that written back
    # as ECC lines plus R/(N-1) parity rewrites.  Scaled bank: total scaled
    # memory / banks; use a round, representative figure.
    lines_per_bank = (256 << 20) // scale // 64 // (config.channels * config.ranks_per_channel * 8)
    storm_reads = 2 * lines_per_bank
    r = scheme.correction_ratio
    storm_writes = int(2 * lines_per_bank * 2 * r + 2 * lines_per_bank * r / max(1, config.channels - 1))

    warm = spec.resolved_warmup
    measure = spec.resolved_measure
    # Place the storm mid-measurement: estimate cycles/instr ~ 1/ (8*IPC).
    storm_cycle = int((warm + measure // 3) / (8 * 2.0))
    system.schedule_burst(storm_cycle, storm_reads, storm_writes, base_addr=0)
    system.run(warm, measure)

    w = system._window_instr
    timeline = [v / window_cycles for v in w]
    return TransitionResult(window_cycles, storm_cycle, timeline, storm_reads, storm_writes)
