"""Glue that runs one (workload x system-configuration) timing simulation.

This is the reproduction's equivalent of a GEM5+DRAMsim run: it instantiates
the memory system from a Table II configuration, builds the scheme's
ECC-traffic model (wrapping it in ECC Parity where the configuration says
so), spins up the 8-core trace-driven system, and returns the measured-phase
:class:`~repro.cpu.system.SimResult`.

Configurations that differ only in their chips are one timing system:
chip widths reach nothing but the rank power models.  :func:`timing_key`
names that system, and :func:`run_group` simulates it once for all of
them, integrating energy per configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cpu.degraded import DegradedMode
from repro.cpu.ecc_traffic import EccTrafficModel
from repro.cpu.llc import LLC
from repro.cpu.system import ScrubConfig, SimResult, SimSystem
from repro.dram.system import (
    MemorySystem,
    MemorySystemConfig,
    integrate_energy,
    rank_power_models,
)
from repro.ecc.base import ECCScheme
from repro.ecc.catalog import SystemConfig
from repro.workloads.generator import make_core_traces
from repro.workloads.profiles import WorkloadProfile

#: LLC references per phase (warm-up / measurement).  Sized for several
#: LLC turnovers at the default scale so ECC/XOR-line eviction traffic
#: reaches steady state; instruction budgets derive from this per workload.
DEFAULT_ACCESS_TARGET = 40_000

#: Default system-scaling factor: the 8 MB LLC and all workload footprints
#: shrink together by this factor, preserving miss rates while making the
#: warm-up (filling the LLC) tractable in pure Python.
DEFAULT_SCALE = 16


def adaptive_instructions(workload: WorkloadProfile, access_target: int = DEFAULT_ACCESS_TARGET) -> int:
    """Total instructions needed for ~*access_target* LLC references.

    Low-intensity workloads (sjeng at 2.5 accesses/kilo-instruction) need
    far more instructions than memory-bound ones to exercise the same
    amount of cache/memory behaviour; simulating a fixed instruction count
    would leave their ECC-line traffic un-warmed.
    """
    return int(access_target * 1000 / workload.apki)


@dataclass(frozen=True)
class RunSpec:
    """One cell of the evaluation matrix.

    ``warmup_instructions`` / ``measure_instructions`` of ``None`` select
    the adaptive per-workload budget (see :func:`adaptive_instructions`).
    """

    workload: WorkloadProfile
    config: SystemConfig
    warmup_instructions: "int | None" = None
    measure_instructions: "int | None" = None
    seed: int = 0
    scale: int = DEFAULT_SCALE

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_instructions is not None:
            return self.warmup_instructions
        return adaptive_instructions(self.workload)

    @property
    def resolved_measure(self) -> int:
        if self.measure_instructions is not None:
            return self.measure_instructions
        return adaptive_instructions(self.workload)


#: Per-process LLC pool keyed by (size_bytes, line_size): an evaluation
#: matrix runs one group of cells at a time per worker, so consecutive
#: groups with the same cache geometry recycle one LLC via
#: :meth:`LLC.reset` instead of reallocating its slot lists (4,096 slots at
#: quick fidelity and 8,192 at full for 64 B lines) per config.  A
#: compiled-core run works on its own resident slot arrays, scanning a set
#: to find a line, and leaves these lists and the address dict untouched,
#: so its reset only zeroes counters.  Address-mapping decode tables are
#: likewise shared across ``SimSystem`` instances (see
#: ``repro.dram.mapping._SHARED_TABLES``).
_LLC_POOL: "dict[tuple[int, int], LLC]" = {}


def llc_size_bytes(scale: int) -> int:
    """LLC capacity at a system-scaling factor (the paper's 8 MB, scaled)."""
    return (8 << 20) // scale


def _pooled_llc(size_bytes: int, line_size: int) -> LLC:
    key = (size_bytes, line_size)
    llc = _LLC_POOL.get(key)
    if llc is None:
        llc = _LLC_POOL[key] = LLC(size_bytes=size_bytes, line_size=line_size)
    else:
        llc.reset()
    return llc


def _memory_config(config: SystemConfig, scheme: ECCScheme) -> MemorySystemConfig:
    return MemorySystemConfig(
        channels=config.channels,
        ranks_per_channel=config.ranks_per_channel,
        chip_widths=scheme.chip_widths(),
        line_size=scheme.line_size,
    )


def _ecc_model(config: SystemConfig, scheme: ECCScheme) -> EccTrafficModel:
    return EccTrafficModel.for_scheme(
        scheme, ecc_parity_channels=config.channels if config.ecc_parity else None
    )


#: ``MemorySystemConfig`` fields that only the rank power models read.
_POWER_ONLY_FIELDS = frozenset({"chip_widths", "rank_chip_widths"})


def timing_key(spec: RunSpec) -> tuple:
    """The timing system :func:`build_system` makes of *spec*.

    Built from the same inputs: the memory geometry (every
    ``MemorySystemConfig`` field but the chip widths), the ECC-traffic
    model, the trace inputs (workload, seed, scale; the line size is in
    the geometry), the LLC size and both instruction budgets.  Specs with
    equal keys run cycle for cycle alike and differ only in energy, so
    :func:`run_group` simulates them once; a model change that reaches
    any of these inputs splits them on its own.
    """
    scheme = spec.config.make_scheme()
    mem = _memory_config(spec.config, scheme)
    geometry = tuple(
        getattr(mem, f.name) for f in dataclasses.fields(mem) if f.name not in _POWER_ONLY_FIELDS
    )
    return (
        geometry,
        _ecc_model(spec.config, scheme),
        spec.workload,
        spec.seed,
        spec.scale,
        llc_size_bytes(spec.scale),
        spec.resolved_warmup,
        spec.resolved_measure,
    )


def build_system(
    spec: RunSpec,
    reuse_llc: bool = False,
    *,
    ecc_model: "EccTrafficModel | None" = None,
    degraded: "DegradedMode | None" = None,
    scrub: "ScrubConfig | None" = None,
) -> SimSystem:
    """Construct the full simulated system for a run specification.

    With *reuse_llc* the LLC comes from the per-process pool (reset, not
    reallocated) - only safe when at most one system built this way is
    live at a time, which holds for the sequential :func:`run_group` path.
    *ecc_model* replaces the configuration's ECC-traffic model, and
    *degraded* / *scrub* add faulty bank pairs or a patrol scrubber, for
    the experiments that vary them; :func:`timing_key` covers none of the
    three, so :func:`run_group` never passes them.
    """
    scheme = spec.config.make_scheme()
    mem = MemorySystem(_memory_config(spec.config, scheme))
    if ecc_model is None:
        ecc_model = _ecc_model(spec.config, scheme)
    traces = make_core_traces(
        spec.workload,
        cores=8,
        llc_block_bytes=scheme.line_size,
        seed=spec.seed,
        footprint_scale=spec.scale,
    )
    size_bytes = llc_size_bytes(spec.scale)
    if reuse_llc:
        llc = _pooled_llc(size_bytes, scheme.line_size)
    else:
        llc = LLC(size_bytes=size_bytes, line_size=scheme.line_size)
    return SimSystem(mem, traces, ecc_model, llc=llc, degraded=degraded, scrub=scrub)


def run_group(specs: "list[RunSpec]") -> "list[SimResult]":
    """Simulate specs that share one :func:`timing_key` once; one result each.

    The first spec's system runs.  Every other spec integrates the same
    measured-phase rank counters (the run's ``energy_baseline`` and final
    counters) with its own power models, in ``MemorySystem.energy_since``'s
    order, so each result is bit-identical to that spec's solo run.  Only
    the counters outlive the run; the system is dropped with the group.

    The timing kernel (epoch-batched vs event-driven reference) follows
    ``REPRO_SIM_KERNEL``; results are bit-identical either way, so the
    evaluation-matrix cache needs no kernel key.
    """
    lead = specs[0]
    key = timing_key(lead) if len(specs) > 1 else None
    for spec in specs[1:]:
        if timing_key(spec) != key:
            names = f"{lead.config.scheme_key} and {spec.config.scheme_key}"
            raise ValueError(f"{names} are different timing systems")
    system = build_system(lead, reuse_llc=True)
    result = system.run(lead.resolved_warmup, lead.resolved_measure)
    results = [result]
    for spec in specs[1:]:
        models = rank_power_models(_memory_config(spec.config, spec.config.make_scheme()))
        energy = integrate_energy(models, system.mem.energy_counters(), system.energy_baseline)
        counters = dataclasses.replace(result.counters)
        results.append(dataclasses.replace(result, energy=energy, counters=counters))
    return results


def run(spec: RunSpec) -> SimResult:
    """Execute one simulation and return the measured-phase result."""
    return run_group([spec])[0]
