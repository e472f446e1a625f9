"""Glue that runs one (workload x system-configuration) timing simulation.

This is the reproduction's equivalent of a GEM5+DRAMsim run: it instantiates
the memory system from a Table II configuration, builds the scheme's
ECC-traffic model (wrapping it in ECC Parity where the configuration says
so), spins up the 8-core trace-driven system, and returns the measured-phase
:class:`~repro.cpu.system.SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.ecc_traffic import EccTrafficModel
from repro.cpu.llc import LLC
from repro.cpu.system import SimResult, SimSystem
from repro.dram.system import MemorySystem, MemorySystemConfig
from repro.ecc.catalog import SYSTEM_CLASSES, SystemConfig
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
#: matrix runs one cell at a time per worker, so consecutive cells with the
#: same cache geometry recycle one LLC via :meth:`LLC.reset` instead of
#: reallocating its slot lists (4,096 slots at quick fidelity and 8,192 at
#: full for 64 B lines) per config.  A compiled-core run works on its own
#: resident slot arrays, scanning a set to find a line, and leaves these
#: lists and the address dict untouched, so its reset only zeroes
#: counters.  Address-mapping decode tables are likewise shared across
#: ``SimSystem`` instances (see ``repro.dram.mapping._SHARED_TABLES``).
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


def build_system(spec: RunSpec, reuse_llc: bool = False) -> SimSystem:
    """Construct the full simulated system for a run specification.

    With *reuse_llc* the LLC comes from the per-process pool (reset, not
    reallocated) - only safe when at most one system built this way is
    live at a time, which holds for the sequential :func:`run` path.
    """
    scheme = spec.config.make_scheme()
    mem = MemorySystem(
        MemorySystemConfig(
            channels=spec.config.channels,
            ranks_per_channel=spec.config.ranks_per_channel,
            chip_widths=scheme.chip_widths(),
            line_size=scheme.line_size,
        )
    )
    ecc_model = EccTrafficModel.for_scheme(
        scheme,
        ecc_parity_channels=spec.config.channels if spec.config.ecc_parity else None,
    )
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
    return SimSystem(mem, traces, ecc_model, llc=llc)


def run(spec: RunSpec) -> SimResult:
    """Execute one simulation and return the measured-phase result.

    The timing kernel (epoch-batched vs event-driven reference) follows
    ``REPRO_SIM_KERNEL``; results are bit-identical either way, so the
    evaluation-matrix cache needs no kernel key.
    """
    system = build_system(spec, reuse_llc=True)
    return system.run(spec.resolved_warmup, spec.resolved_measure)


def run_matrix(
    workloads: "list[WorkloadProfile]",
    config_keys: "list[str]",
    system_class: str = "quad",
    warmup: "int | None" = None,
    measure: "int | None" = None,
    seed: int = 0,
    scale: int = DEFAULT_SCALE,
) -> "dict[tuple[str, str], SimResult]":
    """Run a workload x configuration sweep; keys are (workload, config)."""
    configs = SYSTEM_CLASSES[system_class]
    out = {}
    for wl in workloads:
        for key in config_keys:
            spec = RunSpec(wl, configs[key], warmup, measure, seed, scale)
            out[(wl.name, key)] = run(spec)
    return out
