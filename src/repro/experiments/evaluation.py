"""Shared evaluation matrix with on-disk caching.

Figures 9-17 all consume the same workload x configuration sweep; running
it once per system class and caching the scalar results lets every
benchmark regenerate its table in milliseconds while `REPRO_FULL=1` (or a
cold cache) triggers the real simulations.  The sweep resumes through the
same :class:`~repro.util.cachefile.Checkpoint` as the Monte Carlo drivers,
whose cache files also live in :data:`CACHE_DIR`.

Two fidelity presets:

* ``quick`` (default): scale 32, ~20k LLC references per phase - about
  2.6-3.2 s cold for both system classes' 256 cells (224 simulations),
  serial, on a 2-vCPU Intel Xeon host; adequate for shapes and rankings.
* ``full`` (``REPRO_FULL=1``): scale 16, ~40k references - about 2.2-2.5 s
  on 2 workers on the same host; the setting the committed EXPERIMENTS.md
  numbers were produced with.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from repro.ecc.catalog import SYSTEM_CLASSES
from repro.util import envcfg
from repro.util.cachefile import Checkpoint
from repro.workloads.profiles import ALL_WORKLOADS, PROFILES_VERSION

#: All configuration keys evaluated in Figures 9-17.
CONFIG_KEYS = [
    "chipkill36",
    "chipkill18",
    "lot_ecc9",
    "multi_ecc",
    "lot_ecc5",
    "lot_ecc5_ep",
    "raim",
    "raim_ep",
]

CACHE_DIR = envcfg.path("REPRO_CACHE_DIR")


@dataclass(frozen=True)
class CellResult:
    """Scalar outcome of one (workload, config) simulation."""

    epi_nj: float
    dynamic_epi_nj: float
    background_epi_nj: float
    accesses_per_instruction: float
    ipc: float
    bandwidth_gbps: float
    instructions: int
    cycles: int
    data_reads: int
    data_writes: int
    ecc_reads: int
    ecc_writes: int
    llc_misses: int
    llc_hits: int


_CELL_FIELDS = frozenset(f.name for f in fields(CellResult))


def _valid_cell(entry: object) -> bool:
    return isinstance(entry, dict) and entry.keys() == _CELL_FIELDS


@dataclass(frozen=True)
class Fidelity:
    """Simulation sizing preset."""

    name: str
    scale: int
    access_target: int

    @property
    def cache_tag(self) -> str:
        return f"{self.name}-s{self.scale}-a{self.access_target}"


QUICK = Fidelity("quick", scale=32, access_target=20_000)
FULL = Fidelity("full", scale=16, access_target=40_000)


def current_fidelity() -> Fidelity:
    """Preset selected by the ``REPRO_FULL`` flag."""
    return FULL if envcfg.flag("REPRO_FULL") else QUICK


def _cell_from_result(res) -> CellResult:
    return CellResult(
        epi_nj=res.epi_nj,
        dynamic_epi_nj=res.dynamic_epi_nj,
        background_epi_nj=res.background_epi_nj,
        accesses_per_instruction=res.accesses_per_instruction,
        ipc=res.ipc,
        bandwidth_gbps=res.bandwidth_gbps,
        instructions=res.instructions,
        cycles=res.cycles,
        data_reads=res.counters.data_reads,
        data_writes=res.counters.data_writes,
        ecc_reads=res.counters.ecc_reads,
        ecc_writes=res.counters.ecc_writes,
        llc_misses=res.llc_misses,
        llc_hits=res.llc_hits,
    )


def _cache_path(system_class: str, fidelity: Fidelity, seed: int) -> Path:
    return CACHE_DIR / (
        f"matrix-{system_class}-{fidelity.cache_tag}-seed{seed}-p{PROFILES_VERSION}.json"
    )


def evaluation_matrix(
    system_class: str = "quad",
    fidelity: "Fidelity | None" = None,
    seed: int = 0,
    workloads: "list[str] | None" = None,
    config_keys: "list[str] | None" = None,
    use_cache: bool = True,
    jobs: "int | None" = None,
) -> "dict[tuple[str, str], CellResult]":
    """The workload x configuration sweep for one system class, cached.

    Cells missing from the cache, or stored without exactly the
    :class:`CellResult` fields, are simulated - in parallel across
    processes when *jobs* (default: ``REPRO_JOBS``, else CPU count) allows -
    and merged back under their ``workload|config`` key, so the returned
    matrix is independent of completion order and bit-identical to a serial
    sweep.  Every finished cell is appended to the cache's checkpoint log
    at once, so an interrupted or crashed sweep resumes where it stopped;
    the sweep compacts the log into the cache file atomically when it
    ends, on success or error (merge-on-write, so concurrent sweeps
    sharing the file keep each other's cells).
    Each distinct timing system runs once: configurations that differ
    only in their chips (RAIM and 36-device chipkill) share one
    simulation and get their own energy (see
    :func:`~repro.experiments.runner.run_group`).  A group that raises,
    and every unfinished group of a sweep whose pool worker died,
    surfaces in a :class:`~repro.experiments.parallel.CampaignError`
    naming each failed ``(workload, config_keys)`` payload, raised only
    after every finished cell has been checkpointed; rerunning the sweep
    computes only those.
    """
    fidelity = fidelity or current_fidelity()
    wl_names = workloads or [w.name for w in ALL_WORKLOADS]
    keys = config_keys or CONFIG_KEYS
    if system_class not in SYSTEM_CLASSES:
        raise KeyError(system_class)

    cells = {f"{w}|{k}": (w, k) for w in wl_names for k in keys}
    ckpt = Checkpoint(_cache_path(system_class, fidelity, seed) if use_cache else None, _valid_cell)
    missing = [cells[c] for c in ckpt.missing(cells)]
    if missing:
        # Deferred import: repro.experiments.parallel imports this module.
        from repro import obs
        from repro.experiments import parallel

        if obs.enabled():
            # Campaign-level manifest facts: the config matrix and seeds
            # that produced this run directory's telemetry.
            obs.ensure_manifest(
                matrix={
                    "system_class": system_class,
                    "fidelity": fidelity.name,
                    "scale": fidelity.scale,
                    "access_target": fidelity.access_target,
                    "seed": seed,
                    "workloads": wl_names,
                    "config_keys": keys,
                    "missing_cells": len(missing),
                    "simulations": len(
                        parallel.cell_groups(system_class, missing, fidelity, seed)
                    ),
                }
            )
        with ckpt:
            for wl_name, key, cell in parallel.run_cells(
                system_class, missing, fidelity, seed, jobs=jobs
            ):
                ckpt.save(f"{wl_name}|{key}", cell)

    return {wk: CellResult(**ckpt.values[c]) for c, wk in cells.items()}


def workload_order(matrix: "dict[tuple[str, str], CellResult]", reference_key: str = "chipkill36") -> "list[str]":
    """Workloads sorted by bandwidth on the reference configuration."""
    names = sorted({wl for wl, _ in matrix})
    return sorted(names, key=lambda w: matrix[(w, reference_key)].bandwidth_gbps)


def bins(matrix: "dict[tuple[str, str], CellResult]", reference_key: str = "chipkill36") -> "tuple[list[str], list[str]]":
    """The paper's Bin1 (8 lower-bandwidth) / Bin2 (8 higher) split."""
    ordered = workload_order(matrix, reference_key)
    half = len(ordered) // 2
    return ordered[:half], ordered[half:]
