"""The benchmark's workloads: what one pass of each computes, and the
independent re-computations its outputs are checked against.

Every pass calls the program's public experiment drivers exactly as a user
regenerating the paper would, and returns a :class:`PassOutput`: the
artifacts (canonicalised and digested), the modelled statistics of every
simulation the pass ran, and the number of operations it attempted.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.cpu.system import SimResult
from repro.ecc import (
    Chipkill18,
    Chipkill36,
    DoubleChipkill40,
    LotEcc5,
    LotEcc5RS,
    LotEcc9,
)
from repro.ecc.catalog import DUAL_EQUIVALENT, QUAD_EQUIVALENT, pin_count, total_physical_gbits
from repro.experiments import (
    bandwidth_report,
    epi_report,
    evaluation_matrix,
    figure1_breakdown,
    figure2,
    figure8,
    figure18,
    perf_report,
    table3,
    traffic_report,
)
from repro.experiments.ablation import channel_count_sweep, xor_caching_ablation
from repro.experiments.collision import two_fault_collision_mc
from repro.experiments.coverage import coverage_study
from repro.experiments.degraded import degraded_sweep
from repro.experiments.detection import address_error_campaign
from repro.experiments.evaluation import FULL, QUICK, Fidelity, _cache_path
from repro.experiments.reliability import figure8_tail
from repro.experiments.scrub import scrub_sweep
from repro.experiments.transition import materialization_storm
from repro.faults.rareevent import run_is_coverage
from repro.gf import GF256, ReedSolomon
from repro.workloads.profiles import ALL_WORKLOADS, WORKLOADS_BY_NAME

#: Reduced size used for the warm-up pass and the self-test smoke run.
TINY = Fidelity("tiny", 64, 4000)

#: The paper's headline values (EXPERIMENTS.md "Headline results"), in
#: percentage points: (figure, system class, bin, proposal, baseline, value).
#: Fig. 10/11 are EPI reductions; Fig. 16 is the accesses/instruction
#: overhead of LOT-ECC5+EP over 18-device chipkill.
PAPER_HEADLINES = (
    ("fig10", "quad", "Bin1", "lot_ecc5_ep", "chipkill36", 46.0),
    ("fig10", "quad", "Bin2", "lot_ecc5_ep", "chipkill36", 59.5),
    ("fig10", "quad", "Bin1", "lot_ecc5_ep", "chipkill18", 34.6),
    ("fig10", "quad", "Bin2", "lot_ecc5_ep", "chipkill18", 48.9),
    ("fig10", "quad", "Bin1", "lot_ecc5_ep", "lot_ecc9", 12.8),
    ("fig10", "quad", "Bin2", "lot_ecc5_ep", "lot_ecc9", 23.1),
    ("fig10", "quad", "Bin1", "lot_ecc5_ep", "multi_ecc", 11.3),
    ("fig10", "quad", "Bin2", "lot_ecc5_ep", "multi_ecc", 20.5),
    ("fig10", "quad", "Bin1", "raim_ep", "raim", 18.5),
    ("fig10", "quad", "Bin2", "raim_ep", "raim", 22.6),
    ("fig11", "dual", "All", "lot_ecc5_ep", "chipkill36", 56.0),
    ("fig11", "dual", "All", "raim_ep", "raim", 18.0),
    ("fig16", "quad", "All", "lot_ecc5_ep", "chipkill18", 13.3),
)

#: Modelled statistics summed over every simulation of a pass.
SIM_FIELDS = (
    "instructions",
    "cycles",
    "llc_hits",
    "llc_misses",
    "data_reads",
    "data_writes",
    "ecc_reads",
    "ecc_writes",
)


def canonical(obj):
    """JSON-able, order-independent form of a driver's return value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {
            "|".join(map(str, k)) if isinstance(k, tuple) else str(k): canonical(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "to_dict"):
        return canonical(obj.to_dict())
    return canonical(vars(obj))


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassOutput:
    """What one pass computed."""

    artifacts: dict
    sims: "list[dict]" = field(default_factory=list)  #: modelled stats per simulation
    operations: int = 0  #: driver calls plus evaluation-matrix cells
    headlines: "dict[str, float] | None" = None  #: reproduced paper quantities (pp)

    @property
    def digest(self) -> str:
        return digest(self.artifacts)

    @property
    def instructions(self) -> int:
        return sum(s["instructions"] for s in self.sims)


def _sim_stats(res: SimResult) -> dict:
    c = res.counters
    return {
        "instructions": res.instructions,
        "cycles": res.cycles,
        "llc_hits": res.llc_hits,
        "llc_misses": res.llc_misses,
        "data_reads": c.data_reads,
        "data_writes": c.data_writes,
        "ecc_reads": c.ecc_reads,
        "ecc_writes": c.ecc_writes,
    }


def _find_sims(obj) -> "list[SimResult]":
    """Every :class:`SimResult` inside a driver's (dataclass/list) result."""
    if isinstance(obj, SimResult):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [s for v in obj for s in _find_sims(v)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [s for f in dataclasses.fields(obj) for s in _find_sims(getattr(obj, f.name))]
    return []


@contextmanager
def event_kernel():
    """Run simulations through the event-loop oracle."""
    saved = os.environ.get("REPRO_SIM_KERNEL")
    os.environ["REPRO_SIM_KERNEL"] = "event"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_SIM_KERNEL", None)
        else:
            os.environ["REPRO_SIM_KERNEL"] = saved


def decode_check(seed: int, words: int = 256) -> int:
    """Dirty words through ``decode`` and ``decode_reference``; returns the
    number of words whose outcome differs.

    The code is the 36-device chipkill RS(36, 32); each word carries one to
    three symbol errors (up to one past the correction radius), and every
    other word also declares one erased position.
    """
    rng = np.random.default_rng([seed, 36])
    rs = ReedSolomon(GF256, 36, 32)
    cw = rs.encode(rng.integers(0, 256, (words, 32), dtype=np.uint8))
    for w in range(words):
        pos = rng.choice(36, size=int(rng.integers(1, 4)), replace=False)
        cw[w, pos] ^= rng.integers(1, 256, size=pos.size, dtype=np.uint8)
    bad = 0
    for erasures in (None, [int(rng.integers(36))]):
        half = cw[: words // 2] if erasures is None else cw[words // 2 :]
        fast = rs.decode(half, erasures)
        ref = rs.decode_reference(half, erasures)
        bad += int(
            np.sum(
                (fast.ok != ref.ok)
                | (fast.n_corrected != ref.n_corrected)
                | np.any(fast.corrected != ref.corrected, axis=-1)
            )
        )
    return bad


def table2() -> "list[dict]":
    """Table II: evaluated configurations, dual- and quad-equivalent."""
    rows = []
    for key, d in DUAL_EQUIVALENT.items():
        q = QUAD_EQUIVALENT[key]
        rows.append(
            {
                "scheme": d.label,
                "chip_widths": d.make_scheme().chip_widths(),
                "line": d.make_scheme().line_size,
                "ranks_per_channel": d.ranks_per_channel,
                "channels": [d.channels, q.channels],
                "pins": [pin_count(d), pin_count(q)],
                "gbits": [total_physical_gbits(d), total_physical_gbits(q)],
            }
        )
    return rows


class Workload:
    """One benchmark workload; subclasses define a pass."""

    name = ""
    why = ""
    jobs = 1
    #: True when the pass runs timing simulations (oracle-checked).
    simulates = False
    #: Extra knobs set for the duration of each pass (besides REPRO_JOBS).
    env: "dict[str, str]" = {}
    #: Modules a user of this workload imports (timed by ``setup_s``).
    modules: "tuple[str, ...]" = ()

    def run(self, ops, seed: int, small: bool = False, jobs: "int | None" = None) -> PassOutput:
        """One pass, making every driver call through *ops* (``ops(fn, *args)``
        calls ``fn(*args)``, counting and timing it); *small* is the reduced
        warm-up size, *jobs* overrides the workload's worker count (the
        traced pass runs serially)."""
        raise NotImplementedError

    def oracle(self, seed: int, out: PassOutput, small: bool) -> "list[tuple[str, bool]]":
        """Re-run 2 seeded-random simulations through the event loop."""
        return []

    def committed_checks(self, seed: int, out: PassOutput, small: bool, root: Path) -> "list[tuple[str, bool]]":
        """Compare against results committed in the repository."""
        return []


class PaperWorkload(Workload):
    """Every paper artifact from a cold cache at one fidelity."""

    simulates = True
    modules = (
        "repro.experiments.evaluation",
        "repro.experiments.energy",
        "repro.experiments.performance",
        "repro.experiments.traffic",
        "repro.experiments.capacity",
        "repro.experiments.reliability",
        "repro.experiments.parallel",
    )
    CLASSES = ("quad", "dual")

    def __init__(self, name: str, fidelity: Fidelity, jobs: int, why: str, env=None):
        self.name, self.fidelity, self.jobs, self.why = name, fidelity, jobs, why
        self.env = dict(env or {})

    def fidelity_for(self, small: bool) -> Fidelity:
        return TINY if small else self.fidelity

    def run(self, ops, seed, small=False, jobs=None):
        jobs = jobs or self.jobs
        trials = 2000 if small else 20_000
        kw = dict(fidelity=self.fidelity_for(small), seed=seed, jobs=jobs)
        matrices = {}
        for sc in self.CLASSES:
            if self.jobs == 1:
                # The sweep one workload at a time: the same cells, simulated in
                # the same order into the same growing cache file, in calls short
                # enough for run.py's per-call speed scaling to follow the host.
                # A pooled sweep stays one call per class, in the serial traced
                # pass too: each call starts its own pool.
                matrices[sc] = {}
                for profile in ALL_WORKLOADS:
                    matrices[sc].update(ops(evaluation_matrix, sc, workloads=[profile.name], **kw))
            else:
                matrices[sc] = ops(evaluation_matrix, sc, **kw)
        art = {
            "fig09": ops(bandwidth_report, **kw),
            "fig10": ops(epi_report, "quad", "total", **kw),
            "fig11": ops(epi_report, "dual", "total", **kw),
            "fig12": ops(epi_report, "quad", "dynamic", **kw),
            "fig13": ops(epi_report, "quad", "background", **kw),
            "fig14": ops(perf_report, "quad", **kw),
            "fig15": ops(perf_report, "dual", **kw),
            "fig16": ops(traffic_report, "quad", **kw),
            "fig17": ops(traffic_report, "dual", **kw),
            "fig01": ops(figure1_breakdown),
            "fig02": ops(figure2),
            "fig08": ops(figure8, trials=trials, seed=seed, jobs=jobs),
            "fig18": ops(figure18),
            "table2": ops(table2),
            "table3": ops(table3, trials=trials, seed=seed),
        }
        cells = {
            f"{sc}|{wl}|{key}": dataclasses.asdict(cell)
            for sc, m in matrices.items()
            for (wl, key), cell in m.items()
        }
        headlines = {}
        for fig, sc, bin_name, prop, base, _ in PAPER_HEADLINES:
            if fig == "fig16":
                value = (art[fig].average(prop, base) - 1.0) * 100.0
            else:
                value = art[fig].averages()[(bin_name, prop, base)] * 100.0
            headlines[f"{fig}|{sc}|{bin_name}|{prop}|{base}"] = value
        art["cells"] = cells
        return PassOutput(
            artifacts=art,
            sims=[{k: c[k] for k in SIM_FIELDS} for c in cells.values()],
            operations=ops.count + len(cells),
            headlines=headlines,
        )

    def oracle(self, seed, out, small):
        rng = random.Random(seed)
        cells = out.artifacts["cells"]
        checks = []
        for label in rng.sample(sorted(cells), 2):
            sc, wl, key = label.split("|")
            with event_kernel():
                m = evaluation_matrix(
                    sc,
                    fidelity=self.fidelity_for(small),
                    seed=seed,
                    workloads=[wl],
                    config_keys=[key],
                    use_cache=False,
                    jobs=1,
                )
            checks.append((f"event oracle {label}", dataclasses.asdict(m[(wl, key)]) == cells[label]))
        return checks

    def committed_checks(self, seed, out, small, root):
        """At seed 0, every cell must equal the committed matrix cache."""
        if seed != 0 or small:
            return []
        checks = []
        cells = out.artifacts["cells"]
        for sc in self.CLASSES:
            name = _cache_path(sc, self.fidelity, 0).name
            path = root / ".repro_cache" / name
            committed = json.loads(path.read_text()) if path.exists() else {}
            for label, cell in cells.items():
                csc, wl, key = label.split("|")
                if csc == sc:
                    checks.append(
                        (f"committed {name} {wl}|{key}", committed.get(f"{wl}|{key}") == cell)
                    )
        return checks


class AblationWorkload(Workload):
    """Design-choice ablations of LOT-ECC5+EP (quad) on the timing plane."""

    name = "sim_ablations"
    simulates = True
    why = (
        "parity read-modify-write, degraded ECC reads and scrub on the sim layers; "
        "uncached ECC lines and ipc_window run the Python epoch loop"
    )
    modules = (
        "repro.experiments.ablation",
        "repro.experiments.transition",
        "repro.experiments.degraded",
        "repro.experiments.scrub",
    )
    XOR_WORKLOADS = ("lbm", "omnetpp", "streamcluster")
    FRACTIONS = (0.0, 0.05, 0.25, 1.0)
    INTERVALS = (None, 2000, 500, 100)
    CHANNELS = (2, 4, 8)

    def units(self, seed: int, small: bool) -> "list[tuple[str, object]]":
        """One (label, call) per driver call; each call runs one or two sims."""
        cfg = QUAD_EQUIVALENT["lot_ecc5_ep"]
        milc = WORKLOADS_BY_NAME["milc"]
        xor_wls = ("streamcluster",) if small else self.XOR_WORKLOADS
        units = [
            (f"xor {w}", partial(xor_caching_ablation, WORKLOADS_BY_NAME[w], cfg, seed=seed))
            for w in xor_wls
        ]
        units.append(("storm milc", partial(materialization_storm, milc, cfg, seed=seed)))
        units += [
            (f"degraded {f}", partial(degraded_sweep, milc, cfg, [f], seed=seed))
            for f in ((1.0,) if small else self.FRACTIONS)
        ]
        units += [
            (f"scrub {i}", partial(scrub_sweep, milc, cfg, [i], seed=seed))
            for i in ((500,) if small else self.INTERVALS)
        ]
        units += [
            (f"channels {n}", partial(channel_count_sweep, milc, [n], seed=seed))
            for n in ((2,) if small else self.CHANNELS)
        ]
        return units

    def run(self, ops, seed, small=False, jobs=None):
        art = {label: ops(call) for label, call in self.units(seed, small)}
        sims = [_sim_stats(r) for v in art.values() for r in _find_sims(v)]
        return PassOutput(artifacts=art, sims=sims, operations=ops.count)

    def oracle(self, seed, out, small):
        rng = random.Random(seed)
        units = dict(self.units(seed, small))
        checks = []
        for label in rng.sample(sorted(units), 2):
            with event_kernel():
                again = units[label]()
            checks.append((f"event oracle {label}", digest(again) == digest(out.artifacts[label])))
        return checks


class FaultWorkload(Workload):
    """Monte Carlo and bit-true fault campaigns; no timing simulation."""

    name = "fault_campaigns"
    jobs = 2
    why = (
        "RS encode and LOT-ECC checksums in the bit-true machine, batched decode of "
        "tilted dirty words, MC draw/tally, many small engine tasks"
    )
    modules = (
        "repro.experiments.reliability",
        "repro.experiments.coverage",
        "repro.experiments.collision",
        "repro.experiments.detection",
        "repro.faults.rareevent",
        "repro.ecc",
    )

    def run(self, ops, seed, small=False, jobs=None):
        n = 100 if small else 1  # trial divisor for the reduced pass
        jobs = jobs or self.jobs
        schemes = [Chipkill36(), Chipkill18(), DoubleChipkill40(), LotEcc5(), LotEcc9()]
        art = {
            "fig08_1m": ops(figure8, trials=1_000_000 // n, seed=seed, jobs=jobs),
            "fig08_tail_is": ops(figure8_tail, trials=20_000 // n, mode="is", seed=seed, jobs=jobs),
            "fig08_tail_strat": ops(
                figure8_tail, trials=20_000 // n, mode="strat", seed=seed, jobs=jobs
            ),
            "coverage": ops(coverage_study, schemes, trials=10_000 // n, seed=seed, jobs=jobs),
            "is_coverage_ck36": ops(
                run_is_coverage, Chipkill36(), trials=100_000 // n, tilt=20.0, seed=seed
            ),
            "is_coverage_lot5rs": ops(
                run_is_coverage, LotEcc5RS(), trials=100_000 // n, tilt=20.0, seed=seed
            ),
            "collision": ops(two_fault_collision_mc, trials=max(16, 240 // n), seed=seed, jobs=jobs),
            "address_errors": ops(address_error_campaign, trials=max(40, 400 // n), seed=seed),
        }
        return PassOutput(artifacts=art, operations=ops.count)


WORKLOADS = {
    w.name: w
    for w in (
        PaperWorkload(
            "paper_quick",
            QUICK,
            jobs=1,
            why="every paper figure and table from a cold cache at quick fidelity, serial",
        ),
        PaperWorkload(
            "paper_full_observed",
            FULL,
            jobs=2,
            why=(
                "the same artifacts at full fidelity on 2 pool workers with telemetry and "
                "tracing armed, as the committed numbers are produced"
            ),
            env={"REPRO_OBS": "all", "REPRO_TRACE": "1"},
        ),
        AblationWorkload(),
        FaultWorkload(),
    )
}
