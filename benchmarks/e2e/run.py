#!/usr/bin/env python3
"""End-to-end reproduction benchmark with an outside-in per-layer breakdown.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE] [--chrome FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs one untimed warm-up pass at reduced size, then timed
cold passes (each with a fresh evaluation cache) until ``--seconds`` of
passes have been measured, at least two.
Times are scaled to a reference host speed measured between driver calls
(see :class:`Ops`); ``wall_s`` and ``cpu_s`` are best-of-passes times (see
:func:`best_of_passes`), ``setup_s`` a median of fresh launches.  With
``--trace`` one extra serial pass runs with the layer entry points wrapped
(see ``spans.py``) and gives the per-layer numbers.  Outputs are checked on
every run; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics,
or per-layer metrics with ``--trace``).  The command exits non-zero when a
check fails.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Fresh-interpreter launches timed per run for ``setup_s``.
SETUP_LAUNCHES = 8
#: Timed passes per run: at least this many, and more until ``--seconds``
#: of passes have been measured.
MIN_PASSES = 2


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: metrics, bounds and the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units() -> "tuple[dict[str, str], dict[str, str]]":
    """End-to-end and per-layer metric names -> units, from BENCHMARK.json.

    End-to-end metrics are reported with ``--trace 0``, per-layer metrics
    with ``--trace 1``.  Layer times are self seconds in the serial traced
    pass; counts come from the values the traced calls return; the modelled
    statistics and ``paper_gap_pp`` come from the first timed pass and must
    repeat exactly for a change that only affects speed.
    """
    e2e, layers = ({m["name"]: m["unit"] for m in spec()[k]} for k in ("end_to_end", "per_layer"))
    return e2e, layers


#: Per-layer metrics that are modelled (simulated) statistics.
MODELLED = (
    "cpu.llc.accesses",
    "cpu.llc.hit_ratio",
    "cpu.ecc_traffic.ecc_accesses",
    "cpu.ecc_traffic.ecc_share",
    "dram.data_accesses",
    "dram.sim_cycles",
    "paper_gap_pp",
)


def prepare_environment() -> Path:
    """Confine the run to the checkout and make imports reproducible.

    Exits with code 2 when the program's sources are not beside the
    benchmark.  Inherited ``REPRO_*`` knobs are dropped so the workloads
    alone decide them; temp files, caches and bytecode go under
    ``benchmarks/e2e/.work``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    run_dir = WORK / f"run-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix = str(WORK / "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    return run_dir


def summary(values: "list[float]", value: "float | None" = None) -> dict:
    """*value* (default: the median of *values*) with the quartiles
    (inclusive method) and the raw samples."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (med,) * 3
    return {"value": med if value is None else value, "n": len(values), "q1": q1, "q3": q3, "values": list(values)}


def cpu_seconds() -> float:
    """User+system seconds of this process plus its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


#: :func:`speed_probe`'s median (over 728 probes taken between driver calls)
#: on the host the baseline was measured on (2-vCPU KVM guest, Intel Xeon);
#: scaled times are seconds at that speed.
PROBE_REF_S = 0.009


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def speed_probe() -> float:
    """Seconds this host takes right now for a fixed reference kernel.

    The kernel is a pure-Python integer loop (~8 ms), timed three times
    pinned to each vCPU this process may use; the probe is the mean over
    vCPUs of each one's median.  The kernel is part of the benchmark, so a
    change to the program never changes it.

    Both choices were measured.  Timed for six minutes alongside short
    pieces of the program's own work (a sweep cell on the native core, a
    Python-epoch simulation, RS encoding), the work's time followed the
    loop's over host drift with an exponent of 0.90-0.98, while a NumPy
    table gather slowed less than the work (exponent ~1.6).  The vCPUs
    drift only partly together (correlation 0.46 over one-second windows),
    and a pass's work, in the driver or in pool workers, may run on any of
    them: over 8 passes per workload with every driver call recorded, this
    probe gave the lowest spread of best-of-two pass times on three of the
    four workloads, the serial ones included (1.7-6.3%, against 3.7-9.8%
    for one unpinned run of the loop).
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(_loop_seconds() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)  # pool workers and set-up launches inherit it
    return sum(per_cpu) / len(per_cpu)


class Ops:
    """Makes a pass's driver calls: counts and times each one and runs
    :func:`speed_probe` between calls, when no work is in flight.

    The host's speed drifts by up to ~50% over seconds to minutes.  Each
    call's times are kept with the factor that scales them to the reference
    speed: ``PROBE_REF_S`` over the mean of the probes just before and just
    after the call.
    """

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.calls: "list[tuple[float, float, float]]" = []  #: (wall, cpu, scale) per call
        self._last = speed_probe() if probe else 0.0

    @property
    def count(self) -> int:
        return len(self.calls)

    def __call__(self, fn, *args, **kwargs):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        out = fn(*args, **kwargs)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        scale = 1.0
        if self.probe:
            before, self._last = self._last, speed_probe()
            scale = 2 * PROBE_REF_S / (before + self._last)
        self.calls.append((wall, cpu, scale))
        return out

    def total(self, k: int, scaled: bool = True) -> float:
        """The pass's wall (``k`` 0) or cpu (``k`` 1) seconds over its calls."""
        return sum(c[k] * (c[2] if scaled else 1.0) for c in self.calls)


def best_of_passes(passes: "list[Ops]", k: int, scaled: bool = True) -> float:
    """One pass's wall (``k`` 0) or cpu (``k`` 1) seconds with each driver
    call at its least over *passes*.  Scaled to the reference speed, a
    call's least time over passes run seconds apart follows the program
    rather than the host: over ten runs per workload the run-to-run
    quartile spread was 5-11%, against 10-15% unscaled
    (``runs/spread-10-seeds.txt``)."""
    calls = zip(*(p.calls for p in passes))
    return sum(min(c[k] * (c[2] if scaled else 1.0) for c in call) for call in calls)


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest reaped child (MB)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Checks:
    """Correctness checks of one workload run (excluded from timing)."""

    def __init__(self):
        self.attempted = 0
        self.failures: "list[str]" = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


class Runner:
    """Runs the passes of one workload inside a private work directory."""

    def __init__(self, run_dir: Path):
        import repro.experiments.evaluation as evaluation
        from repro import obs
        from repro.obs import trace

        self.run_dir = run_dir
        self.evaluation, self.obs, self.trace = evaluation, obs, trace
        self.n = 0

    def setup_launch(self, wl) -> "tuple[float, float]":
        """Fresh interpreter -> driver modules imported + native cores
        loaded; (host seconds, seconds scaled as in :class:`Ops`)."""
        code = "; ".join(
            [f"import {m}" for m in wl.modules]
            + [
                "from repro.cpu import epochnative",
                "from repro.gf import rsnative",
                "epochnative.available()",
                "rsnative.available()",
            ]
        )
        before = speed_probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        return wall, wall * 2 * PROBE_REF_S / (before + speed_probe())

    def run_pass(
        self, wl, seed: int, small: bool = False, jobs: "int | None" = None, tracer=None, probe: bool = True
    ) -> dict:
        """One cold pass: fresh cache dir, the workload's knobs, timed.

        The traced pass runs no speed probes: their time would show as
        unattributed.
        """
        self.n += 1
        jobs = jobs or wl.jobs
        ops = Ops(probe=probe and tracer is None)
        pass_dir = self.run_dir / f"pass-{self.n}"
        env = {"REPRO_JOBS": str(jobs), **wl.env}
        if "REPRO_OBS" in env:
            env["REPRO_OBS_DIR"] = str(pass_dir / "obs")
        saved_cache = self.evaluation.CACHE_DIR
        self.evaluation.CACHE_DIR = pass_dir / "cache"
        os.environ.update(env)
        self.obs.init_from_env()
        self.trace.init_from_env()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = wl.run(ops, seed, small, jobs)
            else:
                with tracer:
                    root = tracer.open("pass")
                    try:
                        out = wl.run(ops, seed, small, jobs)
                    finally:
                        tracer.close(root)
            wall = time.perf_counter() - t0
        finally:
            for key in env:
                os.environ.pop(key, None)
            self.obs.init_from_env()
            self.trace.init_from_env()
            self.evaluation.CACHE_DIR = saved_cache
        result = {"wall": wall, "out": out, "ops": ops}
        if "REPRO_OBS" in env:
            result["obs"] = obs_metrics(pass_dir / "obs", ops.total(0, scaled=False))
        shutil.rmtree(pass_dir, ignore_errors=True)
        return result


def obs_metrics(obs_dir: Path, wall: float) -> dict:
    """Telemetry the program wrote during an observed pass."""
    from collections import Counter

    from repro.obs.spantree import attribute, build_forest
    from repro.obs.summarize import read_events

    events = read_events(obs_dir) if obs_dir.exists() else []
    roots = [r for rs in build_forest(events).values() for r in rs if not r.synthetic]
    buckets: "Counter[str]" = Counter()
    for r in roots:
        buckets.update(attribute(r))
    kinds = Counter(e.get("kind") for e in events)
    return {
        "obs.events": len(events),
        "obs.bytes": sum(p.stat().st_size for p in obs_dir.glob("events.jsonl*")),
        "obs.trace_coverage": sum(r.wall_s for r in roots) / wall,
        "experiments.parallel.retries": kinds["engine.retry"],
        "experiments.parallel.failures": kinds["engine.fail"],
        "experiments.parallel.dispatch_s": buckets["dispatch"],
        "experiments.parallel.idle_s": buckets["idle"],
    }


def modelled_stats(out) -> dict:
    """Modelled statistics summed over a pass's simulations, plus accuracy."""
    fields = ("llc_hits", "llc_misses", "data_reads", "data_writes", "ecc_reads", "ecc_writes", "cycles")
    tot = {k: sum(s[k] for s in out.sims) for k in fields}
    llc = tot["llc_hits"] + tot["llc_misses"]
    data = tot["data_reads"] + tot["data_writes"]
    ecc = tot["ecc_reads"] + tot["ecc_writes"]
    return {
        "digest": out.digest,
        "cpu.llc.accesses": llc,
        "cpu.llc.hit_ratio": tot["llc_hits"] / llc if llc else None,
        "cpu.ecc_traffic.ecc_accesses": ecc,
        "cpu.ecc_traffic.ecc_share": ecc / (ecc + data) if ecc + data else None,
        "dram.data_accesses": data,
        "dram.sim_cycles": tot["cycles"],
        "paper_gap_pp": paper_gap_pp(out.headlines),
    }


def paper_gap_pp(headlines: "dict[str, float] | None") -> "float | None":
    """Mean absolute gap (pp) between reproduced and published headlines."""
    if headlines is None:
        return None
    from suite import PAPER_HEADLINES

    gaps = [
        abs(headlines[f"{fig}|{sc}|{b}|{p}|{base}"] - paper)
        for fig, sc, b, p, base, paper in PAPER_HEADLINES
    ]
    return sum(gaps) / len(gaps)


#: Per-layer self-time metrics -> the span whose self time they report
#: (``pass`` is the traced pass itself: time outside every layer).
SELF_TIMES = {
    "workloads.take_batch_s": "workloads.take_batch",
    "cpu.native_epoch_s": "cpu.native_epoch",
    "cpu.python_epoch_s": "cpu.python_epoch",
    "cpu.event_loop_s": "cpu.event_loop",
    "dram.power_s": "dram.power",
    "experiments.runner.build_s": "experiments.runner.build",
    "util.cachefile.write_s": "util.cachefile.write",
    "util.cachefile.read_s": "util.cachefile.read",
    "experiments.parallel.engine_s": "experiments.parallel",
    "experiments.task_s": "experiments.task",
    "gf.encode_s": "gf.encode",
    "gf.syndromes_s": "gf.syndromes",
    "gf.decode_s": "gf.decode",
    "ecc.correct_lines_s": "ecc.correct_lines",
    "ecc.checksum_s": "ecc.checksum",
    "core.machine.build_s": "core.machine.build",
    "core.machine.read_lines_s": "core.machine.read_lines",
    "faults.eol_mc_s": "faults.eol_mc",
    "faults.rareevent_s": "faults.rareevent",
    "unattributed_s": "pass",
}

#: Per-layer counts taken from the values the traced calls return.
COUNTS = (
    "workloads.refs",
    "cpu.sims",
    "cpu.events",
    "util.cachefile.writes",
    "util.cachefile.bytes_written",
    "experiments.parallel.tasks",
    "gf.encode_words",
    "gf.decode_words",
    "ecc.lines",
    "core.machine.lines_read",
    "faults.trials",
    "faults.ess",
)

#: Per-layer metrics read from the telemetry of an observed timed pass.
OBSERVED = (
    "experiments.parallel.retries",
    "experiments.parallel.failures",
    "experiments.parallel.dispatch_s",
    "experiments.parallel.idle_s",
    "obs.events",
    "obs.bytes",
    "obs.trace_coverage",
)


def layer_metrics(tracer, traced_wall: float, jobs: int, host_wall: float) -> dict:
    """Per-layer numbers of the traced pass (see :func:`metric_units`);
    *host_wall* is the timed passes' best-of-passes wall in host seconds."""
    t = tracer.layer_table()
    c = tracer.counts
    m = {metric: t[span] for metric, span in SELF_TIMES.items()}
    m.update({k: c.get(k, 0) for k in COUNTS})
    kernel_s = sum(m[k] for k in ("cpu.native_epoch_s", "cpu.python_epoch_s", "cpu.event_loop_s", "workloads.take_batch_s"))
    sims = m["cpu.sims"]
    m["cpu.events_per_s"] = m["cpu.events"] / kernel_s if kernel_s else None
    m["cpu.native_share"] = c.get("cpu.native_sims", 0) / sims if sims else None
    m["experiments.parallel.efficiency"] = traced_wall / (jobs * host_wall) if jobs > 1 else None
    m["trace.wall_s"] = traced_wall
    m["trace.attributed_share"] = 1.0 - m["unattributed_s"] / traced_wall
    m["trace.overhead"] = traced_wall / host_wall - 1.0 if jobs == 1 else None
    return m


def measure(
    runner: Runner,
    wl,
    seed: int,
    seconds: float,
    trace: bool,
    chrome: "Path | None",
    smoke: bool = False,
) -> dict:
    """All passes and checks of one workload; returns its report section.

    *smoke* runs every pass at the reduced warm-up size.
    """
    from spans import Tracer
    from suite import decode_check

    checks = Checks()
    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    setups = [runner.setup_launch(wl) for _ in range(SETUP_LAUNCHES)]
    phase("setup")
    runner.run_pass(wl, seed, small=True, probe=False)  # warm-up: imports, memos, allocator
    phase("warmup")
    timed = []
    while True:
        timed.append(runner.run_pass(wl, seed, small=smoke))
        if len(timed) >= MIN_PASSES and sum(p["wall"] for p in timed) >= seconds:
            break
    rss = peak_rss_mb()
    phase("timed")
    first = timed[0]["out"]

    for i, p in enumerate(timed[1:], 2):
        checks.add(f"pass {i} digest == pass 1 digest", p["out"].digest == first.digest)
    for label, ok in wl.committed_checks(seed, first, smoke, ROOT):
        checks.add(label, ok)
    for label, ok in wl.oracle(seed, first, smoke):
        checks.add(label, ok)
    checks.add("decode == decode_reference on 256 dirty words", decode_check(seed) == 0)
    phase("checks")

    ops = [p["ops"] for p in timed]
    operations = sum(p["out"].operations for p in timed)
    modelled = modelled_stats(first)
    wall = best_of_passes(ops, 0)
    e2e = {
        "wall_s": summary([o.total(0) for o in ops], wall),
        "cpu_s": summary([o.total(1) for o in ops], best_of_passes(ops, 1)),
        "setup_s": summary([scaled for _, scaled in setups]),
        "peak_rss_mb": summary([rss]),
    }
    if wl.simulates:
        minst = [first.instructions / o.total(0) / 1e6 for o in ops]
        e2e["sim_minst_per_s"] = summary(minst, first.instructions / wall / 1e6)
    host_wall = best_of_passes(ops, 0, scaled=False)
    section = {
        "why": wl.why,
        "jobs": wl.jobs,
        "passes": len(timed),
        "end_to_end": e2e,
        # The same times in unscaled host seconds, and the probe's scale factors.
        "host_s": {
            "wall_s": summary([o.total(0, scaled=False) for o in ops], host_wall),
            "cpu_s": summary([o.total(1, scaled=False) for o in ops], best_of_passes(ops, 1, scaled=False)),
            "setup_s": summary([raw for raw, _ in setups]),
            "scale": summary([c[2] for o in ops for c in o.calls]),
        },
        "modelled": modelled,
    }
    obs = timed[-1].get("obs", {})
    if trace:
        tracer = Tracer()
        traced = runner.run_pass(wl, seed, small=smoke, jobs=1, tracer=tracer)
        checks.add("serial traced digest == timed digest", traced["out"].digest == first.digest)
        per_layer = layer_metrics(tracer, traced["wall"], wl.jobs, host_wall)
        per_layer.update({k: obs.get(k) for k in OBSERVED})
        per_layer.update({k: modelled[k] for k in MODELLED})
        section["per_layer"] = per_layer
        section["unpatched"] = tracer.missing
        if chrome is not None:
            tracer.write_chrome(chrome)
        phase("traced")
    section["phases_s"] = phases
    attempted = operations + checks.attempted
    failed = len(checks.failures)
    section["fail_frac"] = failed / attempted
    section["checks"] = {"attempted": attempted, "failed": failed, "failures": checks.failures}
    return section


def print_section(name: str, section: dict, units: "dict[str, str]") -> None:
    print(f"\n== {name}  (jobs={section['jobs']}, {section['passes']} timed passes)")
    for metric, s in section["end_to_end"].items():
        print(
            f"  {metric:18s} {s['value']:12.4f} {units[metric]:8s}"
            f" samples q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}"
        )
    pl = section.get("per_layer")
    if pl:
        wall = pl["trace.wall_s"]
        print(f"  self time by layer, serial traced pass of {wall:.3f} s:")
        for k in sorted(SELF_TIMES, key=lambda k: -pl[k]):
            if pl[k]:
                print(f"    {k:34s} {pl[k]:9.4f} s {100 * pl[k] / wall:6.1f}%")
        for k, v in pl.items():
            if k not in SELF_TIMES:
                shown = "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
                print(f"    {k:34s} {shown} {units[k]}")
    ch = section["checks"]
    status = "ok" if not ch["failed"] else "FAILED: " + "; ".join(ch["failures"][:5])
    print(f"  checks: {ch['attempted']} attempted, {ch['failed']} failed ({status})")


def layer_values(section: dict) -> dict:
    """Every value reported with ``--trace 1`` (None where not applicable)."""
    return dict(
        section.get("per_layer", {}),
        fail_frac=section["fail_frac"],
        sim_minst_per_s=section["end_to_end"].get("sim_minst_per_s", {}).get("value"),
    )


def result_line(sections: "dict[str, dict]", trace: bool, correct: bool) -> dict:
    """The contract line: every end-to-end (or per-layer) metric by name."""
    e2e_units, layer_units = metric_units()
    metrics = {}
    for name, section in sections.items():
        prefix = "" if len(sections) == 1 else f"{name}."
        if trace:
            values, table = layer_values(section), layer_units
        else:
            values = {k: s["value"] for k, s in section["end_to_end"].items()}
            table = e2e_units
        for metric, unit in table.items():
            value = values.get(metric)
            metrics[prefix + metric] = {"value": 0 if value is None else value, "unit": unit}
    return {
        "correct": correct,
        "attempted": sum(s["checks"]["attempted"] for s in sections.values()) or 1,
        "failed": sum(s["checks"]["failed"] for s in sections.values()),
        "metrics": metrics,
    }


def run_child(args, name: str, run_dir: Path) -> "dict | None":
    """Measure one workload in its own interpreter; returns its section.

    Each workload gets a fresh process (memos, allocator), and its peak RSS
    counts only the passes and their pool workers: not the compiler that
    built the native cores, nor another workload.
    """
    out = run_dir / f"{name}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--child", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    if args.chrome is not None:
        chrome = args.chrome.resolve()
        if len(args.workload or ()) != 1:
            chrome = chrome.with_name(f"{chrome.stem}.{name}{chrome.suffix or '.json'}")
        cmd += ["--chrome", str(chrome)]
    code = subprocess.run(cmd).returncode
    if not out.exists():
        print(f"error: workload {name} exited {code} without a report", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", help="workload name(s); default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                        help=f"timed pass seconds per workload (at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a serial traced pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full report (JSON) here")
    parser.add_argument("--chrome", type=Path, help="write the traced pass as Chrome trace JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="run every pass at the reduced warm-up size (checks the benchmark itself)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # measure here, section to FILE
    args = parser.parse_args(argv)

    run_dir = prepare_environment()
    try:
        from suite import WORKLOADS

        names = args.workload or list(WORKLOADS)
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
        if args.child is not None:
            (name,) = names
            try:
                section = measure(
                    Runner(run_dir), WORKLOADS[name], args.seed, args.seconds,
                    bool(args.trace), args.chrome, args.smoke,
                )
            except Exception:
                traceback.print_exc()
                print(f"error: workload {name} failed", file=sys.stderr)
                return 1
            e2e_units, layer_units = metric_units()
            print_section(name, section, {**layer_units, **e2e_units})
            args.child.write_text(json.dumps(section))
            return 0

        from repro.cpu import epochnative
        from repro.gf import rsnative

        epochnative.available()  # build the native cores before any workload runs
        rsnative.available()
        sections = {name: run_child(args, name, run_dir) for name in names}
        if None in sections.values():
            return 1
        correct = not any(s["checks"]["failed"] for s in sections.values())
        if args.out is not None:
            report = {
                "host": host_info(),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": bool(args.trace),
                "smoke": args.smoke,
                "workloads": sections,
            }
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result_line(sections, bool(args.trace), correct)))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
