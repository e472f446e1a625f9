"""Telemetry-plane overhead benchmarks.

Not a paper figure - this guards the zero-cost claim of ``repro.obs``:
with ``REPRO_OBS`` unset (the shipping default) the instrumentation in
the simulation loop and the Monte Carlo kernel must cost < 2% of either
kernel's wall-clock.  The disabled path is a handful of gate checks per
run (one ``obs.enabled`` call per simulation, one per MC run plus a
local-bool branch per 65k-trial chunk), so the bound is proven directly:
measure the per-call cost of a disarmed gate, multiply by the number of
gate sites a kernel run touches, and divide by the kernel's wall-clock.
That product is deterministic - it cannot flake on a loaded runner the
way a sub-2% wall-clock A/B comparison would.

The armed path is measured too and recorded alongside, with a loose
sanity bound: arming records events and spans together, and their
volume on these kernels is a few records per sim run and per MC chunk,
so even the enabled path should stay within a few percent.  Two things
would otherwise swamp that share:

* each armed run also pays a fixed 0.1-0.5 ms (the first emit creates
  the run directory and opens the stream), close to the bound on a
  ~1.5 ms quick-mode compiled run, so the epoch leg runs
  :data:`ARMED_EPOCH_SCALE` times the other legs' budget;
* runs of one cell drift by 10-40% within a process on a shared host,
  which a best-of-reps comparison reads as overhead, so each leg takes
  the median, over :data:`ARMED_REPS` adjacent disarmed/armed pairs
  (alternating which runs first), of each pair's overhead.

The span plane (``repro.obs.trace``) gets the same treatment: with the
bus disarmed every ``trace.span(...)`` site hands back a shared no-op
singleton, so the disabled-path bound is again proven directly -
per-site cost of a disarmed span gate times the span sites a kernel run
touches (one ``sim.run`` per simulation, one ``sim.epoch`` per epoch
dispatch, one ``mc.run`` per MC run), divided by the kernel wall.  The
``trace_disabled`` section is enforced by ``perf_guard.py``'s CEILINGS
table at < 2% on both kernels.

Numbers land in ``results/BENCH_obs_overhead.json`` (plus a rendered
table).  ``REPRO_BENCH_QUICK=1`` shrinks the budgets for CI.
"""

import statistics
import time
from pathlib import Path

from conftest import merge_results, once

from repro import obs
from repro.ecc.catalog import SYSTEM_CLASSES
from repro.experiments.report import format_table
from repro.experiments.runner import RunSpec, build_system
from repro.faults.montecarlo import DEFAULT_CHUNK, EolCapacitySim
from repro.util import envcfg
from repro.workloads.profiles import WORKLOADS_BY_NAME

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

#: The acceptance bar: disabled-path telemetry overhead on either kernel.
DISABLED_OVERHEAD_BUDGET_PCT = 2.0

#: Sanity bound for the *armed* path (not the acceptance bar): one event
#: per sim run / MC chunk plus an O(chunk) running-sum update.  Loose so a
#: loaded CI runner cannot flake it.
ENABLED_OVERHEAD_SANITY_PCT = 25.0

SIM_INSTRUCTIONS = 60_000 if QUICK_MODE else 250_000
#: The armed-path epoch leg runs this many times SIM_INSTRUCTIONS.
ARMED_EPOCH_SCALE = 20
MC_TRIALS = 200_000 if QUICK_MODE else 1_000_000
REPS = 3 if QUICK_MODE else 5
#: Interleaved disarmed/armed pairs per kernel on the armed path.
ARMED_REPS = 3 * REPS

#: Iterations for timing a single disarmed gate call.
GATE_CALLS = 200_000


def _merge(results_dir, **fields):
    merge_results(results_dir, "BENCH_obs_overhead.json", **fields)


def _sim_kernel(kernel: "str | None" = None, instructions: int = SIM_INSTRUCTIONS) -> float:
    """One timing simulation (mcf, quad lot_ecc5_ep); returns wall seconds."""
    spec = RunSpec(
        WORKLOADS_BY_NAME["mcf"],
        SYSTEM_CLASSES["quad"]["lot_ecc5_ep"],
        warmup_instructions=instructions,
        measure_instructions=instructions,
        seed=0,
        scale=32,
    )
    system = build_system(spec)
    t0 = time.perf_counter()
    system.run(spec.resolved_warmup, spec.resolved_measure, kernel=kernel)
    return time.perf_counter() - t0


def _sim_event() -> float:
    return _sim_kernel("event")


def _sim_epoch() -> float:
    return _sim_kernel("epoch")


def _sim_epoch_long() -> float:
    return _sim_kernel("epoch", ARMED_EPOCH_SCALE * SIM_INSTRUCTIONS)


def _mc_kernel() -> float:
    """One vectorized Figure 8 MC run; returns wall seconds."""
    t0 = time.perf_counter()
    EolCapacitySim(seed=0).run(trials=MC_TRIALS)
    return time.perf_counter() - t0


def _disarmed_gate_cost_s() -> float:
    """Per-call wall cost of a disarmed gate site (enabled check + no-op emit).

    This is the *entire* per-site price the instrumentation adds when
    ``REPRO_OBS`` is unset; charging every site this much is a strict
    upper bound (most sites are a branch on an already-computed bool).
    """
    assert not obs.enabled()
    t0 = time.perf_counter()
    for _ in range(GATE_CALLS):
        obs.enabled()
        obs.emit("bench.noop")
    return (time.perf_counter() - t0) / (2 * GATE_CALLS)


def _armed(kernel, run_dir: Path) -> float:
    obs.configure(run_dir)
    try:
        return kernel()
    finally:
        obs.disarm()


def _interleaved(kernel, tmp: Path) -> "tuple[float, float, float]":
    """*kernel* run disarmed and armed, ARMED_REPS pairs, alternating which
    runs first: median disarmed and armed walls, and the median per-pair
    armed overhead in percent."""
    pairs = []
    for rep in range(ARMED_REPS):
        obs.disarm()
        if rep % 2:
            on = _armed(kernel, tmp / f"rep{rep}")
            pairs.append((kernel(), on))
        else:
            off = kernel()
            pairs.append((off, _armed(kernel, tmp / f"rep{rep}")))
    offs, ons = zip(*pairs)
    pct = statistics.median(100.0 * (on - off) / off for off, on in pairs)
    return statistics.median(offs), statistics.median(ons), pct


def bench_obs_disabled_path(benchmark, results_dir, emit):
    """Disabled-path overhead: gate sites x gate cost vs kernel wall."""
    from repro.cpu import epochnative

    epochnative.available()  # compile the epoch core outside timed regions
    obs.disarm()

    def measure():
        gate_s = _disarmed_gate_cost_s()
        sim_wall = min(_sim_event() for _ in range(REPS))
        epoch_wall = min(_sim_epoch() for _ in range(REPS))
        mc_wall = min(_mc_kernel() for _ in range(REPS))
        return gate_s, sim_wall, epoch_wall, mc_wall

    gate_s, sim_wall, epoch_wall, mc_wall = once(benchmark, measure)
    # Gate sites per kernel run (see module docstring): the sim loop checks
    # once per run and would emit once (both kernels share the contract);
    # the MC loop checks once per run and branches once per chunk (charged
    # as full gate calls - upper bound).
    sim_sites = 2
    mc_sites = 1 + -(-MC_TRIALS // DEFAULT_CHUNK)
    sim_pct = 100.0 * sim_sites * gate_s / sim_wall
    epoch_pct = 100.0 * sim_sites * gate_s / epoch_wall
    mc_pct = 100.0 * mc_sites * gate_s / mc_wall
    _merge(
        results_dir,
        disabled_path={
            "gate_cost_ns": round(gate_s * 1e9, 1),
            "sim": {
                "wall_s": round(sim_wall, 4),
                "gate_sites": sim_sites,
                "overhead_pct": round(sim_pct, 6),
            },
            "sim_epoch": {
                "wall_s": round(epoch_wall, 4),
                "gate_sites": sim_sites,
                "overhead_pct": round(epoch_pct, 6),
            },
            "mc": {
                "wall_s": round(mc_wall, 4),
                "gate_sites": mc_sites,
                "overhead_pct": round(mc_pct, 6),
            },
            "budget_pct": DISABLED_OVERHEAD_BUDGET_PCT,
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_obs_disabled",
        format_table(
            ["kernel", "wall s", "gate sites", "overhead %"],
            [
                ["simloop (event)", f"{sim_wall:.3f}", f"{sim_sites}", f"{sim_pct:.6f}"],
                ["simloop (epoch)", f"{epoch_wall:.3f}", f"{sim_sites}", f"{epoch_pct:.6f}"],
                ["monte carlo", f"{mc_wall:.3f}", f"{mc_sites}", f"{mc_pct:.6f}"],
            ],
            title=f"Telemetry disabled-path overhead (gate call {gate_s * 1e9:.0f} ns)",
        ),
    )
    assert sim_pct < DISABLED_OVERHEAD_BUDGET_PCT, f"sim disabled path {sim_pct:.4f}%"
    assert epoch_pct < DISABLED_OVERHEAD_BUDGET_PCT, f"epoch disabled path {epoch_pct:.4f}%"
    assert mc_pct < DISABLED_OVERHEAD_BUDGET_PCT, f"mc disabled path {mc_pct:.4f}%"


def _disarmed_span_cost_s() -> float:
    """Per-call wall cost of a disarmed span site (``with trace.span(...)``).

    With the bus disarmed the call returns the shared no-op span, so this
    times the entire per-site price: the gate branch, the singleton
    return, and the context-manager enter/exit.
    """
    from repro.obs import trace

    assert not obs.enabled()
    t0 = time.perf_counter()
    for _ in range(GATE_CALLS):
        with trace.span("bench.noop", "compute"):
            pass
    return (time.perf_counter() - t0) / GATE_CALLS


def bench_trace_disabled_path(benchmark, results_dir, emit):
    """Span-plane disabled-path overhead: span sites x gate cost vs wall."""
    from repro.cpu import epochnative

    epochnative.available()  # compile the epoch core outside timed regions
    obs.disarm()

    def measure():
        gate_s = _disarmed_span_cost_s()
        sim_wall = min(_sim_event() for _ in range(REPS))
        epoch_wall = min(_sim_epoch() for _ in range(REPS))
        mc_wall = min(_mc_kernel() for _ in range(REPS))
        return gate_s, sim_wall, epoch_wall, mc_wall

    gate_s, sim_wall, epoch_wall, mc_wall = once(benchmark, measure)
    # Span sites per kernel run: the event simulator opens one ``sim.run``
    # span; the epoch simulator adds one ``sim.epoch`` per (single) epoch
    # dispatch; the MC kernel opens one ``mc.run`` around its chunk loop.
    sim_sites, epoch_sites, mc_sites = 1, 2, 1
    sim_pct = 100.0 * sim_sites * gate_s / sim_wall
    epoch_pct = 100.0 * epoch_sites * gate_s / epoch_wall
    mc_pct = 100.0 * mc_sites * gate_s / mc_wall
    _merge(
        results_dir,
        trace_disabled={
            "span_gate_ns": round(gate_s * 1e9, 1),
            "sim_wall_s": round(sim_wall, 4),
            "sim_overhead_pct": round(sim_pct, 6),
            "sim_epoch_wall_s": round(epoch_wall, 4),
            "sim_epoch_overhead_pct": round(epoch_pct, 6),
            "mc_wall_s": round(mc_wall, 4),
            "mc_overhead_pct": round(mc_pct, 6),
            "budget_pct": DISABLED_OVERHEAD_BUDGET_PCT,
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_trace_disabled",
        format_table(
            ["kernel", "wall s", "span sites", "overhead %"],
            [
                ["simloop (event)", f"{sim_wall:.3f}", f"{sim_sites}", f"{sim_pct:.6f}"],
                ["simloop (epoch)", f"{epoch_wall:.3f}", f"{epoch_sites}", f"{epoch_pct:.6f}"],
                ["monte carlo", f"{mc_wall:.3f}", f"{mc_sites}", f"{mc_pct:.6f}"],
            ],
            title=f"Span-plane disabled-path overhead (span gate {gate_s * 1e9:.0f} ns)",
        ),
    )
    assert sim_pct < DISABLED_OVERHEAD_BUDGET_PCT, f"sim trace-off path {sim_pct:.4f}%"
    assert epoch_pct < DISABLED_OVERHEAD_BUDGET_PCT, f"epoch trace-off path {epoch_pct:.4f}%"
    assert mc_pct < DISABLED_OVERHEAD_BUDGET_PCT, f"mc trace-off path {mc_pct:.4f}%"


def bench_obs_enabled_overhead(benchmark, results_dir, emit, tmp_path):
    """Armed-vs-disarmed wall on all kernels, plus the no-emit guarantee."""
    from repro.cpu import epochnative

    epochnative.available()  # compile the epoch core outside timed regions
    obs.disarm()

    def measure():
        sim = _interleaved(_sim_event, tmp_path / "sim")
        epoch = _interleaved(_sim_epoch_long, tmp_path / "sim_epoch")
        mc = _interleaved(_mc_kernel, tmp_path / "mc")
        return sim, epoch, mc

    (sim_off, sim_on, sim_pct), (ep_off, ep_on, ep_pct), (mc_off, mc_on, mc_pct) = once(
        benchmark, measure
    )
    armed_events = sum(
        1
        for rep in (
            list((tmp_path / "sim").glob("rep*"))
            + list((tmp_path / "sim_epoch").glob("rep*"))
            + list((tmp_path / "mc").glob("rep*"))
        )
        for _ in (rep / obs.EVENTS_FILE).read_text().splitlines()
    )
    _merge(
        results_dir,
        enabled_path={
            "sim": {
                "disarmed_wall_s": round(sim_off, 4),
                "armed_wall_s": round(sim_on, 4),
                "overhead_pct": round(sim_pct, 2),
            },
            "sim_epoch": {
                "instructions": ARMED_EPOCH_SCALE * SIM_INSTRUCTIONS,
                "disarmed_wall_s": round(ep_off, 4),
                "armed_wall_s": round(ep_on, 4),
                "overhead_pct": round(ep_pct, 2),
            },
            "mc": {
                "disarmed_wall_s": round(mc_off, 4),
                "armed_wall_s": round(mc_on, 4),
                "overhead_pct": round(mc_pct, 2),
            },
            "armed_events": armed_events,
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_obs_enabled",
        format_table(
            ["kernel", "disarmed s", "armed s", "overhead %"],
            [
                ["simloop (event)", f"{sim_off:.3f}", f"{sim_on:.3f}", f"{sim_pct:+.2f}"],
                ["simloop (epoch)", f"{ep_off:.3f}", f"{ep_on:.3f}", f"{ep_pct:+.2f}"],
                ["monte carlo", f"{mc_off:.3f}", f"{mc_on:.3f}", f"{mc_pct:+.2f}"],
            ],
            title="Telemetry armed-path overhead (medians of interleaved pairs)",
        ),
    )
    # Armed runs must actually emit; disarmed reps left no stream anywhere.
    assert armed_events > 0
    assert len(list(tmp_path.rglob(obs.EVENTS_FILE))) == 3 * ARMED_REPS
    assert sim_pct < ENABLED_OVERHEAD_SANITY_PCT, f"sim armed path {sim_pct:.1f}%"
    assert ep_pct < ENABLED_OVERHEAD_SANITY_PCT, f"epoch armed path {ep_pct:.1f}%"
    assert mc_pct < ENABLED_OVERHEAD_SANITY_PCT, f"mc armed path {mc_pct:.1f}%"
