"""Reliability-plane throughput benchmarks.

Not a paper figure - this guards the performance claims of the batched
reliability plane: the vectorized Figure 8 Monte Carlo (``run_plain``)
against its retained per-event reference kernel, and the batched scrub
pass against the per-line one, plus (outside quick mode) a 1M-trial
Figure 8 convergence check against the default 20k-trial run.  Numbers land in
``results/BENCH_mc_throughput.json`` (plus a rendered table) so CI can
archive them per commit.

``REPRO_BENCH_QUICK=1`` (used by CI) shrinks the trial budgets so the file
finishes in seconds; the acceptance numbers come from an unloaded run
without the flag.
"""

import time

from conftest import merge_results, once

from repro.core.layout import Geometry
from repro.core.machine import ECCParityMachine
from repro.ecc.lot_ecc import LotEcc5
from repro.experiments.report import format_table
from repro.faults.fit_rates import FaultMode
from repro.faults.injector import FaultInjector
from repro.faults.montecarlo import (
    EolCapacitySim,
    _chunk_reference,
    _draw_chunk,
    eol_fraction_by_channels,
)
from repro.faults.rareevent import Z95, run_plain
from repro.util import envcfg

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

#: Trial budgets for the batched-vs-reference Figure 8 MC measurement.
#: The batched budget must be large enough to amortize per-chunk setup,
#: or the measured speedup understates the steady-state rate.
BATCHED_TRIALS = 200_000 if QUICK_MODE else 1_000_000
REFERENCE_TRIALS = 5_000 if QUICK_MODE else 20_000

#: Fresh machine builds per scrub measurement (wall is summed over them).
SCRUB_REPS = 5 if QUICK_MODE else 20

#: Converged Figure 8 run (full mode only).
CONVERGED_TRIALS = 1_000_000


def _merge_results(results_dir, **fields):
    merge_results(results_dir, "BENCH_mc_throughput.json", **fields)


def bench_fig8_mc_throughput(benchmark, results_dir, emit):
    """Vectorized EOL Monte Carlo vs the per-event reference kernel."""

    def measure():
        t0 = time.perf_counter()
        result = run_plain(EolCapacitySim(seed=0), trials=BATCHED_TRIALS)
        batched_wall = time.perf_counter() - t0
        # The reference leg: one chunk of the same draw contract, walked
        # event by event (REFERENCE_TRIALS fits in one default chunk).
        t0 = time.perf_counter()
        sim = EolCapacitySim(seed=0)
        draws = _draw_chunk(sim.rng, sim.org, sim._lambdas(), REFERENCE_TRIALS)
        _chunk_reference(sim.org, draws, REFERENCE_TRIALS)
        reference_wall = time.perf_counter() - t0
        return batched_wall, reference_wall, result

    batched_wall, reference_wall, result = once(benchmark, measure)
    batched_rate = BATCHED_TRIALS / batched_wall
    reference_rate = REFERENCE_TRIALS / reference_wall
    speedup = batched_rate / reference_rate
    # Statistical efficiency alongside raw throughput: the 95% CI
    # half-width this run actually achieved on the mean, and the plain-MC
    # effective trials/sec (for plain MC the two rates coincide; the
    # rare-event bench reports how far variance reduction lifts it).
    ci_halfwidth = Z95 * result.se_mean
    _merge_results(
        results_dir,
        fig8_mc={
            "batched_trials": BATCHED_TRIALS,
            "batched_wall_s": round(batched_wall, 4),
            "batched_trials_per_sec": round(batched_rate),
            "reference_trials": REFERENCE_TRIALS,
            "reference_wall_s": round(reference_wall, 4),
            "reference_trials_per_sec": round(reference_rate),
            "speedup": round(speedup, 2),
            "mean_fraction": round(result.mean, 8),
            "ci_halfwidth_mean": float(f"{ci_halfwidth:.3e}"),
            "effective_trials_per_sec": round(batched_rate),
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_mc_fig8",
        format_table(
            ["metric", "value"],
            [
                ["batched trials / second", f"{batched_rate:,.0f}"],
                ["reference trials / second", f"{reference_rate:,.0f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
            title="Figure 8 Monte Carlo throughput, batched vs per-event reference",
        ),
    )
    # The acceptance bar for the vectorized hot path.
    assert speedup >= 5.0, f"batched MC only {speedup:.1f}x over reference"


def _dirty_machine() -> ECCParityMachine:
    """The default test geometry with a mixed fault load for scrubbing."""
    g = Geometry(channels=4, banks=4, rows_per_bank=12, lines_per_row=8)
    m = ECCParityMachine(LotEcc5(), g, seed=7)
    inj = FaultInjector(m, seed=11)
    inj.inject(FaultMode.SINGLE_BANK, location=(0, 1, 2))
    inj.inject(FaultMode.SINGLE_ROW, location=(1, 2, 0))
    inj.inject(FaultMode.SINGLE_COLUMN, location=(2, 3, 1))
    inj.inject(FaultMode.SINGLE_WORD, location=(3, 0, 3), transient=True)
    return m


def bench_scrub_throughput(benchmark, results_dir, emit):
    """Batched scrub pass vs the per-line reference on the default geometry."""

    def measure():
        reference_wall = batched_wall = 0.0
        reference_found = batched_found = 0
        for _ in range(SCRUB_REPS):
            ref = _dirty_machine()
            t0 = time.perf_counter()
            reference_found += ref._scrub_reference(repair=True)
            reference_wall += time.perf_counter() - t0
            fast = _dirty_machine()
            t0 = time.perf_counter()
            batched_found += fast.scrub(repair=True)
            batched_wall += time.perf_counter() - t0
        assert reference_found == batched_found
        return reference_wall, batched_wall, batched_found // SCRUB_REPS

    reference_wall, batched_wall, dirty_lines = once(benchmark, measure)
    speedup = reference_wall / batched_wall
    _merge_results(
        results_dir,
        scrub={
            "geometry": "4ch x 4banks x 12rows x 8lines",
            "dirty_lines_per_pass": dirty_lines,
            "passes": SCRUB_REPS,
            "reference_wall_s": round(reference_wall, 4),
            "batched_wall_s": round(batched_wall, 4),
            "speedup": round(speedup, 2),
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_mc_scrub",
        format_table(
            ["metric", "value"],
            [
                ["dirty lines per pass", f"{dirty_lines}"],
                ["reference wall s", f"{reference_wall:.3f}"],
                ["batched wall s", f"{batched_wall:.3f}"],
                ["speedup", f"{speedup:.2f}x"],
            ],
            title="Scrub pass wall-clock, batched vs per-line reference",
        ),
    )
    assert batched_wall < reference_wall, (
        f"batched scrub slower: {batched_wall:.3f}s vs {reference_wall:.3f}s"
    )


def bench_fig8_convergence(benchmark, results_dir, emit):
    """1M-trial Figure 8 agrees with the default 20k-trial run (full mode)."""
    if QUICK_MODE:
        import pytest

        pytest.skip("convergence check runs only without REPRO_BENCH_QUICK")

    def measure():
        small = eol_fraction_by_channels([2, 4, 8, 16], trials=20_000, seed=0)
        big = eol_fraction_by_channels([2, 4, 8, 16], trials=CONVERGED_TRIALS, seed=0)
        return (
            {n: r.mean for n, r in small.items()},
            {n: r.mean for n, r in big.items()},
            {n: r.percentile(99.9) for n, r in big.items()},
        )

    small_mean, big_mean, big_p999 = once(benchmark, measure)
    _merge_results(
        results_dir,
        fig8_convergence={
            "trials": CONVERGED_TRIALS,
            "mean_20k": {str(n): round(v, 6) for n, v in small_mean.items()},
            "mean_1m": {str(n): round(v, 6) for n, v in big_mean.items()},
            "p999_1m": {str(n): round(v, 6) for n, v in big_p999.items()},
        },
    )
    emit(
        "bench_mc_fig8_convergence",
        format_table(
            ["channels", "mean (20k)", "mean (1M)", "99.9th pct (1M)"],
            [
                [n, f"{small_mean[n]:.4%}", f"{big_mean[n]:.4%}", f"{big_p999[n]:.3%}"]
                for n in sorted(big_mean)
            ],
            title="Figure 8 convergence: 1M-trial means vs the default 20k run",
        ),
    )
    for n in big_mean:
        assert abs(big_mean[n] - small_mean[n]) < 2e-3, (n, small_mean[n], big_mean[n])
        assert big_mean[n] < 0.01
