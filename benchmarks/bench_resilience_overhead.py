"""Resilience-layer overhead and recovery-cost benchmarks.

Not a paper figure - this guards the engineering claims of the resilient
campaign engine (`repro.experiments.parallel`): the retry/timeout/rebuild
machinery must cost essentially nothing on a clean run, and a full chaos
storm (crash + hang + corrupt in one campaign) must still converge on the
bit-identical fault-free result in bounded wall-clock.  Numbers land in
``results/BENCH_resilience.json`` (plus a rendered table) so CI can
archive them per commit.

``REPRO_BENCH_QUICK=1`` (used by CI) shrinks the task/trial budgets so the
file finishes in seconds; the acceptance numbers come from an unloaded run
without the flag.
"""

import time

from conftest import merge_results, once

from repro.experiments import parallel
from repro.experiments.report import format_table
from repro.faults.montecarlo import _eol_cell
from repro.util import envcfg

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

#: Campaign shape: TASKS Figure 8 cells of TRIALS trials each.
TASKS = 12 if QUICK_MODE else 32
TRIALS = 2_000 if QUICK_MODE else 20_000
JOBS = 4

#: One fault of each class in a single campaign.  Defaults (attempt 1)
#: mean every fault clears on retry, so the storm must converge.  The hang
#: sits past the first submission window so it is still on attempt 1 when
#: the crash-triggered rebuild happens - forcing the engine through the
#: timeout path as well, not just the BrokenProcessPool path.
CHAOS_STORM = "crash@1,hang=30@10,corrupt@0"
STORM_TIMEOUT = 1.0 if QUICK_MODE else 5.0

PAYLOADS = [(2, TRIALS, seed, 61320.0, 1 << 16) for seed in range(TASKS)]


def _merge_results(results_dir, **fields):
    merge_results(results_dir, "BENCH_resilience.json", **fields)


def bench_resilience_overhead(benchmark, results_dir, emit):
    """Serial vs clean pooled vs chaos-storm campaign wall-clock."""

    def measure():
        t0 = time.perf_counter()
        serial = list(parallel.run_tasks(_eol_cell, PAYLOADS, jobs=1))
        serial_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        clean = list(
            parallel.run_tasks(_eol_cell, PAYLOADS, jobs=JOBS, timeout=30, retries=2)
        )
        clean_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        stormed = list(
            parallel.run_tasks(
                _eol_cell,
                PAYLOADS,
                jobs=JOBS,
                timeout=STORM_TIMEOUT,
                retries=2,
                backoff=0,
                chaos=CHAOS_STORM,
            )
        )
        storm_wall = time.perf_counter() - t0

        # Every recovery path must land on the fault-free serial bytes.
        assert sorted(clean) == sorted(serial)
        assert sorted(stormed) == sorted(serial)
        return serial_wall, clean_wall, storm_wall

    serial_wall, clean_wall, storm_wall = once(benchmark, measure)
    recovery_cost = storm_wall - clean_wall
    _merge_results(
        results_dir,
        campaign={
            "tasks": TASKS,
            "trials_per_task": TRIALS,
            "jobs": JOBS,
            "chaos": CHAOS_STORM,
            "storm_timeout_s": STORM_TIMEOUT,
            "serial_wall_s": round(serial_wall, 4),
            "clean_pooled_wall_s": round(clean_wall, 4),
            "chaos_storm_wall_s": round(storm_wall, 4),
            "recovery_cost_s": round(recovery_cost, 4),
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_resilience",
        format_table(
            ["metric", "value"],
            [
                ["campaign", f"{TASKS} cells x {TRIALS:,} trials"],
                ["serial wall s", f"{serial_wall:.3f}"],
                [f"clean pooled wall s (jobs={JOBS})", f"{clean_wall:.3f}"],
                ["chaos-storm wall s (crash+hang+corrupt)", f"{storm_wall:.3f}"],
                ["recovery cost s", f"{recovery_cost:.3f}"],
            ],
            title="Resilient campaign engine: clean overhead and chaos recovery cost",
        ),
    )
    # Recovery is bounded: one timeout window, one pool rebuild, retried
    # cells.  Anything past serial + timeout + slack means the engine is
    # thrashing (rebuild loops, lost work) rather than recovering.
    assert storm_wall < serial_wall + STORM_TIMEOUT + 30.0, (
        f"chaos recovery too slow: {storm_wall:.1f}s vs serial {serial_wall:.1f}s"
    )
