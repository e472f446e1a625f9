"""Supervisor overhead and resume-economics benchmarks.

Not a paper figure - this guards the engineering claim of the durable
campaign supervisor (`repro.experiments.supervisor`): journaling every
grant and settlement must cost essentially nothing on a clean run
(<2% of campaign wall-clock, enforced by ``perf_guard.py`` as a
``throughput_ratio`` floor), and resuming a completed campaign must be a
pure journal replay - no engine, no recomputation.  Numbers land in
``results/BENCH_supervisor.json`` (plus a rendered table) so CI can
archive them per commit.

``REPRO_BENCH_QUICK=1`` (used by CI) shrinks the task/trial budgets so the
file finishes in seconds; the acceptance numbers come from an unloaded run
without the flag.
"""

import shutil
import time

from conftest import merge_results, once

from repro.experiments import parallel, supervisor
from repro.experiments.report import format_table
from repro.faults.montecarlo import _eol_cell
from repro.util import envcfg

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

#: Campaign shape: TASKS Figure 8 cells of TRIALS trials each.
TASKS = 12 if QUICK_MODE else 32
TRIALS = 2_000 if QUICK_MODE else 20_000
JOBS = 4

PAYLOADS = [(2, TRIALS, seed, 61320.0, 1 << 16) for seed in range(TASKS)]

#: Campaign walls are fractions of a second, so each variant is timed
#: best-of-REPS - the minimum is the least-noise estimate of true cost.
REPS = 1 if QUICK_MODE else 5


def _merge_results(results_dir, **fields):
    merge_results(results_dir, "BENCH_supervisor.json", **fields)


def bench_supervisor_overhead(benchmark, results_dir, emit, tmp_path):
    """Raw engine vs supervised campaign vs pure journal replay wall-clock."""
    state = tmp_path / "supervisor-state"

    def measure():
        raw_wall = supervised_wall = replay_wall = float("inf")
        raw = supervised = replayed = None
        for _ in range(REPS):
            t0 = time.perf_counter()
            raw = list(
                parallel.run_tasks(_eol_cell, PAYLOADS, jobs=JOBS, timeout=60, retries=2)
            )
            raw_wall = min(raw_wall, time.perf_counter() - t0)

            shutil.rmtree(state, ignore_errors=True)
            t0 = time.perf_counter()
            supervised = supervisor.run_campaign(
                _eol_cell,
                PAYLOADS,
                name="bench",
                directory=state,
                jobs=JOBS,
                timeout=60,
                retries=2,
            )
            supervised_wall = min(supervised_wall, time.perf_counter() - t0)

            # Resume of a finished campaign: replay the journal, launch nothing.
            t0 = time.perf_counter()
            replayed = supervisor.run_campaign(
                _eol_cell,
                PAYLOADS,
                name="bench",
                directory=state,
                jobs=JOBS,
                timeout=60,
                retries=2,
            )
            replay_wall = min(replay_wall, time.perf_counter() - t0)

        # The supervised and replayed campaigns must land on the raw bytes.
        assert sorted(supervised) == sorted(raw)
        assert replayed == supervised
        stats = supervisor.journal_stats(state / "bench.journal")
        assert stats["settled"] == TASKS and stats["settled_live"] == TASKS
        return raw_wall, supervised_wall, replay_wall

    raw_wall, supervised_wall, replay_wall = once(benchmark, measure)
    ratio = raw_wall / supervised_wall if supervised_wall else float("inf")
    _merge_results(
        results_dir,
        overhead={
            "tasks": TASKS,
            "trials_per_task": TRIALS,
            "jobs": JOBS,
            "raw_wall_s": round(raw_wall, 4),
            "supervised_wall_s": round(supervised_wall, 4),
            "throughput_ratio": round(ratio, 4),
            "overhead_pct": round((supervised_wall / raw_wall - 1) * 100, 2),
            "quick_mode": QUICK_MODE,
        },
        replay={
            "wall_s": round(replay_wall, 4),
            "speedup_vs_compute": round(supervised_wall / replay_wall, 1)
            if replay_wall
            else None,
        },
    )
    emit(
        "bench_supervisor",
        format_table(
            ["metric", "value"],
            [
                ["campaign", f"{TASKS} cells x {TRIALS:,} trials"],
                [f"raw engine wall s (jobs={JOBS})", f"{raw_wall:.3f}"],
                ["supervised wall s", f"{supervised_wall:.3f}"],
                ["clean-path overhead %", f"{(supervised_wall / raw_wall - 1) * 100:.2f}"],
                ["journal replay wall s", f"{replay_wall:.4f}"],
            ],
            title="Durable campaign supervisor: clean overhead and replay economics",
        ),
    )
    # Replay serves every settled result from the journal; it must not be
    # within an order of magnitude of recomputing the campaign.
    assert replay_wall < supervised_wall / 2, (
        f"journal replay too slow: {replay_wall:.2f}s vs {supervised_wall:.2f}s compute"
    )
