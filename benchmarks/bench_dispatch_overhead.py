"""Per-task dispatch overhead of the parallel engine.

Not a paper figure - this isolates the fixed cost the campaign engine
adds around each task: submit bookkeeping, payload pickling, and result
transport (one pickled list of inner results per super-task).  The worker itself is a no-op, so the measured wall-clock
is almost purely engine overhead, reported as microseconds per task for
the three dispatch paths:

- ``serial``   - in-process loop, no executor;
- ``pooled``   - process pool, one task per super-task (``batch=1``);
- ``batched``  - process pool with super-task batching (fixed batch so
  quick-mode runs do not depend on the auto-calibration warm-up).

Numbers land in ``results/BENCH_dispatch_overhead.json`` (plus a
rendered table) so CI can archive them per commit.  Batching exists
precisely to amortize the pooled fixed cost (one future and one result
round trip per submission), so the batched figure must not be slower
than the pooled one.

``REPRO_BENCH_QUICK=1`` (used by CI) shrinks the task count so the file
finishes in seconds; the acceptance numbers come from an unloaded run
without the flag.
"""

import time

from conftest import merge_results, once

from repro.experiments import parallel
from repro.experiments.report import format_table
from repro.util import envcfg

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

TASKS = 200 if QUICK_MODE else 1_000
JOBS = 2
BATCH = 16

#: Payload/result shapes roughly matching a Monte Carlo cell: a small
#: tuple in, a small tuple of scalars out.  Big enough to exercise the
#: result transport, small enough that serialization is not the story.
PAYLOADS = [(i, 61320.0, 1 << 16) for i in range(TASKS)]


def _noop_cell(index, hours, devices):
    return (index, hours * 0.0, devices, 0.0)


def _merge_results(results_dir, **fields):
    merge_results(results_dir, "BENCH_dispatch_overhead.json", **fields)


def _campaign_wall(jobs, batch):
    t0 = time.perf_counter()
    out = list(parallel.run_tasks(_noop_cell, PAYLOADS, jobs=jobs, batch=batch))
    wall = time.perf_counter() - t0
    assert len(out) == TASKS
    return wall


def bench_dispatch_overhead(benchmark, results_dir, emit):
    """Microseconds of engine overhead per no-op task, by dispatch path."""

    def measure():
        serial = _campaign_wall(1, 1)
        pooled = _campaign_wall(JOBS, 1)
        batched = _campaign_wall(JOBS, BATCH)
        return serial, pooled, batched

    serial, pooled, batched = once(benchmark, measure)

    def us_per_task(wall):
        return wall / TASKS * 1e6

    sections = {
        "serial": serial,
        "pooled": pooled,
        "batched": batched,
    }
    _merge_results(
        results_dir,
        **{
            name: {
                "tasks": TASKS,
                "jobs": 1 if name == "serial" else JOBS,
                "batch": BATCH if name == "batched" else 1,
                "wall_s": round(wall, 4),
                "us_per_task": round(us_per_task(wall), 1),
                "quick_mode": QUICK_MODE,
            }
            for name, wall in sections.items()
        },
        batching_gain={
            "pooled_over_batched": round(pooled / batched, 3) if batched else float("inf"),
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_dispatch_overhead",
        format_table(
            ["path", "tasks", "wall s", "us / task"],
            [
                [name, f"{TASKS}", f"{wall:.3f}", f"{us_per_task(wall):,.1f}"]
                for name, wall in sections.items()
            ],
            title=f"Engine dispatch overhead (no-op worker, jobs={JOBS}, batch={BATCH})",
        ),
    )
    assert serial > 0 and pooled > 0 and batched > 0
    # Batching must amortize the per-submission fixed cost, not add to it.
    assert batched <= pooled * 1.10, (
        f"batched dispatch ({us_per_task(batched):.0f} us/task) slower than "
        f"pooled ({us_per_task(pooled):.0f} us/task)"
    )
