"""Granularity-aware process-parallel fan-out of campaign tasks.

Every campaign cell (evaluation-matrix cells, Monte Carlo fig8 / coverage /
collision cells) is an independent, deterministic simulation: workers
receive only primitives, rebuild their inputs, and seed themselves, so a
task's result never depends on which process ran it and a parallel
campaign is bit-identical to a serial one.  :func:`run_tasks` is the
generic engine under every driver; :func:`run_cells` adapts it to the
evaluation matrix, one task per distinct timing system.

Fault model
-----------
The engine runs every task once.  Which failure would an in-engine retry
recover that a rerun from the checkpoint log would not?  None:

* A worker exception is deterministic: a task is a pure function of its
  payload, so a retry raises it again.
* A hung task or a corrupt result never occurs in a paper run; no paper
  run sets a timeout.
* That leaves a worker killed by the OS (OOM, a signal).  A rerun
  recovers it.  The evaluation matrix resumes from its checkpoint log
  (:class:`repro.util.cachefile.Checkpoint`), which holds every cell
  yielded before the death.  The Monte Carlo campaigns cache nothing and
  take seconds, so they simply run again.

So the engine keeps no retry, timeout or pool-rebuild machinery.  A task
that raises becomes a :class:`TaskFailure` (kind ``"exception"``) and
every other task still runs.  A worker death breaks the whole pool
(``BrokenProcessPool``): the engine kills the pool, every task not yet
yielded becomes a :class:`TaskFailure` (kind ``"worker died"``), and the
campaign ends.  Either way one :class:`CampaignError` carrying every
failure is raised after the last result was yielded.

Every pool submission is one *super-task* of 1..N inner tasks.  Fast
kernels made individual cells so cheap that per-task pickle + pool
dispatch overhead can dominate (and even lose to serial), so the engine
coalesces small tasks (the ``batch`` argument: cost-calibrated ``auto``
or a fixed size, ``1`` = one task per submission).  A super-task returns
its inner results, each with its wall time, through its future; an inner
exception travels back in its slot with the worker's formatted traceback
chained as ``__cause__``.  Workers are kept *warm*: a pool initializer
pre-imports the sim stack and primes per-process caches, so workers do
not pay cold-start per cell.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool, _ExceptionWithTraceback
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

from repro import obs
from repro.obs import trace
from repro.ecc.catalog import SYSTEM_CLASSES
from repro.experiments import evaluation
from repro.experiments.runner import RunSpec, adaptive_instructions, run_group, timing_key
from repro.util import envcfg
from repro.workloads import generator
from repro.workloads.profiles import WORKLOADS_BY_NAME

#: Estimated fixed dispatch cost of one pooled submission (pickle, queue
#: hop, future bookkeeping, result transport).  The auto-batching
#: heuristic sizes super-tasks so this overhead stays under
#: :data:`TARGET_OVERHEAD_FRACTION` of the measured per-task work.
DISPATCH_OVERHEAD_S = 0.004

#: Dispatch overhead budget as a fraction of useful per-task work.
TARGET_OVERHEAD_FRACTION = 0.10

#: Upper bound on inner tasks per super-task, so one slow batch cannot
#: serialize the tail of a campaign.
MAX_BATCH = 32

#: Recent per-task wall samples kept for the auto-batching estimate.
_CALIBRATION_WINDOW = 64


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the machine's CPU count."""
    return envcfg.jobs(os.cpu_count() or 1)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that produced no result."""

    index: int  #: position in the campaign's payload list
    payload: tuple  #: the originating payload (cell identity)
    kind: str  #: "exception" | "worker died"
    error: str  #: rendered error
    cause: "BaseException | None" = field(default=None, repr=False, compare=False)


class CampaignError(RuntimeError):
    """Raised at campaign end when tasks failed; carries every failure record.

    By the time this is raised every result the campaign produced has been
    yielded (and checkpointed by callers that cache), so a rerun recomputes
    only the cells listed here.
    """

    def __init__(self, failures: "list[TaskFailure]", total: int):
        self.failures = list(failures)
        self.total = total
        lines = "\n".join(
            f"  - task #{f.index} {f.payload!r}: {f.kind}: {f.error}" for f in self.failures
        )
        super().__init__(f"{len(self.failures)}/{total} campaign task(s) failed:\n{lines}")


def _run_super(cfg, worker, tasks):
    """Worker entry point of every pool submission: one super-task.

    Arms the worker's telemetry to the parent's config (*cfg*, picklable;
    fork workers inherit the sink and this is a no-op; the shipped trace
    context makes the spans children of the dispatching campaign).
    *tasks* is an ordered list of ``(index, payload)`` inner tasks.
    Returns one ``(index, wall_s, pid, ok, value)`` record per inner task:
    *value* is the result, or with ``ok`` false the exception, wrapped so
    it unpickles chained to its worker traceback (the ``__cause__``
    concurrent.futures attaches to task errors).
    """
    obs.ensure_worker(cfg)
    pid = os.getpid()
    out = []
    with trace.span("engine.super", "compute", size=len(tasks)):
        for index, payload in tasks:
            t1 = time.perf_counter()
            task_span = trace.span("engine.task", "compute", index=index)
            try:
                value = worker(*payload)
            except Exception as exc:
                task_span.end(error=repr(exc))
                ok = False
                value = _ExceptionWithTraceback(exc, exc.__traceback__)
                try:
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    value.exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            else:
                task_span.end()
                ok = True
            out.append((index, round(time.perf_counter() - t1, 6), pid, ok, value))
    return out


def _apply_warm(warm) -> None:
    """Run a campaign's warm hint; warming is best-effort, never load-bearing."""
    if not warm:
        return
    fn, args = warm
    try:
        fn(*args)
    except Exception:
        pass


def _pool_init(cfg, warm) -> None:
    """Pool initializer: arm telemetry and pre-warm every worker.

    Under the fork start method workers already inherit the parent's
    imports and caches (the parent runs the warm hint before building the
    pool); this keeps spawned workers equally warm.  SIGTERM goes back to
    its default action: a forked worker inherits the driver's handlers,
    and a driver's flag-only one would turn :func:`_kill_pool`'s
    ``terminate()`` of a busy worker into a no-op.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    obs.ensure_worker(cfg)
    _apply_warm(warm)


def _warm_cells(system_class, config_keys, scale) -> None:
    """Warm hint for evaluation-matrix campaigns.

    Pre-imports the simulation stack, compiles/loads the native epoch core
    once (instead of per worker per cell), and primes the per-process LLC
    pool for every cache geometry the sweep will touch.
    """
    from repro.cpu import epochnative
    from repro.experiments import runner

    epochnative.available()
    for key in config_keys:
        scheme = SYSTEM_CLASSES[system_class][key].make_scheme()
        runner._pooled_llc(runner.llc_size_bytes(scale), scheme.line_size)


def _fail(cid, failures, index, payload, kind, exc) -> None:
    error = f"{type(exc).__name__}: {exc}"
    obs.emit("engine.fail", campaign=cid, index=index, reason=kind, error=error)
    failures.append(TaskFailure(index, payload, kind, error, cause=exc))


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting: cancel queued work, kill workers.

    A busy worker never drains the call queue, so a waiting shutdown
    could block for the rest of its task; the worker processes are
    terminated directly (the private ``_processes`` map is the only
    handle the executor exposes).  The executor's manager thread reaps
    them too, so it is joined last: until it is done, a worker it reaped
    can still look alive to ``multiprocessing.active_children()``.
    """
    procs = getattr(pool, "_processes", None)
    procs = list(procs.values()) if procs else []
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for p in procs:
        try:
            p.terminate()
        except Exception:
            pass
    for p in procs:
        try:
            p.join(timeout=5.0)
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=5.0)


def _run_serial(cid, worker, payloads, failures):
    """In-process execution, in payload order: the reference path."""
    for index, payload in enumerate(payloads):
        obs.emit("engine.submit", campaign=cid, index=index, path="serial")
        t0 = time.perf_counter()
        try:
            with trace.span("engine.task", "compute", index=index):
                result = worker(*payload)
        except Exception as exc:
            _fail(cid, failures, index, payload, "exception", exc)
            continue
        wall = round(time.perf_counter() - t0, 6)
        obs.emit("engine.ok", campaign=cid, index=index, worker_pid=os.getpid(), wall_s=wall)
        yield result


def _run_pooled(cid, worker, payloads, jobs, batch, warm, failures):
    """The pooled engine: batching, windowed submission, one pool.

    At most *jobs* super-tasks are in flight, so calibrated batch sizes
    follow the measured task cost.  A worker death ends the campaign: the
    results that already arrived are yielded, everything else fails.
    """
    pending = deque(range(len(payloads)))
    inflight: "dict[object, list[int]]" = {}
    samples: "deque[float]" = deque(maxlen=_CALIBRATION_WINDOW)

    def _target_batch() -> int:
        """Inner tasks per submission right now.

        A fixed size is literal.  ``auto`` submits singles
        until at least one task's wall has been measured (calibration),
        then sizes batches so :data:`DISPATCH_OVERHEAD_S` stays under
        :data:`TARGET_OVERHEAD_FRACTION` of the median measured task —
        capped at :data:`MAX_BATCH` and at an even split of the remaining
        queue over the whole pool, so one batch never starves the others.
        """
        if batch != "auto":
            size = batch
        elif not samples:
            return 1
        else:
            med = sorted(samples)[len(samples) // 2]
            if med <= 0:
                size = MAX_BATCH
            else:
                size = math.ceil(DISPATCH_OVERHEAD_S / (TARGET_OVERHEAD_FRACTION * med))
            size = min(MAX_BATCH, size)
        return max(1, min(size, math.ceil(len(pending) / jobs)))

    _apply_warm(warm)  # under fork, workers inherit the warmed parent
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(payloads)),
        initializer=_pool_init,
        initargs=(obs.worker_config(), warm),
    )
    try:
        broken = None
        while pending or inflight:
            while pending and len(inflight) < jobs:
                indices = [pending.popleft() for _ in range(_target_batch())]
                tasks = [(i, payloads[i]) for i in indices]
                try:
                    fut = pool.submit(_run_super, obs.worker_config(), worker, tasks)
                except BrokenProcessPool as exc:
                    pending.extend(indices)
                    broken = exc
                    break
                obs.emit("engine.batch", campaign=cid, size=len(indices), indices=indices)
                for i in indices:
                    obs.emit("engine.submit", campaign=cid, index=i, path="pooled")
                inflight[fut] = indices
            done = wait(inflight, return_when=FIRST_COMPLETED)[0] if inflight else ()
            for fut in done:
                exc = fut.exception()
                if isinstance(exc, BrokenProcessPool):
                    broken = exc
                    continue
                indices = inflight.pop(fut)
                if exc is not None:
                    # The super-task envelope itself failed (e.g. a result
                    # that does not pickle): none of its inners arrived.
                    for i in indices:
                        _fail(cid, failures, i, payloads[i], "exception", exc)
                    continue
                for index, wall, pid, ok, value in fut.result():
                    if not ok:
                        _fail(cid, failures, index, payloads[index], "exception", value)
                        continue
                    samples.append(wall)
                    obs.emit("engine.ok", campaign=cid, index=index, worker_pid=pid, wall_s=wall)
                    yield value
            if broken is not None:
                _kill_pool(pool)
                unfinished = sorted([i for ix in inflight.values() for i in ix] + list(pending))
                for i in unfinished:
                    _fail(cid, failures, i, payloads[i], "worker died", broken)
                return
    except BaseException:
        # Ctrl-C or an abandoned generator: drop pending work and return
        # without blocking on the pool - results already yielded were merged
        # (and cached) by the caller, so the campaign resumes where it
        # stopped.
        _kill_pool(pool)
        raise
    pool.shutdown()


def run_tasks(
    worker,
    payloads: "Iterable[tuple]",
    jobs: "int | None" = None,
    *,
    batch: "str | int" = "auto",
    warm: "tuple | None" = None,
) -> "Iterator":
    """Fan *worker(*payload)* over processes, yielding results as they finish.

    The generic engine under every campaign driver: *worker* must be a
    module-level function taking only primitives, so payloads pickle
    cleanly and a task's result never depends on which process ran it.
    With ``jobs == 1`` or a single payload everything runs in-process, in
    order — no executor, no pickling — keeping the serial path the
    reference behaviour.

    * *batch* — inner tasks per pool submission: ``auto`` (default) sizes
      batches from measured task cost, an integer ``>= 1`` pins the size
      (``1`` submits every task alone).  Anything else raises
      :class:`ValueError`.
    * *warm* — optional ``(function, args)`` warm hint, applied in the
      parent before the pool is built (fork workers inherit it) and as
      the pool's initializer.

    Each task runs once.  Tasks that raised, and every unfinished task
    of a campaign whose worker died, are reported in one
    :class:`CampaignError` raised *after* every result has been yielded
    (see the module docstring); callers that checkpoint per result
    therefore resume with only the failed cells missing.
    """
    payloads = [tuple(p) for p in payloads]
    if jobs is None:
        jobs = default_jobs()
    if batch != "auto" and (type(batch) is not int or batch < 1):
        raise ValueError(f"batch must be 'auto' or an int >= 1, got {batch!r}")
    failures: "list[TaskFailure]" = []
    path = "serial" if jobs == 1 or len(payloads) <= 1 else "pooled"
    if obs.enabled():
        obs.ensure_manifest()
    campaign_span = trace.span(
        "engine.campaign", "dispatch", tasks=len(payloads), jobs=jobs, path=path
    )
    # Every engine event carries the campaign span's id, so a reader
    # (repro.obs.progress.Tracker) tells nested and interleaved campaigns apart.
    cid = campaign_span.span_id
    obs.emit(
        "engine.start", campaign=cid, tasks=len(payloads), jobs=jobs, batch=batch, path=path
    )
    t0 = time.perf_counter()
    if path == "serial":
        inner = _run_serial(cid, worker, payloads, failures)
    else:
        inner = _run_pooled(cid, worker, payloads, jobs, batch, warm, failures)
    ok = 0
    try:
        for result in inner:
            ok += 1
            yield result
        obs.emit(
            "engine.done",
            campaign=cid,
            tasks=len(payloads),
            ok=ok,
            failed=len(failures),
            wall_s=round(time.perf_counter() - t0, 6),
        )
    finally:
        # Generators may be abandoned mid-campaign (Ctrl-C, a caller's break):
        # the span must still close so the forest stays complete.
        campaign_span.end(ok=ok, failed=len(failures))
    if failures:
        raise CampaignError(failures, len(payloads)) from failures[0].cause


def _cell_spec(
    system_class: str, wl_name: str, config_key: str, scale: int, access_target: int, seed: int
) -> RunSpec:
    """The RunSpec of one matrix cell, rebuilt from primitives."""
    wl = WORKLOADS_BY_NAME[wl_name]
    instructions = adaptive_instructions(wl, access_target)
    return RunSpec(
        wl,
        SYSTEM_CLASSES[system_class][config_key],
        warmup_instructions=instructions,
        measure_instructions=instructions,
        seed=seed,
        scale=scale,
    )


def cell_groups(
    system_class: str,
    cells: "Iterable[tuple[str, str]]",
    fidelity: "evaluation.Fidelity",
    seed: int,
) -> "list[tuple[str, tuple[str, ...]]]":
    """*cells* grouped by timing system: ``(workload, config_keys)`` each.

    Cells with one :func:`~repro.experiments.runner.timing_key` share a
    simulation.  Groups and their keys keep the order in which *cells*
    first name them.
    """
    groups: "dict[tuple, tuple[str, list[str]]]" = {}
    for wl_name, key in cells:
        spec = _cell_spec(system_class, wl_name, key, fidelity.scale, fidelity.access_target, seed)
        groups.setdefault(timing_key(spec), (wl_name, []))[1].append(key)
    return [(wl_name, tuple(keys)) for wl_name, keys in groups.values()]


def _run_group(
    system_class: str,
    wl_name: str,
    config_keys: "tuple[str, ...]",
    scale: int,
    access_target: int,
    seed: int,
) -> "list[tuple[str, str, dict]]":
    """Worker entry point: simulate one group of cells rebuilt from primitives.

    Module-level (picklable) and pure: each RunSpec is rebuilt by
    :func:`_cell_spec`, as :func:`cell_groups` built it to group the
    cells, and the simulation seeds itself from *seed*, so results do not
    depend on which process ran the group.
    Returns one ``(workload, config_key, cell_dict)`` per key.
    """
    specs = [_cell_spec(system_class, wl_name, k, scale, access_target, seed) for k in config_keys]
    return [
        (wl_name, key, asdict(evaluation._cell_from_result(res)))
        for key, res in zip(config_keys, run_group(specs))
    ]


def run_cells(
    system_class: str,
    cells: "Iterable[tuple[str, str]]",
    fidelity: "evaluation.Fidelity",
    seed: int,
    jobs: "int | None" = None,
    batch: "str | int" = "auto",
) -> "Iterator[tuple[str, str, dict]]":
    """Simulate *cells* and yield ``(workload, config_key, cell_dict)``.

    A thin adapter over :func:`run_tasks` (which owns pooling, batching
    and failure records).  A task is one group of :func:`cell_groups`:
    each distinct timing system runs once, and each of its cells gets
    its own energy.  Results stream back in completion order; callers key
    by name, so order does not matter for correctness, and with
    ``jobs == 1`` or a single group everything runs in-process,
    byte-for-byte the reference behaviour.  Pooled workers get a warm hint
    that pre-imports the sim stack, pre-compiles the native core, and
    primes the LLC pool for every cache geometry in the sweep.  A failing
    group surfaces in :class:`CampaignError` with its ``(system_class,
    workload, config_keys, ...)`` payload attached, naming every cell it
    held, so it is identifiable without rerunning the sweep.

    The sweep shares each workload's drawn trace blocks across its
    configs (see :mod:`repro.workloads.generator`): the memo is dropped
    before the first group and after the last (errors included), and pool
    workers die with the pool, so no sweep reads blocks drawn before it.
    Each pool worker keeps its own memo, so ``batch="auto"`` (the
    default) submits one workload's groups per super-task: groups arrive
    workload-major, and a worker then replays one set of blocks across
    the configs, as the serial path does.
    """
    cells = list(cells)
    groups = cell_groups(system_class, cells, fidelity, seed)
    payloads = [
        (system_class, wl_name, keys, fidelity.scale, fidelity.access_target, seed)
        for wl_name, keys in groups
    ]
    warm = (_warm_cells, (system_class, tuple(sorted({key for _, key in cells})), fidelity.scale))
    if batch == "auto":
        batch = max(Counter(wl for wl, _ in groups).values(), default=1)
    generator.drop_shared_blocks()
    tasks = run_tasks(_run_group, payloads, jobs=jobs, batch=batch, warm=warm)
    try:
        for group in tasks:
            yield from group
    finally:
        tasks.close()  # an abandoned sweep stops its campaign first
        generator.drop_shared_blocks()
