"""Resilient, granularity-aware process-parallel fan-out of campaign tasks.

Every campaign cell (evaluation-matrix cells, Monte Carlo fig8 / coverage /
collision cells) is an independent, deterministic simulation: workers
receive only primitives, rebuild their inputs, and seed themselves, so a
task's result never depends on which process ran it and a parallel
campaign is bit-identical to a serial one.  :func:`run_tasks` is the
generic engine under every driver; :func:`run_cells` adapts it to the
evaluation matrix.

At production scale (1M-trial campaigns, full 16-workload sweeps) partial
failure is the common case, so the engine wraps the fan-out in a
resilience layer:

* **Bounded retry with exponential backoff** — a worker exception consumes
  one attempt; the task is resubmitted up to ``retries``
  (``REPRO_TASK_RETRIES``, default 2) times before being recorded as a
  structured :class:`TaskFailure`.
* **Per-task timeout** — with ``timeout`` (``REPRO_TASK_TIMEOUT``) set, a
  task that produces no result within the window is presumed hung; the
  only way to reclaim a hung worker is to kill its pool, so the pool is
  torn down, the timed-out task is charged an attempt, and everything
  else in flight is requeued.
* **Pool rebuild on ``BrokenProcessPool``** — an OOM-killed or crashed
  worker takes the whole executor down; the engine kills the broken pool,
  requeues all in-flight tasks, and rebuilds.  The culprit is unknowable,
  so a requeue never *fails* a task, but it re-enqueues at ``attempt + 1``
  and so spends one of the task's ``retries + 1`` attempts (ROADMAP
  *Requeue budget*).
* **Graceful degradation to serial** — when the pool breaks
  :data:`REBUILD_LIMIT` times consecutively (no task resolved in between)
  or :data:`REBUILD_TOTAL_LIMIT` times overall, the engine stops fighting
  and finishes the remaining tasks in-process.
* **Failure records at campaign end** — failed tasks no longer abort the
  campaign: every other task still completes (and is checkpointed by the
  caller as it streams back), then a :class:`CampaignError` carrying every
  :class:`TaskFailure` (payload identity, attempts, error) is raised, so a
  rerun recomputes only the failed cells.

Every pool submission is one *super-task* of 1..N inner tasks.  Fast
kernels made individual cells so cheap that per-task pickle + pool
dispatch overhead can dominate (and even lose to serial), so the engine
coalesces small tasks (the ``batch`` argument: cost-calibrated ``auto``
or a fixed size, ``1`` = one task per submission).  Inside a super-task
every inner task keeps its own identity: per-inner chaos injection,
retry/timeout attribution, and telemetry events, and inner results
stream back through a crash-safe spool file of CRC-framed
:mod:`repro.experiments.resultcodec` records — the record format of the
supervisor's journal too — instead of pickled object graphs: a worker
that dies mid-batch loses only its unfinished inners, a damaged record
is recomputed, never settled, and a worker exception arrives with its
formatted traceback chained as ``__cause__``.
Workers are kept *warm*: a pool initializer (re-applied on every rebuild)
pre-imports the sim stack and primes per-process caches, so rebuilt pools
do not pay cold-start per cell.

Because workers are pure and retried/requeued tasks are simply re-executed
from the same primitives, every recovery path yields the same bytes as a
fault-free run — the serial == parallel == batched-parallel determinism
contract survives retries, rebuilds, and degradation.  The deterministic
fault injector in :mod:`repro.util.chaos` (armed via ``REPRO_CHAOS`` or
the ``chaos`` argument) exists to prove exactly that in tests: faults are
injected only into pool workers, never into the serial/degraded
in-process path.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool, _ExceptionWithTraceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.obs import trace
from repro.ecc.catalog import SYSTEM_CLASSES
from repro.experiments import evaluation, resultcodec
from repro.experiments.runner import RunSpec, run
from repro.util import chaos as chaos_mod
from repro.util import envcfg
from repro.workloads.profiles import WORKLOADS_BY_NAME

#: Base delay (seconds) of the exponential retry backoff; attempt *k*
#: sleeps ``backoff * 2**(k-1)`` capped at :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Consecutive pool rebuilds (no task resolved in between) before the
#: engine degrades to serial in-process execution.
REBUILD_LIMIT = 2

#: Total pool rebuilds in one campaign before degrading, whatever the
#: progress in between — bounds a persistent crasher that lets other
#: tasks finish between rebuilds.
REBUILD_TOTAL_LIMIT = 5

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

#: Process-wide ceiling on inner tasks per super-task, below
#: :data:`MAX_BATCH`; ``None`` = uncapped.  The supervisor's resource
#: watchdog lowers it under memory pressure (smaller batches mean fewer
#: concurrently-materialized results per worker) and restores it after.
_batch_cap: "int | None" = None


def set_batch_cap(cap: "int | None") -> "int | None":
    """Set (or with ``None`` clear) the process-wide super-task batch cap.

    Returns the previous value so callers can restore it.  Takes effect on
    the next submission of every running campaign — in-flight batches are
    not recalled.
    """
    global _batch_cap
    previous = _batch_cap
    _batch_cap = max(1, int(cap)) if cap is not None else None
    return previous

#: Wait-loop cap: the parent polls the in-flight spools at least this
#: often so finished inners settle promptly even when no future
#: completes and no deadline is near.
_SPOOL_POLL_S = 0.05


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the machine's CPU count."""
    return envcfg.jobs(os.cpu_count() or 1)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that exhausted its attempt budget."""

    index: int  #: position in the campaign's payload list
    payload: tuple  #: the originating payload (cell identity)
    attempts: int  #: attempts consumed when the task was given up
    kind: str  #: "exception" | "timeout" | "corrupt"
    error: str  #: rendered final error
    cause: "BaseException | None" = field(default=None, repr=False, compare=False)


class TaskError(RuntimeError):
    """A worker failure wrapped with the identity of the task that raised it.

    Raised immediately (``fail_fast=True``) instead of being collected, so
    the failing cell is identifiable without rerunning the sweep.
    """

    def __init__(self, failure: TaskFailure):
        self.failure = failure
        super().__init__(
            f"task #{failure.index} {failure.payload!r} failed after "
            f"{failure.attempts} attempt(s) [{failure.kind}]: {failure.error}"
        )


class CampaignError(RuntimeError):
    """Raised at campaign end when tasks failed; carries every failure record.

    By the time this is raised every other task has completed and been
    yielded (and checkpointed by callers that cache), so a rerun recomputes
    only the cells listed here.
    """

    def __init__(self, failures: "list[TaskFailure]", total: int):
        self.failures = list(failures)
        self.total = total
        lines = "\n".join(
            f"  - task #{f.index} {f.payload!r}: {f.kind} after "
            f"{f.attempts} attempt(s): {f.error}"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)}/{total} campaign task(s) failed after retries:\n{lines}"
        )


def _emit(kind: str, **fields) -> None:
    """Engine telemetry: event + matching counter, no-op unless armed.

    All engine events are per-task (not per-simulated-event), so the
    armed-path cost is irrelevant; the disarmed path is one sink check.
    """
    if not obs.enabled():
        return
    obs.REGISTRY.counter(kind).inc()
    obs.emit(kind, **fields)


def _run_super(cfg, chaos, worker, tasks, spool):
    """Worker entry point of every pool submission: one super-task.

    Arms the worker's telemetry to the parent's config (*cfg*, picklable;
    fork workers inherit the sink and this is a no-op; the shipped trace
    context makes the spans children of the dispatching campaign).
    *tasks* is an ordered list of ``(index, attempt, payload)`` inner
    tasks.  Each inner task runs under its own chaos/attempt identity and
    appends one :func:`resultcodec.frame` record ``(index, wall_s, pid,
    span_id, kind, blob)`` to *spool* with a single ``os.write``
    (O_APPEND), so a ``crash`` fault killing the process via
    ``os._exit`` mid-batch leaves every already-finished inner result
    durable on disk — the parent recovers them without recomputation.
    Inner exceptions are captured per record, pickled with their formatted
    traceback; nothing but completion travels back through the pool.
    """
    obs.ensure_worker(cfg)
    pid = os.getpid()
    fd = os.open(spool, os.O_WRONLY | os.O_APPEND)
    batch_span = trace.span("engine.super", "compute", size=len(tasks))
    try:
        for index, attempt, payload in tasks:
            t1 = time.perf_counter()
            kind = resultcodec.KIND_OK
            task_span = trace.span("engine.task", "compute", index=index, attempt=attempt)
            try:
                if chaos:
                    result = chaos_mod.chaos_call(chaos, worker, index, attempt, payload)
                else:
                    result = worker(*payload)
            except Exception as exc:
                task_span.end(error=repr(exc))
                kind = resultcodec.KIND_EXC
                # Unpickles as *exc* chained to its worker traceback, the
                # ``__cause__`` concurrent.futures attaches to task errors.
                wrapped = _ExceptionWithTraceback(exc, exc.__traceback__)
                try:
                    blob = pickle.dumps(wrapped, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    wrapped.exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                    blob = pickle.dumps(wrapped, protocol=pickle.HIGHEST_PROTOCOL)
            else:
                task_span.end()
                if isinstance(result, chaos_mod.Corrupted):
                    kind = resultcodec.KIND_CORRUPT
                    result = result.original
                with trace.span("engine.encode", "codec", index=index):
                    blob = resultcodec.encode(result)
            wall = round(time.perf_counter() - t1, 6)
            os.write(fd, resultcodec.frame((index, wall, pid, task_span.span_id, kind, blob)))
    finally:
        batch_span.end()
        os.close(fd)


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
    """Pool initializer: arm telemetry and pre-warm every (re)built worker.

    Under the fork start method workers already inherit the parent's
    imports and caches (the parent runs the warm hint before building the
    first pool); this keeps spawned workers and post-rebuild pools equally
    warm.  SIGTERM goes back to its default action: a forked worker
    inherits the driver's handlers, and the supervisor's flag-only one
    would turn :func:`_kill_pool`'s ``terminate()`` of a hung worker into
    a no-op.
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


def _record(failures, index, payload, attempts, kind, exc, fail_fast):
    failure = TaskFailure(
        index=index,
        payload=payload,
        attempts=attempts,
        kind=kind,
        error=f"{type(exc).__name__}: {exc}",
        cause=exc,
    )
    if fail_fast:
        raise TaskError(failure) from exc
    failures.append(failure)


def _result_ok(result, validate) -> bool:
    if isinstance(result, chaos_mod.Corrupted):
        return False
    return validate is None or bool(validate(result))


def _backoff_sleep(backoff: float, attempt: int) -> None:
    if backoff > 0:
        with trace.span("engine.backoff", "retry", attempt=attempt):
            time.sleep(min(BACKOFF_CAP, backoff * (2 ** (attempt - 1))))


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting: cancel queued work, kill workers.

    A hung or crashed worker never drains the call queue, so a waiting
    shutdown could block forever; the worker processes are terminated
    directly (the private ``_processes`` map is the only handle the
    executor exposes).
    """
    procs = getattr(pool, "_processes", None)
    procs = list(procs.values()) if procs else []
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


def _collect(fut) -> "tuple[str, object]":
    """Classify a future: ("ok", result) | ("error", exc) | ("broken", exc).

    "broken" means the pool died under the task (or cancelled it) — the
    task itself is not at fault, so its unfinished inners are requeued:
    never failed for it, though each requeue spends one attempt.
    """
    if not fut.done():
        return "broken", RuntimeError("worker still running when its pool died")
    if fut.cancelled():
        return "broken", RuntimeError("task cancelled by pool teardown")
    exc = fut.exception()
    if exc is None:
        return "ok", fut.result()
    if isinstance(exc, BrokenProcessPool):
        return "broken", exc
    return "error", exc


class _Flight:
    """Parent-side state of one in-flight super-task."""

    __slots__ = ("entries", "spool", "deadline", "progress")

    def __init__(self, entries, spool, deadline):
        self.entries = entries  #: ordered [(index, attempt)] unsettled inner tasks
        self.spool = spool  #: path of the spool its inner results land in
        self.deadline = deadline  #: monotonic expiry, None when untimed
        self.progress = 0  #: spool offset after the last CRC-clean record read


def _run_serial(worker, payloads, tasks, retries, backoff, validate, failures, fail_fast):
    """In-process execution with the same retry/validation contract.

    *tasks* is a list of ``(index, first_attempt)`` pairs — the degraded
    path hands over tasks mid-campaign with their attempt count intact.
    Every task is executed at least once regardless of the attempt it
    arrives with.  No chaos, no timeout: this is the reference path.
    Yields ``(index, result)`` pairs like every engine path.
    """
    max_attempts = retries + 1
    for index, attempt in tasks:
        payload = payloads[index]
        while True:
            _emit("engine.submit", index=index, attempt=attempt, path="serial")
            t0 = time.perf_counter()
            try:
                with trace.span("engine.task", "compute", index=index, attempt=attempt):
                    result = worker(*payload)
            except Exception as exc:
                _emit(
                    "engine.error",
                    index=index,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
                if attempt >= max_attempts:
                    _emit("engine.fail", index=index, attempts=attempt, reason="exception")
                    _record(failures, index, payload, attempt, "exception", exc, fail_fast)
                    break
                _emit("engine.retry", index=index, attempt=attempt + 1, reason="exception")
                _backoff_sleep(backoff, attempt)
                attempt += 1
                continue
            if not _result_ok(result, validate):
                _emit("engine.error", index=index, attempt=attempt, error="invalid result")
                if attempt >= max_attempts:
                    exc = ValueError(f"invalid result: {result!r}")
                    _emit("engine.fail", index=index, attempts=attempt, reason="corrupt")
                    _record(failures, index, payload, attempt, "corrupt", exc, fail_fast)
                    break
                _emit("engine.retry", index=index, attempt=attempt + 1, reason="corrupt")
                _backoff_sleep(backoff, attempt)
                attempt += 1
                continue
            wall = round(time.perf_counter() - t0, 6)
            if obs.enabled():
                obs.REGISTRY.timer("engine.task").observe(wall)
            _emit(
                "engine.ok", index=index, attempt=attempt, worker_pid=os.getpid(), wall_s=wall
            )
            yield index, result
            break


def _run_pooled(
    worker,
    payloads,
    jobs,
    timeout,
    retries,
    backoff,
    validate,
    chaos,
    failures,
    fail_fast,
    batch,
    warm,
    spool_dir=None,
):
    """The pooled engine: batching, windowed submission, deadlines, rebuilds.

    Every submission is one :func:`_run_super` super-task whose inner
    results settle from its spool.  Yields ``(index, result)`` pairs.
    With a caller-provided *spool_dir* the spools live there and the
    directory survives this function (the supervisor salvages finished
    inner results out of spools orphaned by a killed driver); settled
    spools are still unlinked individually.
    """
    max_attempts = retries + 1
    pending = deque((i, 1) for i in range(len(payloads)))
    inflight: "dict[object, _Flight]" = {}
    consecutive_rebuilds = 0
    total_rebuilds = 0
    owns_spool_dir = spool_dir is None
    if spool_dir is not None:
        os.makedirs(spool_dir, exist_ok=True)
    samples: "deque[float]" = deque(maxlen=_CALIBRATION_WINDOW)

    def _new_spool():
        nonlocal spool_dir
        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        fd, path = tempfile.mkstemp(prefix="super-", suffix=".bin", dir=spool_dir)
        os.close(fd)
        return path

    def _drop_spool(path):
        try:
            os.unlink(path)
        except OSError:
            pass

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
        if _batch_cap is not None:
            size = min(size, _batch_cap)
        return max(1, min(size, math.ceil(len(pending) / jobs)))

    def _settle_ok(index, attempt, value, pid, wall):
        """One inner result arrived: validate, account, return (yieldable, value)."""
        nonlocal consecutive_rebuilds
        if _result_ok(value, validate):
            consecutive_rebuilds = 0
            if wall is not None:
                samples.append(wall)
                if obs.enabled():
                    obs.REGISTRY.timer("engine.task").observe(wall)
            _emit("engine.ok", index=index, attempt=attempt, worker_pid=pid, wall_s=wall)
            return True, value
        _emit("engine.error", index=index, attempt=attempt, error="invalid result")
        if attempt >= max_attempts:
            exc = ValueError(f"invalid result: {value!r}")
            _emit("engine.fail", index=index, attempts=attempt, reason="corrupt")
            _record(failures, index, payloads[index], attempt, "corrupt", exc, fail_fast)
            consecutive_rebuilds = 0
        else:
            _emit("engine.retry", index=index, attempt=attempt + 1, reason="corrupt")
            _backoff_sleep(backoff, attempt)
            pending.append((index, attempt + 1))
        return False, None

    def _settle_error(index, attempt, exc):
        """One inner task raised: charge an attempt, retry or record."""
        nonlocal consecutive_rebuilds
        _emit(
            "engine.error",
            index=index,
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
        )
        if attempt >= max_attempts:
            _emit("engine.fail", index=index, attempts=attempt, reason="exception")
            _record(failures, index, payloads[index], attempt, "exception", exc, fail_fast)
            consecutive_rebuilds = 0
        else:
            _emit("engine.retry", index=index, attempt=attempt + 1, reason="exception")
            _backoff_sleep(backoff, attempt)
            pending.append((index, attempt + 1))

    def _settle_record(attempt, record):
        """Decode one spool record; returns (yieldable, value)."""
        index, wall, pid, _span, kind, blob = record
        if kind == resultcodec.KIND_EXC:
            try:
                exc = pickle.loads(blob)
            except Exception:
                exc = RuntimeError("worker exception could not be decoded")
            _settle_error(index, attempt, exc)
            return False, None
        try:
            with trace.span("engine.decode", "codec", index=index):
                value = resultcodec.decode(blob)
        except Exception as exc:
            _settle_error(index, attempt, RuntimeError(f"result decode failed: {exc}"))
            return False, None
        if kind == resultcodec.KIND_CORRUPT:
            value = chaos_mod.Corrupted(value)
        return _settle_ok(index, attempt, value, pid, wall)

    def _drain(flight):
        """Settle every inner result appended to *flight*'s spool since the
        last read, leaving the unfinished inners in ``flight.entries``.

        New records are progress and re-arm the flight's deadline.
        """
        records, end, _ = resultcodec.read_frames(flight.spool, flight.progress)
        if end == flight.progress:
            return
        flight.progress = end
        if timeout:
            flight.deadline = time.monotonic() + timeout
        finished = {record[0]: record for record in records}
        remaining = []
        for index, attempt in flight.entries:
            record = finished.get(index)
            if record is None:
                remaining.append((index, attempt))
                continue
            yieldable, value = _settle_record(attempt, record)
            if yieldable:
                yield index, value
        flight.entries = remaining

    def _retire(flight, charge=None):
        """Drain a super-task that left the pool, then hand back its
        unfinished inners: the first to *charge* (the inner its worker
        stopped in), the rest to :func:`_requeue`."""
        yield from _drain(flight)
        entries = flight.entries
        if charge is not None and entries:
            charge(*entries[0])
            entries = entries[1:]
        for index, attempt in entries:
            _requeue(index, attempt)
        _drop_spool(flight.spool)

    def _charge_timeout(index, attempt):
        nonlocal consecutive_rebuilds
        _emit("engine.timeout", index=index, attempt=attempt, timeout_s=timeout)
        if attempt >= max_attempts:
            exc = TimeoutError(f"no result within {timeout:g}s")
            _emit("engine.fail", index=index, attempts=attempt, reason="timeout")
            _record(failures, index, payloads[index], attempt, "timeout", exc, fail_fast)
            consecutive_rebuilds = 0
        else:
            _emit("engine.retry", index=index, attempt=attempt + 1, reason="timeout")
            pending.append((index, attempt + 1))

    def _requeue(index, attempt):
        """Re-enqueue a task its pool lost.  Never fails it, but the next
        run is ``attempt + 1``: the requeue spends an attempt (ROADMAP
        *Requeue budget*)."""
        _emit("engine.requeue", index=index, attempt=attempt)
        pending.append((index, attempt + 1))

    _apply_warm(warm)  # under fork, workers inherit the warmed parent
    pool_args = dict(initializer=_pool_init, initargs=(obs.worker_config(), warm))
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)), **pool_args)
    try:
        while pending or inflight:
            broken = False
            # 1. Refill the submission window (at most *jobs* submissions in
            #    flight, so deadlines measure run time, not queue time).
            while pool is not None and pending and len(inflight) < jobs:
                size = _target_batch()
                entries = []
                while pending and len(entries) < size:
                    index, attempt = pending[0]
                    if attempt > 1 and entries:
                        break  # retried tasks always travel alone
                    pending.popleft()
                    entries.append((index, attempt))
                    if attempt > 1:
                        break
                deadline = (time.monotonic() + timeout) if timeout else None
                spool = _new_spool()
                tasks = [(i, a, payloads[i]) for i, a in entries]
                try:
                    fut = pool.submit(_run_super, obs.worker_config(), chaos, worker, tasks, spool)
                except (BrokenProcessPool, RuntimeError):
                    _drop_spool(spool)
                    for e in reversed(entries):
                        pending.appendleft(e)
                    broken = True
                    break
                _emit("engine.batch", size=len(entries), indices=[i for i, _ in entries])
                for i, a in entries:
                    _emit("engine.submit", index=i, attempt=a, path="pooled")
                inflight[fut] = _Flight(entries, spool, deadline)

            # 2. Wait for completions, bounded by the nearest deadline and
            #    capped so the parent keeps draining the spools: a finished
            #    inner must settle promptly even while a sibling hangs.
            done = ()
            if not broken and inflight:
                wait_s = _SPOOL_POLL_S
                if timeout:
                    nearest = min(fl.deadline for fl in inflight.values())
                    wait_s = max(0.0, min(wait_s, nearest - time.monotonic()))
                done, _ = wait(list(inflight), timeout=wait_s, return_when=FIRST_COMPLETED)

            # 3. Settle finished futures.
            for fut in done:
                flight = inflight.pop(fut)
                status, value = _collect(fut)
                if status == "broken":
                    broken = True
                # The super-task envelope itself raised (spool I/O,
                # teardown): its first unfinished inner is charged.
                charge = None
                if status == "error":
                    charge = lambda i, a: _settle_error(i, a, value)
                yield from _retire(flight, charge)

            # 4. Drain running super-tasks: an inner result that reached the
            #    spool settles immediately — its retry or its yield must not
            #    wait for siblings (a hang would delay it a full timeout and
            #    skew the rebuild/degradation accounting).
            if not broken:
                for flight in inflight.values():
                    yield from _drain(flight)

            # 5. Expire deadlines: a hung worker never completes on its own,
            #    and the only way to reclaim it is to rebuild the pool.  A
            #    super-task's deadline is per *inner* task: the drain above
            #    re-arms it on progress, so expiry means no inner finished
            #    for a whole window.
            if not broken and timeout and inflight:
                now = time.monotonic()
                expired = [
                    f
                    for f, fl in inflight.items()
                    if fl.deadline is not None and fl.deadline <= now and not f.done()
                ]
                if expired:
                    broken = True
                    for fut in expired:
                        yield from _retire(inflight.pop(fut), _charge_timeout)

            # 6. Rebuild the pool, or degrade to serial when it keeps dying.
            #    Whatever reached a spool is durable: settle the finished
            #    inners, requeue only the unfinished rest.
            if broken:
                for flight in inflight.values():
                    yield from _retire(flight)
                inflight.clear()
                rebuild_span = trace.span("engine.rebuild", "retry", pending=len(pending))
                _kill_pool(pool)
                pool = None
                consecutive_rebuilds += 1
                total_rebuilds += 1
                _emit(
                    "engine.rebuild",
                    consecutive=consecutive_rebuilds,
                    total=total_rebuilds,
                    pending=len(pending),
                )
                if (
                    consecutive_rebuilds >= REBUILD_LIMIT
                    or total_rebuilds >= REBUILD_TOTAL_LIMIT
                ):
                    tasks = list(pending)
                    pending.clear()
                    rebuild_span.end(degraded=True)
                    _emit("engine.degrade", remaining=len(tasks), rebuilds=total_rebuilds)
                    yield from _run_serial(
                        worker, payloads, tasks, retries, backoff, validate, failures, fail_fast
                    )
                    return
                if pending:
                    pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)), **pool_args)
                rebuild_span.end()
    except BaseException:
        # Ctrl-C or an abandoned generator: drop pending work and return
        # without blocking on the pool - results already yielded were merged
        # (and cached) by the caller, so the campaign resumes where it
        # stopped.
        if pool is not None:
            _kill_pool(pool)
        raise
    finally:
        # A caller-provided spool dir outlives the engine: whatever a killed
        # driver left there is exactly what the supervisor salvages.
        if owns_spool_dir and spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)
    if pool is not None:
        pool.shutdown()


def run_tasks(
    worker,
    payloads: "Iterable[tuple]",
    jobs: "int | None" = None,
    *,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: "float | None" = None,
    validate: "Callable[[object], bool] | None" = None,
    chaos: "str | None" = None,
    fail_fast: bool = False,
    batch: "str | int" = "auto",
    warm: "tuple | None" = None,
    yield_index: bool = False,
    spool_dir: "str | None" = None,
) -> "Iterator":
    """Fan *worker(*payload)* over processes, yielding results as they finish.

    The generic resilient engine under every campaign driver: *worker* must
    be a module-level function taking only primitives, so payloads pickle
    cleanly and a task's result never depends on which process ran it.
    With ``jobs == 1`` or a single payload everything runs in-process, in
    order — no executor, no pickling — keeping the serial path the
    reference behaviour.

    Resilience knobs (see the module docstring for semantics):

    * *timeout* — per-task seconds (default ``REPRO_TASK_TIMEOUT``; unset
      disables; ``0`` disables explicitly).  Pool path only; inside a
      super-task the window re-arms on every finished inner task.
    * *retries* — attempts beyond the first per task (default
      ``REPRO_TASK_RETRIES``, else 2).
    * *backoff* — base seconds of the exponential retry backoff (default
      :data:`BACKOFF_BASE`; pass ``0`` to disable sleeping in tests).
    * *validate* — optional predicate over results; a falsy verdict counts
      as a failed attempt (kind ``corrupt``).
    * *chaos* — a :mod:`repro.util.chaos` spec string (default
      ``REPRO_CHAOS``); injected into pool workers only, per inner task.
    * *fail_fast* — raise :class:`TaskError` on the first exhausted task
      instead of collecting failures into a :class:`CampaignError`.
    * *batch* — inner tasks per pool submission: ``auto`` (default) sizes
      batches from measured task cost, an integer ``>= 1`` pins the size
      (``1`` submits every task alone).  Anything else raises
      :class:`ValueError`.  Retried tasks are always submitted alone.
    * *warm* — optional ``(function, args)`` warm hint, applied in the
      parent before the first pool (fork workers inherit it) and as the
      initializer of every built or rebuilt pool.
    * *yield_index* — yield ``(payload_index, result)`` pairs instead of
      bare results, so a caller journaling settlements (the supervisor)
      can attribute each completion-ordered result to its task.
    * *spool_dir* — directory for super-task spool files.  By default the
      engine owns a private temp dir and removes it on exit; a
      caller-provided directory is created if needed and left in place, so
      spools orphaned by a killed driver survive for salvage.

    Tasks that exhaust their budget are reported in one
    :class:`CampaignError` raised *after* every other task has been
    yielded; callers that checkpoint per result therefore resume with only
    the failed cells missing.
    """
    payloads = [tuple(p) for p in payloads]
    if jobs is None:
        jobs = default_jobs()
    timeout = envcfg.task_timeout(timeout)
    retries = envcfg.task_retries(retries)
    if batch != "auto" and (type(batch) is not int or batch < 1):
        raise ValueError(f"batch must be 'auto' or an int >= 1, got {batch!r}")
    if backoff is None:
        backoff = BACKOFF_BASE
    if chaos is None:
        chaos = chaos_mod.from_env()
    failures: "list[TaskFailure]" = []
    serial = jobs == 1 or len(payloads) <= 1
    if obs.enabled():
        obs.ensure_manifest()
    campaign_span = trace.span(
        "engine.campaign",
        "dispatch",
        tasks=len(payloads),
        jobs=jobs,
        path="serial" if serial else "pooled",
    )
    _emit(
        "engine.start",
        tasks=len(payloads),
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        chaos=chaos,
        batch=batch,
        path="serial" if serial else "pooled",
    )
    t0 = time.perf_counter()
    if serial:
        inner = _run_serial(
            worker,
            payloads,
            [(i, 1) for i in range(len(payloads))],
            retries,
            backoff,
            validate,
            failures,
            fail_fast,
        )
    else:
        inner = _run_pooled(
            worker,
            payloads,
            jobs,
            timeout,
            retries,
            backoff,
            validate,
            chaos,
            failures,
            fail_fast,
            batch,
            warm,
            spool_dir,
        )
    ok = 0
    try:
        for index, result in inner:
            ok += 1
            yield (index, result) if yield_index else result
        _emit(
            "engine.done",
            tasks=len(payloads),
            ok=ok,
            failed=len(failures),
            wall_s=round(time.perf_counter() - t0, 6),
        )
    finally:
        # Generators may be abandoned mid-campaign (Ctrl-C, fail_fast):
        # the span must still close so the forest stays complete.
        campaign_span.end(ok=ok, failed=len(failures))
    if failures:
        raise CampaignError(failures, len(payloads)) from failures[0].cause


def _run_cell(
    system_class: str,
    wl_name: str,
    config_key: str,
    scale: int,
    access_target: int,
    seed: int,
) -> "tuple[str, str, dict]":
    """Worker entry point: simulate one cell rebuilt from primitives.

    Module-level (picklable) and pure: the RunSpec is reconstructed from the
    same formula the serial path uses, and the simulation seeds itself from
    *seed*, so results do not depend on which process ran the cell.
    """
    wl = WORKLOADS_BY_NAME[wl_name]
    instructions = evaluation.instruction_budget(access_target, wl)
    spec = RunSpec(
        wl,
        SYSTEM_CLASSES[system_class][config_key],
        warmup_instructions=instructions,
        measure_instructions=instructions,
        seed=seed,
        scale=scale,
    )
    return wl_name, config_key, asdict(evaluation._cell_from_result(run(spec)))


def run_cells(
    system_class: str,
    cells: "Iterable[tuple[str, str]]",
    fidelity: "evaluation.Fidelity",
    seed: int,
    jobs: "int | None" = None,
    **options,
) -> "Iterator[tuple[str, str, dict]]":
    """Simulate *cells* and yield ``(workload, config_key, cell_dict)``.

    A thin adapter over :func:`run_tasks` (which owns pooling, batching,
    retries, timeouts, and failure records — *options* passes those knobs
    through).  Results stream back in completion order; callers key by
    name, so order does not matter for correctness, and with ``jobs == 1``
    or a single cell everything runs in-process, byte-for-byte the
    reference behaviour.  Pooled workers get a warm hint that pre-imports
    the sim stack, pre-compiles the native core, and primes the LLC pool
    for every cache geometry in the sweep.  A failing cell surfaces in
    :class:`CampaignError` / :class:`TaskError` with its ``(system_class,
    workload, config_key, ...)`` payload attached, so it is identifiable
    without rerunning the sweep.
    """
    cells = list(cells)
    payloads = [
        (system_class, wl_name, key, fidelity.scale, fidelity.access_target, seed)
        for wl_name, key in cells
    ]
    options.setdefault(
        "warm",
        (_warm_cells, (system_class, tuple(sorted({key for _, key in cells})), fidelity.scale)),
    )
    return run_tasks(_run_cell, payloads, jobs=jobs, **options)
