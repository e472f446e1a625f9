"""Durable campaign supervision: a crash-safe layer over the parallel engine.

The resilient engine (:mod:`repro.experiments.parallel`) survives faults
*inside* a live driver — worker crashes, hangs, broken pools — but a
campaign still dies with its host: SIGKILL the driver and every in-flight
super-task is gone, fill the disk and checkpoints start failing, let RSS
grow unchecked and the OOM killer picks for you.  This module is the
host-level half of the durability story, and the substrate the long-running
campaign service builds on:

* :func:`supervised_tasks` / :func:`run_campaign` wrap ``run_tasks`` in a
  **write-ahead journal**: an ``O_APPEND`` file of
  :func:`repro.experiments.resultcodec.frame` records (the CRC-framed
  format of the super-task spool too, read back by the same
  :func:`~repro.experiments.resultcodec.read_frames`) holding the
  campaign's spec hash, every *grant* (the task indices handed to the
  engine) and every *settlement* (index + result).  A driver killed at any instant — even mid-append — resumes by
  replaying the journal: settled tasks are served from it byte-identically,
  and only unsettled work is recomputed.
* **Spool salvage**: the engine is given a spool directory that survives
  the driver (``spool_dir=``), so inner results a killed driver's workers
  had finished — durable in the super-task spools but never settled — are
  decoded on resume, journaled as salvaged settlements, and *not*
  recomputed.  The latest grant record maps engine-local spool indices
  back to campaign indices.
* A **resource watchdog** thread samples driver RSS and free disk into the
  obs metrics registry (``supervisor.rss_bytes`` /
  ``supervisor.disk_free_bytes``) and degrades gracefully: above
  ``REPRO_MEM_BUDGET`` it halves the engine's super-task batch cap and
  shrinks ``REPRO_MC_CHUNK`` (future campaigns only — a running campaign's
  cache keys pin their chunk size, preserving determinism); below
  ``REPRO_SUPERVISOR_MIN_DISK`` it pauses the campaign at the next
  settlement (:class:`CampaignPaused`) instead of letting the journal hit
  ENOSPC mid-record.  SIGTERM/SIGINT flush and raise
  :class:`CampaignInterrupted` — the journal *is* the resumable checkpoint.

Every recovery path converges on the bytes of a fault-free serial run:
results replayed from the journal and salvaged from spools were produced
by the same pure workers from the same primitives, and the chaos I/O plane
(:mod:`repro.util.chaos`, ``REPRO_CHAOS_IO``) exists to prove it — tests
SIGKILL the driver between journal appends, storm ENOSPC at every write
site, and tear the journal's tail, then assert bit-identical resumption
with task-count accounting read back from the journal itself
(:func:`journal_stats`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.obs import trace
from repro.experiments import parallel, resultcodec
from repro.util import chaos as chaos_mod
from repro.util import envcfg
from repro.util.cachefile import quarantine_file

#: Journal record tags (first element of every record tuple).  Later PRs
#: appended optional trailing elements (readers use ``len(rec) > n``):
#: ``begin`` carries the campaign's trace context as a 5th element and
#: ``grant`` the granting span's context as a 3rd, so a resumed campaign
#: re-parents under the original trace root and salvaged spool records
#: stay attributable to the grant that dispatched them.
REC_BEGIN = "begin"  #: ("begin", spec_hash, total, name[, trace_ctx])
REC_GRANT = "grant"  #: ("grant", [campaign indices in engine order][, trace_ctx])
REC_SETTLE = "settle"  #: ("settle", index, result, origin "live"|"salvage")
REC_DONE = "done"  #: ("done", settled_count)

#: Extension of campaign journals under the supervisor directory.
JOURNAL_SUFFIX = ".journal"


class CampaignPaused(RuntimeError):
    """A supervised campaign checkpointed and stopped before completion.

    Raised on low disk (the watchdog's floor) or a failing journal append
    (e.g. ENOSPC): everything settled so far is durable in the journal, so
    rerunning the same campaign resumes exactly where it paused.
    """

    def __init__(self, name: str, settled: int, total: int, reason: str):
        self.name = name
        self.settled = settled
        self.total = total
        self.reason = reason
        super().__init__(
            f"campaign {name!r} paused after {settled}/{total} tasks: {reason}; "
            f"rerun to resume from the journal"
        )


class CampaignInterrupted(CampaignPaused):
    """A supervised campaign flushed and stopped on SIGTERM/SIGINT."""


def spec_hash(worker, payloads: "list[tuple]") -> str:
    """Identity of a campaign: worker identity + every payload, hashed.

    Workers are module-level pure functions of primitive payloads (the
    engine's contract), so this is a complete description of the work; a
    journal is replayed only for a byte-identical spec.
    """
    h = hashlib.sha256()
    h.update(f"{getattr(worker, '__module__', '?')}.{getattr(worker, '__qualname__', '?')}".encode())
    h.update(repr(len(payloads)).encode())
    for p in payloads:
        h.update(repr(p).encode())
    return h.hexdigest()


def _emit(kind: str, **fields) -> None:
    if not obs.enabled():
        return
    obs.REGISTRY.counter(kind).inc()
    obs.emit(kind, **fields)


# --------------------------------------------------------------------------
# Write-ahead journal
# --------------------------------------------------------------------------


class Journal:
    """Append-only writer of the campaign's CRC-framed record log.

    Every :meth:`append` is one ``os.write`` of a
    :func:`resultcodec.frame` to an ``O_APPEND`` fd, so a record is either
    fully present or is the torn final frame — the same argument the
    super-task spool makes.  Replay is :func:`resultcodec.read_frames`;
    settled results of any codec-expressible type round-trip bit-exactly
    (ndarrays included).
    """

    def __init__(self, path: "Path | str"):
        self.path = Path(path)
        self._fd: "int | None" = None

    def _ensure_open(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    def append(self, record: tuple) -> None:
        """Durably append one record (chaos site ``journal.append``).

        A ``torn`` fault writes only the frame prefix then raises — the
        exact shape a crash mid-append leaves — so replay's tail tolerance
        is testable without killing anything.
        """
        with trace.span("journal.append", "journal", rec=str(record[0])):
            frame = resultcodec.frame(record)
            fd = self._ensure_open()
            torn = chaos_mod.io_fire("journal.append", size=len(frame))
            if torn is not None and torn < len(frame):
                os.write(fd, frame[:torn])
                raise OSError(5, f"chaos: torn journal append after {torn} bytes")
            os.write(fd, frame)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None


def journal_stats(path: "Path | str") -> dict:
    """Task-count accounting straight from a journal file.

    The chaos acceptance tests assert resumption economics with this:
    ``settled_live`` counts tasks actually recomputed across every run of
    the campaign, ``settled_salvage`` counts results recovered from
    orphaned spools, ``granted`` sums the work handed to the engine per
    run, and ``settled`` is the number of distinct settled task indices.
    """
    records, _, torn = resultcodec.read_frames(path)
    grants = [list(r[1]) for r in records if r[0] == REC_GRANT]
    settles = [r for r in records if r[0] == REC_SETTLE]
    distinct = {r[1] for r in settles}
    return {
        "begins": sum(1 for r in records if r[0] == REC_BEGIN),
        "grants": grants,
        "granted": sum(len(g) for g in grants),
        "settled": len(distinct),
        "settled_live": sum(1 for r in settles if r[3] == "live"),
        "settled_salvage": sum(1 for r in settles if r[3] == "salvage"),
        "done": any(r[0] == REC_DONE for r in records),
        "torn_tail": torn,
    }


# --------------------------------------------------------------------------
# Resource watchdog
# --------------------------------------------------------------------------

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def process_rss() -> int:
    """Resident set size of this process in bytes (0 when unmeasurable)."""
    override = chaos_mod.io_override("watchdog.rss")
    if override is not None:
        return int(override)
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


class ResourceWatchdog:
    """Daemon thread sampling RSS + free disk with graceful degradation.

    * RSS above *mem_budget*: halve the engine's super-task batch cap
      (down to 1) and halve ``REPRO_MC_CHUNK`` for campaigns resolved
      after this point — both shrink peak memory without touching any
      in-flight work's determinism.  Re-fires on every pressured sample
      until the cap bottoms out; both knobs are restored on :meth:`stop`.
    * Free disk below *min_disk*: set :attr:`pause` — the supervised loop
      checkpoints and raises :class:`CampaignPaused` at the next
      settlement, before writes start dying with ENOSPC.

    Samplers are injectable for tests; the chaos ``rss@watchdog.rss``
    fault overrides the real sampler for exactly one (or every) sample.
    """

    def __init__(
        self,
        disk_path: "Path | str",
        mem_budget: "int | None",
        min_disk: int,
        poll_s: float,
        rss_sampler: "Callable[[], int] | None" = None,
        disk_sampler: "Callable[[], int] | None" = None,
    ):
        self.disk_path = str(disk_path)
        self.mem_budget = mem_budget
        self.min_disk = min_disk
        self.poll_s = poll_s
        self._rss = rss_sampler or process_rss
        self._disk = disk_sampler or self._free_disk
        self.pause = threading.Event()
        self.pause_reason = ""
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._saved_batch_cap: "int | None | str" = "unset"
        self._saved_chunk_env: "str | None" = None
        self.degradations = 0

    def _free_disk(self) -> int:
        try:
            return shutil.disk_usage(self.disk_path).free
        except OSError:
            return 1 << 62

    def sample(self) -> None:
        """One watchdog tick (called by the thread; tests call it directly)."""
        rss = self._rss()
        free = self._disk()
        if obs.enabled():
            obs.REGISTRY.gauge("supervisor.rss_bytes").set(rss)
            obs.REGISTRY.gauge("supervisor.disk_free_bytes").set(free)
        if self.mem_budget and rss > self.mem_budget:
            self._degrade_memory(rss)
        if self.min_disk and free < self.min_disk and not self.pause.is_set():
            self.pause_reason = (
                f"free disk {free} below floor {self.min_disk} on {self.disk_path}"
            )
            _emit("supervisor.low_disk", free_bytes=free, floor_bytes=self.min_disk)
            self.pause.set()

    def _degrade_memory(self, rss: int) -> None:
        current = parallel._batch_cap or parallel.MAX_BATCH
        if current <= 1:
            return  # fully degraded already; nothing left to shrink
        new_cap = max(1, current // 2)
        previous = parallel.set_batch_cap(new_cap)
        if self._saved_batch_cap == "unset":
            self._saved_batch_cap = previous
        chunk = envcfg.mc_chunk()
        new_chunk = max(1024, chunk // 2)
        if new_chunk < chunk:
            if self._saved_chunk_env is None:
                self._saved_chunk_env = os.environ.get("REPRO_MC_CHUNK", "")
            # Future campaigns only: a running campaign resolved its chunk
            # size at launch and keys its cache by it, so determinism of
            # in-flight work is untouched.
            os.environ["REPRO_MC_CHUNK"] = str(new_chunk)
        self.degradations += 1
        _emit(
            "supervisor.memory_pressure",
            rss_bytes=rss,
            budget_bytes=self.mem_budget,
            batch_cap=new_cap,
            mc_chunk=new_chunk,
        )

    def _run(self) -> None:
        while not self._stop.wait(self.poll_s):
            self.sample()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-supervisor-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._saved_batch_cap != "unset":
            parallel.set_batch_cap(self._saved_batch_cap)
            self._saved_batch_cap = "unset"
        if self._saved_chunk_env is not None:
            if self._saved_chunk_env:
                os.environ["REPRO_MC_CHUNK"] = self._saved_chunk_env
            else:
                os.environ.pop("REPRO_MC_CHUNK", None)
            self._saved_chunk_env = None


# --------------------------------------------------------------------------
# Supervised campaigns
# --------------------------------------------------------------------------


@dataclass
class _Paths:
    journal: Path
    spool: Path


def _campaign_paths(name: str, directory: "Path | str | None") -> _Paths:
    base = Path(envcfg.supervisor_dir(str(directory) if directory else None))
    return _Paths(base / f"{name}{JOURNAL_SUFFIX}", base / f"{name}.spool")


def _salvage_spools(spool_dir: Path, grant: "list[int]", settled: "set[int]", validate):
    """Decode finished inners from orphaned super-task spools.

    *grant* is the engine-order list of campaign indices from the journal's
    latest grant record: spool records carry engine-local indices, so
    ``grant[local]`` is the campaign task the record settles.  Only
    CRC-clean ``OK`` records count — exceptions, chaos-corrupted results
    and everything from a damaged frame on are recomputed, exactly as a
    live engine would have retried them.
    """
    out: "dict[int, object]" = {}
    if not spool_dir.is_dir():
        return out
    for spool in sorted(spool_dir.iterdir()):
        records, _, _ = resultcodec.read_frames(spool)
        for local, _wall, _pid, _span, kind, blob in records:
            if kind != resultcodec.KIND_OK or local >= len(grant):
                continue
            index = grant[local]
            if index in settled or index in out:
                continue
            try:
                value = resultcodec.decode(blob)
            except Exception:
                continue
            if isinstance(value, chaos_mod.Corrupted):
                continue
            if validate is not None and not validate(value):
                continue
            out[index] = value
    return out


def _clear_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


class _SignalFlag:
    """SIGTERM/SIGINT -> a flag the supervised loop turns into a clean stop.

    Installed only from the main thread (Python restricts handler
    installation to it); elsewhere the campaign simply isn't
    signal-supervised.  Previous handlers are restored on exit.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.fired: "int | None" = None
        self._saved: "dict[int, object]" = {}

    def __enter__(self):
        if self.enabled and threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._saved[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass
        return self

    def _handle(self, signum, frame):
        self.fired = signum

    def __exit__(self, *exc):
        for sig, handler in self._saved.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._saved.clear()
        return False


def supervised_tasks(
    worker,
    payloads: "Iterable[tuple]",
    *,
    name: str,
    directory: "Path | str | None" = None,
    jobs: "int | None" = None,
    mem_budget: "int | None" = None,
    min_disk: "int | None" = None,
    poll_s: "float | None" = None,
    watchdog: bool = True,
    handle_signals: bool = True,
    rss_sampler: "Callable[[], int] | None" = None,
    disk_sampler: "Callable[[], int] | None" = None,
    **engine_options,
) -> "Iterator[tuple[int, object]]":
    """Run a campaign crash-safely, yielding ``(index, result)`` pairs.

    The order of deliveries is: journal replays (index order), spool
    salvage (index order), then live engine results (completion order).
    Every live settlement is journaled *before* it is yielded, so a caller
    killed while consuming a result finds it in the journal on resume.

    *name* keys the journal under *directory* (``REPRO_SUPERVISOR_DIR``);
    a journal whose spec hash does not match this worker+payloads is
    quarantined and the campaign starts fresh — a name collision never
    silently serves foreign results.  Remaining keyword arguments go to
    :func:`repro.experiments.parallel.run_tasks` unchanged.
    """
    payloads = [tuple(p) for p in payloads]
    total = len(payloads)
    spec = spec_hash(worker, payloads)
    paths = _campaign_paths(name, directory)
    validate = engine_options.get("validate")

    # -- replay -------------------------------------------------------------
    records, clean_len, torn = resultcodec.read_frames(paths.journal)
    if records and not (records[0][0] == REC_BEGIN and records[0][1] == spec):
        quarantine_file(paths.journal, "journal spec hash does not match campaign")
        _clear_dir(paths.spool)
        records, torn = [], False
    elif torn:
        # Drop the torn tail *now*: appending after it would strand every
        # later record behind an undecodable frame on the next replay.
        try:
            os.truncate(paths.journal, clean_len)
        except OSError:
            quarantine_file(paths.journal, "could not truncate torn journal tail")
            _clear_dir(paths.spool)
            records, torn = [], False
    settled: "dict[int, object]" = {}
    last_grant: "list[int]" = []
    for rec in records:
        if rec[0] == REC_SETTLE and 0 <= rec[1] < total:
            settled[rec[1]] = rec[2]
        elif rec[0] == REC_GRANT:
            last_grant = [int(i) for i in rec[1]]
    has_done = any(rec[0] == REC_DONE for rec in records)

    # A resumed campaign re-parents under the trace context the original
    # run persisted in its begin record, so every run of one campaign —
    # through any number of crashes — reconstructs as one span forest.
    stored_ctx = None
    if records and len(records[0]) > 4 and records[0][4]:
        stored_ctx = tuple(records[0][4])

    journal = Journal(paths.journal)
    fresh = not records
    root_span = trace.span(
        "supervisor.campaign",
        parent=stored_ctx,
        campaign=name,
        total=total,
        resumed=len(settled),
    )
    _emit(
        "supervisor.begin",
        name=name,
        total=total,
        spec=spec[:16],
        resumed=len(settled),
        torn_tail=torn,
    )

    watch = None
    stats = {"live": 0, "salvaged": 0}
    try:
        if fresh:
            begin = (REC_BEGIN, spec, total, name)
            if root_span.span_id is not None:
                begin += ([root_span.trace_id, root_span.span_id],)
            journal.append(begin)
        if settled:
            _emit("supervisor.replay", settled=len(settled))

        # -- salvage orphaned spools -------------------------------------
        with trace.span("supervisor.salvage", "codec", grant=len(last_grant)):
            salvaged = _salvage_spools(paths.spool, last_grant, set(settled), validate)
        _clear_dir(paths.spool)  # spent: spools must map to the *next* grant
        for index in sorted(salvaged):
            journal.append((REC_SETTLE, index, salvaged[index], "salvage"))
            settled[index] = salvaged[index]
        if salvaged:
            stats["salvaged"] = len(salvaged)
            _emit("supervisor.salvage", count=len(salvaged))

        with _SignalFlag(handle_signals) as flag:
            for index in sorted(settled):
                yield index, settled[index]

            missing = [i for i in range(total) if i not in settled]
            if missing:
                if watchdog:
                    watch = ResourceWatchdog(
                        paths.journal.parent,
                        envcfg.mem_budget(mem_budget),
                        envcfg.supervisor_min_disk(min_disk),
                        envcfg.supervisor_poll(poll_s),
                        rss_sampler=rss_sampler,
                        disk_sampler=disk_sampler,
                    )
                    watch.start()
                grant_rec = (REC_GRANT, missing)
                ctx = trace.ctx()
                if ctx is not None:
                    grant_rec += (list(ctx),)
                journal.append(grant_rec)
                engine = parallel.run_tasks(
                    worker,
                    [payloads[i] for i in missing],
                    jobs=jobs,
                    yield_index=True,
                    spool_dir=str(paths.spool),
                    **engine_options,
                )
                for local, result in engine:
                    index = missing[local]
                    # The settle-or-die ordering: journal first, yield
                    # second, so a consumer killed mid-iteration never saw
                    # a result the journal doesn't have.  ``kill`` chaos
                    # fires here — before the append — so the in-hand
                    # result is lost to the journal but its spool record
                    # (every pooled run) survives for salvage.
                    chaos_mod.io_fire("supervisor.settle")
                    try:
                        journal.append((REC_SETTLE, index, result, "live"))
                    except OSError as exc:
                        engine.close()
                        _emit("supervisor.pause", settled=len(settled), error=str(exc))
                        raise CampaignPaused(
                            name, len(settled), total, f"journal append failed: {exc}"
                        ) from exc
                    settled[index] = result
                    stats["live"] += 1
                    _emit("supervisor.settle", index=index, origin="live")
                    yield index, result
                    if flag.fired is not None:
                        engine.close()
                        _emit("supervisor.interrupt", signum=flag.fired, settled=len(settled))
                        raise CampaignInterrupted(
                            name, len(settled), total, f"signal {flag.fired}"
                        )
                    if watch is not None and watch.pause.is_set():
                        engine.close()
                        _emit("supervisor.pause", settled=len(settled))
                        raise CampaignPaused(name, len(settled), total, watch.pause_reason)
                if flag.fired is not None:
                    _emit("supervisor.interrupt", signum=flag.fired, settled=len(settled))
                    raise CampaignInterrupted(
                        name, len(settled), total, f"signal {flag.fired}"
                    )

        if fresh or stats["live"] or stats["salvaged"] or not has_done:
            try:
                journal.append((REC_DONE, len(settled)))
            except OSError as exc:
                # Every settlement is already durable; only the completion
                # marker is missing.  Pause like any other append failure —
                # the rerun replays everything and re-attempts the marker.
                _emit("supervisor.pause", settled=len(settled), error=str(exc))
                raise CampaignPaused(
                    name, len(settled), total, f"journal append failed: {exc}"
                ) from exc
        _clear_dir(paths.spool)
        _emit(
            "supervisor.done",
            name=name,
            total=total,
            settled=len(settled),
            computed=stats["live"],
            salvaged=stats["salvaged"],
        )
    finally:
        root_span.end(
            settled=len(settled), computed=stats["live"], salvaged=stats["salvaged"]
        )
        if watch is not None:
            watch.stop()
        journal.close()


def run_campaign(
    worker, payloads: "Iterable[tuple]", *, name: str, **options
) -> "list":
    """Supervised campaign returning results in payload order.

    The list-returning convenience over :func:`supervised_tasks` for
    drivers that don't stream; same crash-safety, same resumption.
    """
    payloads = [tuple(p) for p in payloads]
    results = [None] * len(payloads)
    seen = [False] * len(payloads)
    for index, result in supervised_tasks(worker, payloads, name=name, **options):
        results[index] = result
        seen[index] = True
    if not all(seen):  # pragma: no cover - engine contract: all-or-raise
        missing = [i for i, s in enumerate(seen) if not s]
        raise RuntimeError(f"campaign {name!r} finished without settling tasks {missing}")
    return results


def forget_campaign(name: str, directory: "Path | str | None" = None) -> None:
    """Drop a campaign's journal and spools (e.g. after consuming results)."""
    paths = _campaign_paths(name, directory)
    try:
        os.unlink(paths.journal)
    except OSError:
        pass
    _clear_dir(paths.spool)
