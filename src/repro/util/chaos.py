"""Deterministic chaos harness for the campaign engine.

The resilience layer in :mod:`repro.experiments.parallel` (retries,
per-task timeouts, pool rebuilds, serial degradation) is only trustworthy
if its recovery paths are *exercised*, not just written.  This module
injects worker faults at precisely chosen task indices so tests can drive
every path deterministically and then assert that the recovered campaign
is bit-identical to a fault-free serial run.

A chaos spec is a comma-separated list of fault entries::

    mode[=param]@index[#attempt]

* ``mode`` — ``crash`` (the worker process dies via ``os._exit``; the
  executor surfaces this as ``BrokenProcessPool``), ``hang`` (the worker
  sleeps *param* seconds — default :data:`DEFAULT_HANG_S` — before doing
  its work, tripping the engine's per-task timeout), or ``corrupt`` (the
  result is wrapped in a :class:`Corrupted` marker, which the engine
  rejects and retries).
* ``param`` — exit code for ``crash`` (default :data:`DEFAULT_EXIT_CODE`),
  sleep seconds for ``hang``.
* ``index`` — the task's position in the campaign's payload list.
* ``attempt`` — which attempt the fault hits: an integer, or ``*`` for
  every attempt.  Default ``1``, so a retried task succeeds — the shape
  chaos tests use to prove recovery converges on the fault-free result.

Example: ``"crash@2,hang=30@5#1,corrupt@0#*"``.

Specs travel to workers as plain strings (via the engine) and are parsed
on both sides, so nothing unpicklable crosses the process boundary.  The
``REPRO_CHAOS`` environment variable arms the engine globally; faults are
injected **only into pool workers** — the serial in-process path (and the
engine's degraded-to-serial recovery path) stays the fault-free reference.

Host/I-O chaos plane
--------------------

Worker faults exercise the *engine's* recovery paths; the supervisor layer
(:mod:`repro.experiments.supervisor`) also has to survive faults of the
*host* — a full disk, a dying filesystem, the driver itself being killed.
A second spec, armed via ``REPRO_CHAOS_IO`` (or :func:`arm_io` in tests),
injects those at named I/O sites::

    mode[=param]@op[#n]

* ``mode`` — ``enospc`` (the site raises ``OSError(ENOSPC)``), ``eio``
  (``OSError(EIO)``), ``torn`` (the site writes only the first *param*
  bytes — default :data:`DEFAULT_TORN_BYTES` — then fails, simulating a
  crash mid-write), ``kill`` (the *current process* dies via ``SIGKILL``
  — used with a subprocess harness to kill the driver at an exact
  journal record), or ``rss`` (the watchdog's next RSS sample reads
  *param* bytes instead of the real value).
* ``op`` — the dotted site name instrumented with :func:`io_fire` /
  :func:`io_override`: ``cache.write``, ``cache.rename``,
  ``journal.append``, ``supervisor.settle``, ``watchdog.rss``.
* ``n`` — which occurrence of the site fires the fault (1-based, counted
  per process; default ``1``; ``*`` = every occurrence).

Example: ``"enospc@journal.append#3,kill@supervisor.settle#2"``.

Sites call ``io_fire(op)`` which is a no-op (fast early return) unless a
spec is armed, so production code pays nothing.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass

#: Environment variable holding a chaos spec for the campaign engine.
ENV_VAR = "REPRO_CHAOS"

#: Environment variable holding a host/I-O chaos spec for the supervisor.
IO_ENV_VAR = "REPRO_CHAOS_IO"

#: Default byte cap for ``torn`` faults — small enough to guarantee the
#: record/frame being written is visibly truncated.
DEFAULT_TORN_BYTES = 16.0

#: Default sleep for ``hang`` faults — long enough that any sane per-task
#: timeout fires first.
DEFAULT_HANG_S = 300.0

#: Default exit code for ``crash`` faults (arbitrary, recognizably chaotic).
DEFAULT_EXIT_CODE = 76

_MODES = ("crash", "hang", "corrupt")


class Corrupted:
    """Picklable marker a ``corrupt`` fault wraps a worker's result in.

    The campaign engine treats any :class:`Corrupted` result as a failed
    attempt (kind ``corrupt``) and retries the task, so the corruption
    never reaches the caller's merge step.
    """

    def __init__(self, original):
        self.original = original

    def __repr__(self):
        return f"Corrupted({self.original!r})"


@dataclass(frozen=True)
class ChaosFault:
    """One parsed fault entry."""

    mode: str  #: "crash" | "hang" | "corrupt"
    index: int  #: task index within the campaign's payload list
    attempt: "int | None"  #: attempt to hit; None = every attempt
    param: float  #: exit code (crash) or sleep seconds (hang)

    def matches(self, index: int, attempt: int) -> bool:
        return self.index == index and self.attempt in (None, attempt)


def parse(spec: str) -> "tuple[ChaosFault, ...]":
    """Parse a chaos spec string; malformed entries raise ``ValueError``."""
    faults = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        head, sep, tail = entry.partition("@")
        if not sep:
            raise ValueError(f"chaos entry {entry!r} must look like mode@index")
        mode, _, param = head.partition("=")
        mode = mode.strip()
        if mode not in _MODES:
            raise ValueError(f"chaos mode must be one of {_MODES}, got {mode!r}")
        if param and mode == "corrupt":
            raise ValueError(f"chaos mode 'corrupt' takes no parameter: {entry!r}")
        idx_s, _, att_s = tail.partition("#")
        try:
            index = int(idx_s)
        except ValueError:
            raise ValueError(f"chaos task index must be an integer: {entry!r}") from None
        if index < 0:
            raise ValueError(f"chaos task index must be >= 0: {entry!r}")
        att_s = att_s.strip()
        if att_s == "*":
            attempt = None
        else:
            try:
                attempt = int(att_s) if att_s else 1
            except ValueError:
                raise ValueError(f"chaos attempt must be an integer or '*': {entry!r}") from None
        if mode == "crash":
            value = float(param) if param else float(DEFAULT_EXIT_CODE)
        elif mode == "hang":
            value = float(param) if param else DEFAULT_HANG_S
        else:
            value = 0.0
        faults.append(ChaosFault(mode, index, attempt, value))
    return tuple(faults)


def from_env() -> "str | None":
    """The ``REPRO_CHAOS`` spec, validated eagerly so typos fail in the
    parent process rather than inside a worker; ``None`` when unset."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw:
        parse(raw)
    return raw or None


def chaos_call(spec: str, worker, index: int, attempt: int, payload: tuple):
    """Worker-side wrapper: apply the first matching fault, then run the task.

    ``crash`` never returns; ``hang`` sleeps before doing the (correct)
    work, so a generous timeout just sees a slow task; ``corrupt`` does the
    work and wraps the result.  With no matching fault this is exactly
    ``worker(*payload)`` — the engine's determinism contract depends on
    that.
    """
    for fault in parse(spec):
        if fault.matches(index, attempt):
            _emit_fire(fault, index, attempt)
            if fault.mode == "crash":
                os._exit(int(fault.param))
            if fault.mode == "hang":
                time.sleep(fault.param)
            elif fault.mode == "corrupt":
                return Corrupted(worker(*payload))
            break
    return worker(*payload)


def _emit_fire(fault: ChaosFault, index: int, attempt: int) -> None:
    """Record a firing on the event bus (mode ``chaos``) before it applies.

    Emitted worker-side *before* the fault takes effect, so even a
    ``crash`` firing (the worker dies immediately after) reaches the
    JSONL — tests and ``repro.obs.summarize`` correlate each firing with
    the recovery that follows it in the stream.
    """
    from repro import obs  # local: chaos is imported by envcfg's resolver

    if obs.enabled():
        obs.REGISTRY.counter("chaos.fire").inc()
        obs.emit(
            "chaos.fire", mode=fault.mode, index=index, attempt=attempt, param=fault.param
        )


# --------------------------------------------------------------------------
# Host/I-O chaos plane
# --------------------------------------------------------------------------

_IO_MODES = ("enospc", "eio", "torn", "kill", "rss")


@dataclass(frozen=True)
class IOFault:
    """One parsed host/I-O fault entry."""

    mode: str  #: "enospc" | "eio" | "torn" | "kill" | "rss"
    op: str  #: dotted site name, e.g. "journal.append"
    occurrence: "int | None"  #: 1-based occurrence to hit; None = every
    param: float  #: byte cap (torn) or simulated RSS bytes (rss)

    def matches(self, op: str, count: int) -> bool:
        return self.op == op and self.occurrence in (None, count)


def parse_io(spec: str) -> "tuple[IOFault, ...]":
    """Parse an I/O chaos spec string; malformed entries raise ``ValueError``."""
    faults = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        head, sep, tail = entry.partition("@")
        if not sep:
            raise ValueError(f"io chaos entry {entry!r} must look like mode@op")
        mode, _, param = head.partition("=")
        mode = mode.strip()
        if mode not in _IO_MODES:
            raise ValueError(f"io chaos mode must be one of {_IO_MODES}, got {mode!r}")
        if param and mode not in ("torn", "rss"):
            raise ValueError(f"io chaos mode {mode!r} takes no parameter: {entry!r}")
        op, _, occ_s = tail.partition("#")
        op = op.strip()
        if not op or any(not part for part in op.split(".")):
            raise ValueError(f"io chaos op must be a dotted site name: {entry!r}")
        occ_s = occ_s.strip()
        if occ_s == "*":
            occurrence = None
        else:
            try:
                occurrence = int(occ_s) if occ_s else 1
            except ValueError:
                raise ValueError(
                    f"io chaos occurrence must be an integer or '*': {entry!r}"
                ) from None
            if occurrence < 1:
                raise ValueError(f"io chaos occurrence must be >= 1: {entry!r}")
        if mode == "torn":
            value = float(param) if param else DEFAULT_TORN_BYTES
            if value < 0:
                raise ValueError(f"io chaos torn byte cap must be >= 0: {entry!r}")
        elif mode == "rss":
            if not param:
                raise ValueError(f"io chaos mode 'rss' needs a byte value: {entry!r}")
            value = float(param)
        else:
            value = 0.0
        faults.append(IOFault(mode, op, occurrence, value))
    return tuple(faults)


def io_from_env() -> "str | None":
    """The ``REPRO_CHAOS_IO`` spec, validated eagerly; ``None`` when unset."""
    raw = os.environ.get(IO_ENV_VAR, "").strip()
    if raw:
        parse_io(raw)
    return raw or None


# None = not yet initialised from the environment; () = armed with nothing
# (disarmed).  Counters are per-process and per-site.
_io_faults: "tuple[IOFault, ...] | None" = None
_io_counts: "dict[str, int]" = {}


def arm_io(spec: "str | None") -> None:
    """Arm (or, with ``None``/empty, disarm) the I/O plane process-locally.

    Resets the per-site occurrence counters, so tests get deterministic
    firing regardless of what ran before.
    """
    global _io_faults
    _io_faults = parse_io(spec) if spec else ()
    _io_counts.clear()


def _io_active() -> "tuple[IOFault, ...]":
    global _io_faults
    if _io_faults is None:
        _io_faults = parse_io(io_from_env() or "")
    return _io_faults


def io_counts() -> "dict[str, int]":
    """Per-site occurrence counters (a copy) — test/debug introspection."""
    return dict(_io_counts)


def io_fire(op: str, size: "int | None" = None) -> "int | None":
    """Instrumentation point for an I/O site named *op*.

    Disarmed (the common case) this returns ``None`` without touching the
    counters.  Armed, it counts the occurrence and applies the first
    matching fault: ``enospc``/``eio`` raise the corresponding ``OSError``,
    ``kill`` SIGKILLs the current process (never returns), and ``torn``
    returns the byte cap — the caller writes only that prefix of its
    *size*-byte payload and then fails its write, simulating a crash
    mid-write.  ``rss`` faults are ignored here (see :func:`io_override`).
    """
    faults = _io_faults
    if faults is None:
        faults = _io_active()
    if not faults:
        return None
    count = _io_counts.get(op, 0) + 1
    _io_counts[op] = count
    for fault in faults:
        if fault.mode != "rss" and fault.matches(op, count):
            _emit_io_fire(fault, op, count)
            if fault.mode == "enospc":
                raise OSError(errno.ENOSPC, f"chaos: no space left on device [{op}]")
            if fault.mode == "eio":
                raise OSError(errno.EIO, f"chaos: input/output error [{op}]")
            if fault.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(60)  # pragma: no cover - delivery is immediate
            if fault.mode == "torn":
                cap = int(fault.param)
                return cap if size is None else min(cap, size)
    return None


def io_override(op: str) -> "float | None":
    """Armed ``rss`` override for a sampling site; ``None`` when clean.

    Counted separately from :func:`io_fire` faults only in the sense that
    a site is instrumented with exactly one of the two — samplers use
    ``io_override``, write paths use ``io_fire``.
    """
    faults = _io_faults
    if faults is None:
        faults = _io_active()
    if not faults:
        return None
    count = _io_counts.get(op, 0) + 1
    _io_counts[op] = count
    for fault in faults:
        if fault.mode == "rss" and fault.matches(op, count):
            _emit_io_fire(fault, op, count)
            return fault.param
    return None


def _emit_io_fire(fault: IOFault, op: str, count: int) -> None:
    """Record an I/O firing on the event bus (mode ``chaos``) before it applies.

    The bus appends with a single ``O_APPEND`` write, so even a ``kill``
    firing reaches the JSONL before the process dies — resume tests
    correlate each firing with the recovery that follows.
    """
    from repro import obs

    if obs.enabled():
        obs.REGISTRY.counter("chaos.io_fire").inc()
        obs.emit(
            "chaos.io_fire", mode=fault.mode, op=op, occurrence=count, param=fault.param
        )
