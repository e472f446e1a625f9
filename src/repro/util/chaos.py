"""Deterministic host/I-O fault injection for the checkpointed result store.

The campaign engine (:mod:`repro.experiments.parallel`) recovers from a
failed campaign by rerunning it: the evaluation matrix resumes from its
checkpoint log (:class:`repro.util.cachefile.Checkpoint`).  That log is
only trustworthy if its recovery paths are *exercised*, not just
written, so it has to survive faults of the *host* — a full disk, a
dying filesystem, the driver itself being killed.  A spec armed via
:func:`arm_io` injects those at named I/O sites (every one runs in the
driver process)::

    mode[=param]@op[#n]

* ``mode`` — ``enospc`` (the site raises ``OSError(ENOSPC)``), ``eio``
  (``OSError(EIO)``), ``torn`` (the site writes only the first *param*
  bytes — default :data:`DEFAULT_TORN_BYTES` — then fails, simulating a
  crash mid-write), or ``kill`` (the *current process* dies via
  ``SIGKILL`` — used with a subprocess harness to kill the driver at an
  exact checkpoint-log record).
* ``op`` — one of :data:`IO_SITES`, the sites instrumented with
  :func:`io_fire`: ``cache.write`` (a checkpoint-log append, or the
  temp-file write of an atomic cache rewrite) and ``cache.rename``.
  Any other name is rejected, so a spec cannot arm a fault that never
  fires.
* ``n`` — which occurrence of the site fires the fault (1-based, counted
  per process; default ``1``; ``*`` = every occurrence).

Example: ``"enospc@cache.write#3,kill@cache.rename#2"``.

Sites call ``io_fire(op)`` which is a no-op (fast early return) unless a
spec is armed, so production code pays nothing.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass

#: Default byte cap for ``torn`` faults — small enough to guarantee the
#: record/frame being written is visibly truncated.
DEFAULT_TORN_BYTES = 16.0

_IO_MODES = ("enospc", "eio", "torn", "kill")

#: Every instrumented I/O site; :func:`parse_io` rejects any other op.
IO_SITES = ("cache.write", "cache.rename")


@dataclass(frozen=True)
class IOFault:
    """One parsed host/I-O fault entry."""

    mode: str  #: "enospc" | "eio" | "torn" | "kill"
    op: str  #: one of IO_SITES, e.g. "cache.write"
    occurrence: "int | None"  #: 1-based occurrence to hit; None = every
    param: float  #: byte cap (torn)

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
        if param and mode != "torn":
            raise ValueError(f"io chaos mode {mode!r} takes no parameter: {entry!r}")
        op, _, occ_s = tail.partition("#")
        op = op.strip()
        if op not in IO_SITES:
            raise ValueError(f"io chaos op must be one of {IO_SITES}: {entry!r}")
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
        else:
            value = 0.0
        faults.append(IOFault(mode, op, occurrence, value))
    return tuple(faults)


# () = disarmed.  Counters are per-process and per-site.
_io_faults: "tuple[IOFault, ...]" = ()
_io_counts: "dict[str, int]" = {}


def arm_io(spec: "str | None") -> None:
    """Arm (or, with ``None``/empty, disarm) the I/O plane process-locally.

    Resets the per-site occurrence counters, so tests get deterministic
    firing regardless of what ran before.
    """
    global _io_faults
    _io_faults = parse_io(spec) if spec else ()
    _io_counts.clear()


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
    mid-write.
    """
    faults = _io_faults
    if not faults:
        return None
    count = _io_counts.get(op, 0) + 1
    _io_counts[op] = count
    for fault in faults:
        if fault.matches(op, count):
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

