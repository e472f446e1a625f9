"""Zero-dependency telemetry plane: structured events, spans, manifests.

The reproduction's campaign stack (campaign engine, Monte Carlo plane,
timing simulator) runs production-scale workloads but was previously
blind: task outcomes, worker deaths and MC convergence were invisible
except through final results.  This package makes them
observable without perturbing them:

* **Event bus** - :func:`emit` appends one JSON object per line to
  ``<run-dir>/events.jsonl``.  Every record carries a monotonic timestamp
  (``CLOCK_MONOTONIC`` is system-wide on Linux, so worker and parent
  events sort on one axis) and the emitting ``pid``.  Each line is written
  with a single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
  pool workers appending to the same file never interleave lines.  A run
  directory holds one uncapped stream; give each run its own directory.
  The default sink is ``None`` and :func:`emit` returns after **one global
  load and one identity check** - the disabled path adds no measurable
  cost to any hot loop (``benchmarks/bench_obs_overhead.py`` proves it).
* **Run manifest** - :func:`ensure_manifest` captures the reproducibility
  envelope (every registered ``REPRO_*`` knob via
  :mod:`repro.util.envcfg`, package version, hostname, interpreter,
  argv) into ``<run-dir>/manifest.json``.
* **Reading it back** - :class:`Follower` is the one parser of the
  stream, and :class:`repro.obs.progress.Tracker` the one rule that
  assigns engine events to campaigns.  ``python -m repro.obs.summarize
  <run-dir>`` renders a campaign report from the JSONL + manifest alone,
  ``repro.obs.progress`` tails per-campaign progress and
  ``repro.obs.export`` writes a Chrome trace.  Pool workers append to the
  same stream, so their counts add up where an in-process aggregate
  would only see the parent's.

Arming
------
``REPRO_OBS`` is one on/off flag (``1``/``true``/``on``/``yes``/``all``
arms; blank, ``0``/``false``/``off``/``no`` or unset keeps telemetry
off; anything else raises).  Armed, the bus records events *and* the
span plane (:mod:`repro.obs.trace`) records spans.  ``REPRO_OBS_DIR``
picks the run directory (default ``./.repro_obs``).  Both are read at
import time, so spawn-started worker processes arm themselves;
fork-started workers inherit the parent's armed sink (O_APPEND keeps
their writes atomic).  Tests and benchmarks arm programmatically via
:func:`configure` and restore the environment-driven state with
:func:`init_from_env`.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import time
from pathlib import Path

from repro.util import envcfg

#: Environment knobs (registered with repro.util.envcfg).
ENV_FLAG = "REPRO_OBS"
ENV_DIR = "REPRO_OBS_DIR"

EVENTS_FILE = "events.jsonl"
MANIFEST_FILE = "manifest.json"


class _JsonlSink:
    """Append-only JSONL writer; one atomic ``os.write`` per record."""

    __slots__ = ("run_dir", "path", "_fd")

    def __init__(self, run_dir: "Path | str"):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / EVENTS_FILE
        self._fd = None

    def write_line(self, text: str) -> None:
        fd = self._fd
        if fd is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            fd = self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(fd, text.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


class Follower:
    """The one ``events.jsonl`` parser: incremental and torn-line tolerant.

    A line that is not UTF-8 JSON — the half-written append of a killed
    writer (ENOSPC, SIGKILL, power loss) or a record straddling an I/O
    fault — is skipped with a one-line warning on stderr naming the file
    and line number; one bad record must never cost the rest of the
    stream.
    """

    def __init__(self, run_dir: "Path | str"):
        self.path = Path(run_dir) / EVENTS_FILE
        self._fh = None
        self._buf = b""
        self._lineno = 0  #: lines consumed so far

    def poll(self, final: bool = False) -> "list[dict]":
        """Every event appended since the last poll.

        A partial last line is a write in flight and waits for the next
        poll, unless *final* says the file is finished: then it is torn.
        """
        if self._fh is None:
            try:
                self._fh = open(self.path, "rb")
            except OSError:
                return []
        *lines, self._buf = (self._buf + self._fh.read()).split(b"\n")
        if final and self._buf:
            lines.append(self._buf)
            self._buf = b""
        events = []
        for line in lines:
            self._lineno += 1
            if not line.strip():
                continue
            try:
                events.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                print(
                    f"warning: {self.path}:{self._lineno}: skipping torn JSONL record",
                    file=sys.stderr,
                )
        return events

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: The active sink; ``None`` is the no-op default (the whole off path).
_sink: "_JsonlSink | None" = None

#: Ambient span as a picklable ``(trace_id, span_id)`` pair, or ``None``
#: outside any span.  :mod:`repro.obs.trace` nests spans through it and
#: :func:`emit` stamps every event with it, so flat events resolve into
#: the span forest.
_current: "contextvars.ContextVar[tuple[str, str] | None]" = contextvars.ContextVar(
    "repro_trace_span", default=None
)


def configure(run_dir: "Path | str | None" = None) -> Path:
    """Arm the bus programmatically; returns the run directory.

    *run_dir* defaults to ``REPRO_OBS_DIR``.  The events file is opened
    lazily on first emit, so arming never touches the filesystem by
    itself.
    """
    global _sink
    disarm()
    _sink = _JsonlSink(run_dir or envcfg.path(ENV_DIR))
    return _sink.run_dir


def disarm() -> None:
    """Return to the no-op default sink."""
    global _sink
    if _sink is not None:
        _sink.close()
    _sink = None


def init_from_env() -> "Path | None":
    """(Re)apply ``REPRO_OBS`` / ``REPRO_OBS_DIR``; unset disarms."""
    if envcfg.flag(ENV_FLAG):
        return configure()
    disarm()
    return None


def enabled() -> bool:
    """Is the bus armed?"""
    return _sink is not None


def run_dir() -> "Path | None":
    """Run directory of the armed sink, or None when disarmed."""
    return _sink.run_dir if _sink is not None else None


def emit(kind: str, **fields) -> None:
    """Append one structured event; a no-op while the bus is disarmed.

    Reserved fields ``kind``, ``ts`` (monotonic seconds), and ``pid`` are
    stamped by the bus and win over caller fields of the same name.
    """
    sink = _sink
    if sink is None:
        return
    rec = dict(fields)
    if "span" not in rec:
        ctx = _current.get()
        if ctx is not None:
            rec["trace"], rec["span"] = ctx
    rec["kind"] = kind
    rec["ts"] = round(time.monotonic(), 6)
    rec["pid"] = os.getpid()
    sink.write_line(json.dumps(rec, separators=(",", ":"), sort_keys=True, default=repr) + "\n")


def worker_config() -> "tuple[str, tuple[str, str] | None] | None":
    """Picklable arming state to ship to pool workers (None when off).

    ``(run_dir, span_ctx)``: *span_ctx* is the ambient ``(trace_id,
    span_id)`` pair (or ``None``) that worker-side spans parent to.
    """
    if _sink is None:
        return None
    return str(_sink.run_dir), _current.get()


def ensure_worker(cfg: "tuple | None") -> None:
    """Arm a worker process to the parent's config (idempotent).

    Fork-started workers inherit the parent's sink and only adopt the
    shipped span context; spawn-started workers (or workers of a parent
    armed programmatically after import) configure themselves here.
    """
    if cfg is None:
        return
    run_dir_s, span_ctx = cfg
    _current.set(tuple(span_ctx) if span_ctx else None)
    if _sink is None or str(_sink.run_dir) != run_dir_s:
        configure(run_dir_s)


def ensure_manifest(**extra) -> "Path | None":
    """Write/refresh ``manifest.json`` in the run dir; no-op when disarmed.

    Top-level *extra* keys merge into the existing manifest (atomic
    merge-on-write via :mod:`repro.util.cachefile`), so concurrent
    campaigns sharing a run dir keep each other's additions.  Without
    *extra*, an existing manifest is left untouched.
    """
    if _sink is None:
        return None
    from repro.obs.manifest import write_manifest

    path = _sink.run_dir / MANIFEST_FILE
    if not extra and path.exists():
        return path
    return write_manifest(_sink.run_dir, **extra)


init_from_env()
