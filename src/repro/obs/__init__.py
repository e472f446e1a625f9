"""Zero-dependency telemetry plane: structured events, metrics, manifests.

The reproduction's campaign stack (resilient engine, Monte Carlo plane,
timing simulator) runs production-scale workloads but was previously
blind: retries, pool rebuilds, degradation to serial, and MC convergence
were invisible except through final results.  This package makes them
observable without perturbing them:

* **Event bus** - :func:`emit` appends one JSON object per line to
  ``<run-dir>/events.jsonl``.  Every record carries a monotonic timestamp
  (``CLOCK_MONOTONIC`` is system-wide on Linux, so worker and parent
  events sort on one axis) and the emitting ``pid``.  Each line is written
  with a single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
  pool workers appending to the same file never interleave lines.  The
  default sink is ``None`` and :func:`emit` returns after **one global
  load and one identity check** - the disabled path adds no measurable
  cost to any hot loop (``benchmarks/bench_obs_overhead.py`` proves it).
* **Metrics registry** - :data:`REGISTRY` (see :mod:`repro.obs.metrics`):
  counters, gauges, timers with ``snapshot()``/``reset()``.
* **Run manifest** - :func:`ensure_manifest` captures the reproducibility
  envelope (every registered ``REPRO_*`` knob via
  :mod:`repro.util.envcfg`, package version, hostname, interpreter,
  argv) into ``<run-dir>/manifest.json``.
* **Summaries** - ``python -m repro.obs.summarize <run-dir>`` renders a
  human-readable campaign report from the JSONL + manifest alone.

Arming
------
``REPRO_OBS`` selects instrumented layers as a comma-separated mode list
(``engine``, ``mc``, ``sim``, ``chaos``, ``supervisor``, ``ecc``;
``all``/``1`` enables every mode); unset keeps telemetry off.  ``REPRO_OBS_DIR`` picks the run
directory (default ``./.repro_obs``).  Both are read at import time, so
spawn-started worker processes arm themselves; fork-started workers
inherit the parent's armed sink (O_APPEND keeps their writes atomic).
Tests and benchmarks arm programmatically via :func:`configure` and
restore the environment-driven state with :func:`init_from_env`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.obs.metrics import REGISTRY, MetricsRegistry  # noqa: F401 (re-export)

#: Environment knobs (registered with repro.util.envcfg).
ENV_MODES = "REPRO_OBS"
ENV_DIR = "REPRO_OBS_DIR"

DEFAULT_DIR = ".repro_obs"
EVENTS_FILE = "events.jsonl"
MANIFEST_FILE = "manifest.json"

#: Instrumented layers selectable in REPRO_OBS.
MODES = ("engine", "mc", "sim", "chaos", "supervisor", "ecc")

_ALL_TOKENS = frozenset({"1", "true", "on", "all"})


class _JsonlSink:
    """Append-only JSONL writer; one atomic ``os.write`` per record.

    With ``REPRO_OBS_MAX_BYTES`` set, a write that would push the stream
    past the cap first rotates ``events.jsonl`` to ``events.jsonl.1``
    (replacing any previous rotation).  Every append is one whole-line
    write, so the rename always lands on a line boundary; concurrent
    writers holding the old descriptor keep appending to the rotated
    file — never torn, only filed under the previous generation.
    """

    __slots__ = ("run_dir", "path", "_fd", "max_bytes")

    def __init__(self, run_dir: "Path | str", max_bytes: "int | None" = None):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / EVENTS_FILE
        self._fd = None
        self.max_bytes = max_bytes

    def _open(self) -> int:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        return self._fd

    def write_line(self, text: str) -> None:
        fd = self._fd
        if fd is None:
            fd = self._open()
        data = text.encode("utf-8")
        if self.max_bytes:
            fd = self._maybe_rotate(fd, len(data))
        os.write(fd, data)

    def _maybe_rotate(self, fd: int, incoming: int) -> int:
        """Rotate when the stream would exceed the cap; returns a live fd.

        Another process may have rotated already (the descriptor no longer
        names ``events.jsonl``): then this writer just reopens the fresh
        stream instead of rotating the new generation straight out again.
        """
        try:
            size = os.fstat(fd).st_size
        except OSError:
            return fd
        if size == 0 or size + incoming <= self.max_bytes:
            return fd
        rotated = size
        try:
            current = os.stat(self.path)
            stale = current.st_ino != os.fstat(fd).st_ino
        except OSError:
            stale = False
        if not stale:
            try:
                os.replace(self.path, self.path.with_name(EVENTS_FILE + ".1"))
            except OSError:
                return fd
        self.close()
        fd = self._open()
        rec = {
            "kind": "obs.rotate",
            "ts": round(time.monotonic(), 6),
            "pid": os.getpid(),
            "rotated_bytes": rotated,
            "max_bytes": self.max_bytes,
        }
        os.write(fd, (json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n").encode())
        return fd

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


def decode_line(line: bytes, path, lineno: int, what: str = "JSONL record"):
    """One raw JSONL line as its object; ``None`` when blank or torn.

    A torn line — not UTF-8, or not JSON: the half-written append of a
    killed writer (ENOSPC, SIGKILL, power loss) or a record straddling an
    I/O fault — is skipped with a one-line warning on stderr naming the
    file and line number; one bad record must never cost the rest of the
    stream.  Every JSONL reader (:mod:`~repro.obs.summarize`,
    :mod:`~repro.obs.progress`, :mod:`~repro.obs.history`) decodes through
    this.
    """
    if not line.strip():
        return None
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        print(f"warning: {path}:{lineno}: skipping torn {what}", file=sys.stderr)
        return None


def read_jsonl(path: "Path | str", what: str = "JSONL record") -> list:
    """Every intact line of a JSONL file in order; ``[]`` when it is missing."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return []
    with fh:
        lines = [decode_line(line, path, n, what) for n, line in enumerate(fh, 1)]
    return [obj for obj in lines if obj is not None]


#: The active sink; ``None`` is the no-op default (the whole off path).
_sink: "_JsonlSink | None" = None
_modes: frozenset = frozenset()

#: Ambient-span provider installed by :mod:`repro.obs.trace` while the
#: span plane is armed; ``None`` (the default) keeps :func:`emit` free of
#: any trace cost.  When set, it returns the current ``(trace_id,
#: span_id)`` pair (or ``None`` outside any span) and every emitted event
#: is stamped with it, so flat events resolve into the span forest.
_span_provider = None


def parse_modes(raw: "str | None") -> frozenset:
    """Parse a REPRO_OBS value into a mode set; malformed raises eagerly."""
    raw = (raw or "").strip()
    if not raw:
        return frozenset()
    out = set()
    for tok in raw.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok in _ALL_TOKENS:
            out.update(MODES)
        elif tok in MODES:
            out.add(tok)
        else:
            raise ValueError(
                f"{ENV_MODES} mode must be one of {MODES} or 'all', got {tok!r}"
            )
    return frozenset(out)


def configure(run_dir: "Path | str | None" = None, modes: "str | object" = "all") -> "Path | None":
    """Arm the bus programmatically; returns the run directory (or None).

    *modes* is a REPRO_OBS-style string or an iterable of mode names; an
    empty set disarms.  The events file is opened lazily on first emit, so
    arming never touches the filesystem by itself.
    """
    from repro.util import envcfg  # deferred: envcfg is import-light but cyclic

    global _sink, _modes
    parsed = parse_modes(modes) if isinstance(modes, str) else frozenset(modes)
    if _sink is not None:
        _sink.close()
    if not parsed:
        _sink = None
        _modes = frozenset()
        return None
    _sink = _JsonlSink(
        run_dir or os.environ.get(ENV_DIR) or DEFAULT_DIR,
        max_bytes=envcfg.obs_max_bytes(),
    )
    _modes = parsed
    return _sink.run_dir


def disarm() -> None:
    """Return to the no-op default sink."""
    configure(modes=frozenset())


def init_from_env() -> "Path | None":
    """(Re)apply ``REPRO_OBS`` / ``REPRO_OBS_DIR``; unset disarms."""
    modes = parse_modes(os.environ.get(ENV_MODES))
    if not modes:
        disarm()
        return None
    return configure(os.environ.get(ENV_DIR) or DEFAULT_DIR, modes)


def enabled(mode: "str | None" = None) -> bool:
    """Is the bus armed (and, if given, is *mode*'s layer instrumented)?"""
    if _sink is None:
        return False
    return mode is None or mode in _modes


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
    provider = _span_provider
    if provider is not None and "span" not in rec:
        ctx = provider()
        if ctx is not None:
            rec["trace"], rec["span"] = ctx
    rec["kind"] = kind
    rec["ts"] = round(time.monotonic(), 6)
    rec["pid"] = os.getpid()
    sink.write_line(json.dumps(rec, separators=(",", ":"), sort_keys=True, default=repr) + "\n")


def worker_config() -> "tuple[str, str, tuple | None] | None":
    """Picklable arming state to ship to pool workers (None when off).

    Third element: the parent's span-plane state — ``None`` when tracing
    is off, else the ambient ``(trace_id, span_id)`` pair (itself possibly
    ``None``) that worker-side spans should parent to.
    """
    if _sink is None:
        return None
    from repro.obs import trace

    tctx = (trace.ctx(),) if trace.armed() else None
    return str(_sink.run_dir), ",".join(sorted(_modes)), tctx


def ensure_worker(cfg: "tuple | None") -> None:
    """Arm a worker process to the parent's config (idempotent).

    Fork-started workers inherit the parent's sink and return immediately;
    spawn-started workers (or workers of a parent armed programmatically
    after import) configure themselves here.  The span plane is (dis)armed
    to match the parent either way.
    """
    if cfg is None:
        return
    run_dir_s, modes_s, tctx = cfg
    from repro.obs import trace

    trace.arm(tctx is not None)
    if tctx is not None:
        trace.adopt(tctx[0])
    if _sink is not None and str(_sink.run_dir) == run_dir_s and _modes == parse_modes(modes_s):
        return
    configure(run_dir_s, modes_s)


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

# Imported for its import-time REPRO_TRACE arming (installs _span_provider);
# must come after init_from_env so the sink state it checks is settled.
from repro.obs import trace as _trace  # noqa: E402,F401
