"""Causal span plane: cross-process traces on the JSONL event bus.

The event bus (:mod:`repro.obs`) records *what happened* as flat events;
this module adds *why it took that long*: every instrumented operation
runs inside a **span** — a ``(trace_id, span_id, parent_id)`` context
with monotonic start/end stamps and a category tag — emitted as a single
``trace.span`` event when the span closes.  Because spans ride the same
O_APPEND JSONL stream as ordinary events, one campaign reconstructs as a
single span forest (:mod:`repro.obs.spantree`) even through batched
super-tasks, worker deaths, and crash/resume.

Design constraints, in order:

1. **Disarmed is free.**  With the event bus disarmed (the default)
   :func:`span` is one global load and one branch, returning a shared
   no-op singleton.  ``bench_obs_overhead.py`` holds this to < 2% on
   both simulator kernels.
2. **Propagation is explicit and picklable.**  A span context crosses a
   process boundary as a plain ``(trace_id, span_id)`` tuple: the engine
   threads it through the task envelope (:func:`repro.obs.worker_config`).
3. **Ambient by default, explicit when needed.**  Spans nest through the
   bus's :class:`contextvars.ContextVar` (``repro.obs._current``), which
   :func:`repro.obs.emit` also stamps onto every event; pass ``parent=``
   to override (e.g. worker-side spans parent to the dispatch-time
   context shipped in the envelope, not to whatever the worker last ran).

Arming
------
The plane has no switch of its own: spans are recorded exactly while the
event bus is armed (``REPRO_OBS``, or :func:`repro.obs.configure`).

Span event schema (``kind == "trace.span"``)::

    trace   16-hex trace id shared by the whole forest
    span    16-hex span id (unique per span)
    parent  16-hex parent span id, or null for a root
    name    operation name, e.g. "engine.task"
    cat     attribution bucket: dispatch|compute|mc|sim
    t0, t1  monotonic start/end seconds (same axis as event ``ts``)

plus any keyword fields given at start, :meth:`Span.annotate`, or end.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.obs import _current

#: Kept for callers that re-apply the environment through this module.
init_from_env = obs.init_from_env


def new_id() -> str:
    """A fresh 64-bit id as 16 hex chars (collision odds are negligible)."""
    return os.urandom(8).hex()


class _NoopSpan:
    """Shared do-nothing span returned while the bus is disarmed."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **fields) -> None:
        pass

    def end(self, **extra) -> None:
        pass


NOOP = _NoopSpan()


class Span:
    """A live span; use as a context manager or call :meth:`end` exactly once.

    The explicit :meth:`end` form exists for generator-shaped scopes
    (e.g. ``run_tasks`` yields mid-span): a :class:`~contextvars.ContextVar`
    token set inside a generator may not be resettable from the caller's
    context, so ``end`` falls back to re-installing the parent directly.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "cat",
        "fields",
        "t0",
        "_token",
        "_ended",
    )

    def __init__(self, name: str, cat: str, parent: "tuple[str, str] | None", fields: dict):
        if parent is not None:
            self.trace_id, self.parent_id = parent
        else:
            ambient = _current.get()
            if ambient is not None:
                self.trace_id, self.parent_id = ambient
            else:
                self.trace_id = new_id()
                self.parent_id = None
        self.span_id = new_id()
        self.name = name
        self.cat = cat
        self.fields = fields
        self._ended = False
        self.t0 = time.monotonic()
        self._token = _current.set((self.trace_id, self.span_id))

    def annotate(self, **fields) -> None:
        """Attach fields to be emitted with the closing event."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.end(error=repr(exc))
        else:
            self.end()
        return False

    def end(self, **extra) -> None:
        """Close the span and emit its ``trace.span`` record (idempotent)."""
        if self._ended:
            return
        self._ended = True
        t1 = time.monotonic()
        try:
            _current.reset(self._token)
        except ValueError:
            # Token minted in another context (generator/thread hand-off):
            # restore the parent by value instead.
            _current.set(
                (self.trace_id, self.parent_id) if self.parent_id else None
            )
        payload = dict(self.fields)
        payload.update(extra)
        payload.update(
            trace=self.trace_id,
            span=self.span_id,
            parent=self.parent_id,
            name=self.name,
            cat=self.cat,
            t0=round(self.t0, 6),
            t1=round(t1, 6),
        )
        obs.emit("trace.span", **payload)


def span(
    name: str,
    cat: str = "",
    parent: "tuple[str, str] | None" = None,
    **fields,
) -> "Span | _NoopSpan":
    """Open a span (the shared no-op singleton while the bus is disarmed).

    *parent* overrides the ambient context; otherwise the span nests under
    the current one, or starts a new root trace.
    """
    if obs._sink is None:
        return NOOP
    return Span(name, cat, parent, fields)
