"""Outside-in layer tracer for the end-to-end benchmark.

The traced pass measures each layer from outside only: :class:`Tracer`
replaces a fixed table of entry points (module functions, class methods)
with wrappers that record one span per call and count the work in the
values the call returns, then puts every original attribute back.  Nothing
under ``src/`` is edited or instrumented.

A layer's *self time* is its spans' durations minus the part of each
interval its child spans cover; whatever the pass spends outside every
layer span is ``unattributed``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "int | None" = None  #: index of the enclosing span, None for the root


def self_times(spans: "list[Span]") -> "list[float]":
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's window."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def layer_self_times(spans: "list[Span]") -> "dict[str, float]":
    """Self time summed per span name."""
    totals: "dict[str, float]" = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def chrome_trace(spans: "list[Span]") -> dict:
    """Spans as Chrome trace-event JSON (complete events, microseconds)."""
    t0 = min((s.start for s in spans), default=0.0)
    return {
        "traceEvents": [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for s in spans
        ],
        "displayTimeUnit": "ms",
    }


# -- count hooks: (tracer, args, kwargs, result) -> None -----------------------------


def _count_refs(tr, args, kwargs, result):
    tr.add("workloads.refs", len(result[0]))


def _count_sim(tr, args, kwargs, result):
    tr.add("cpu.sims", 1)
    tr.add("cpu.events", args[0].events_scheduled)


def _count_native(tr, args, kwargs, result):
    tr.add("cpu.native_sims", 1)


def _count_cache_write(tr, args, kwargs, result):
    tr.add("util.cachefile.writes", 1)
    tr.add("util.cachefile.bytes_written", os.path.getsize(args[0]))


def _count_encode(tr, args, kwargs, result):
    tr.add("gf.encode_words", int(result.size // result.shape[-1]))


def _count_decode(tr, args, kwargs, result):
    tr.add("gf.decode_words", int(result.ok.size))


def _nested(tr, prefix: str) -> bool:
    """Is the hook's span inside another span of the same layer?  Front
    doors nest (an override calling ``super()``, ``run_is_coverage`` ->
    ``run_is``); only the outermost call counts its work."""
    return any(tr.spans[i].name.startswith(prefix) for i in tr.stack[:-1])


def _count_lines(tr, args, kwargs, result):
    if not _nested(tr, "ecc.correct_lines"):
        tr.add("ecc.lines", int(result.ok.size))


def _count_read_lines(tr, args, kwargs, result):
    tr.add("core.machine.lines_read", int(result.ok.size))


def _count_trials(tr, args, kwargs, result):
    if not _nested(tr, "faults."):
        trials = result.trials if hasattr(result, "trials") else len(result.fractions)
        tr.add("faults.trials", int(trials))
        tr.add("faults.ess", float(result.ess) if hasattr(result, "ess") else float(trials))


@dataclass(frozen=True)
class Target:
    """One entry point: ``attr`` of ``owner`` (a module path or
    ``module:Class``), recorded as span *name* (None: count only)."""

    owner: str
    attr: str
    name: "str | None"
    count: "object | None" = None
    subclasses: bool = False  #: also patch every subclass that overrides *attr*


#: The traced entry points, by layer.  Module-level functions are patched
#: in every ``repro`` module that imported them by name.
TARGETS = (
    Target("repro.workloads.generator:TraceStream", "take_batch", "workloads.take_batch", _count_refs),
    Target("repro.cpu.system:SimSystem", "run", None, _count_sim),
    Target("repro.cpu.system:SimSystem", "_run_reference", "cpu.event_loop"),
    Target("repro.cpu.batchkernel", "_run_epoch_py", "cpu.python_epoch"),
    Target("repro.cpu.epochnative", "run_native", "cpu.native_epoch", _count_native),
    Target("repro.dram.power:RankPowerModel", "integrate", "dram.power"),
    Target("repro.experiments.runner", "build_system", "experiments.runner.build"),
    Target("repro.util.cachefile", "write_json_cache_atomic", "util.cachefile.write", _count_cache_write),
    Target("repro.util.cachefile", "load_json_cache", "util.cachefile.read"),
    Target("repro.gf.reed_solomon:ReedSolomon", "encode", "gf.encode", _count_encode),
    Target("repro.gf.reed_solomon:ReedSolomon", "syndromes", "gf.syndromes"),
    Target("repro.gf.reed_solomon:ReedSolomon", "decode", "gf.decode", _count_decode),
    Target("repro.ecc.base:ECCScheme", "correct_lines", "ecc.correct_lines", _count_lines, True),
    Target("repro.ecc.checksum", "ones_complement_checksum16", "ecc.checksum"),
    Target("repro.core.machine:ECCParityMachine", "__init__", "core.machine.build"),
    Target("repro.core.machine:ECCParityMachine", "read_lines", "core.machine.read_lines", _count_read_lines),
    Target("repro.faults.montecarlo:EolCapacitySim", "run", "faults.eol_mc", _count_trials),
    Target("repro.faults.rareevent", "run_plain", "faults.rareevent", _count_trials),
    Target("repro.faults.rareevent", "run_is", "faults.rareevent", _count_trials),
    Target("repro.faults.rareevent", "run_stratified", "faults.rareevent", _count_trials),
    Target("repro.faults.rareevent", "run_is_coverage", "faults.rareevent", _count_trials),
)

#: Every span name the tracer can record; the root is ``pass``.
LAYERS = sorted({t.name for t in TARGETS if t.name} | {"experiments.parallel", "experiments.task"})


@dataclass
class Tracer:
    """In-memory span recorder that patches :data:`TARGETS` while active.

    Use as a context manager around one serial pass; on exit every
    patched attribute is restored (and checked to be restored).  Entry
    points missing from the program are skipped and listed in
    :attr:`missing`, so a later refactor that removes a layer leaves its
    time unattributed rather than breaking the benchmark.
    """

    spans: "list[Span]" = field(default_factory=list)
    stack: "list[int]" = field(default_factory=list)
    counts: "dict[str, float]" = field(default_factory=dict)
    missing: "list[str]" = field(default_factory=list)
    _patches: "list[tuple[object, str, object]]" = field(default_factory=list)

    # -- recording -----------------------------------------------------------------

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        while self.stack and self.stack.pop() != idx:
            pass

    def wrap(self, fn, name: "str | None", count=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
            if count is not None:
                if idx is not None:
                    tracer.stack.append(idx)  # let the hook see its own span on the stack
                    try:
                        count(tracer, args, kwargs, result)
                    finally:
                        tracer.stack.pop()
                else:
                    count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_tasks(self, fn):
        """``run_tasks`` is a generator: its span stays open until the
        campaign is drained, and each task body gets its own span."""
        tracer = self

        def traced(worker, payloads, *args, **kwargs):
            payloads = list(payloads)
            tracer.add("experiments.parallel.tasks", len(payloads))
            body = tracer.wrap(worker, "experiments.task")
            idx = tracer.open("experiments.parallel")
            try:
                yield from fn(body, payloads, *args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, wrapper) -> None:
        """Replace *fn* in every loaded ``repro`` module bound to it."""
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        for t in TARGETS:
            mod_name, _, cls_name = t.owner.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                fn = getattr(owner, t.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{t.owner}.{t.attr}")
                continue
            if not cls_name:
                self._patch_function(fn, self.wrap(fn, t.name, t.count))
                continue
            classes = [owner]
            if t.subclasses:
                pending = list(owner.__subclasses__())
                while pending:
                    cls = pending.pop()
                    pending.extend(cls.__subclasses__())
                    if t.attr in cls.__dict__:
                        classes.append(cls)
            for cls in classes:
                self._set(cls, t.attr, self.wrap(cls.__dict__[t.attr], t.name, t.count))
        from repro.experiments import parallel

        self._patch_function(parallel.run_tasks, self._wrap_run_tasks(parallel.run_tasks))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    # -- results -------------------------------------------------------------------

    def layer_table(self) -> "dict[str, float]":
        """Self seconds per layer (every name in :data:`LAYERS`, plus ``pass``)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        totals.update(layer_self_times(self.spans))
        return totals

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(chrome_trace(self.spans), fh)
