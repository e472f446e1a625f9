"""Span-forest reconstruction, critical path, and wall-time attribution.

Consumes the flat ``trace.span`` records the span plane
(:mod:`repro.obs.trace`) appends to ``events.jsonl`` and rebuilds the
causal structure of a campaign:

* :func:`build_forest` — parent-link the spans of each trace into trees.
  A span whose parent never closed (a chaos ``crash`` kills the worker
  between a child's emit and the parent's) gets a **synthetic** parent
  node spanning its children, attached to the trace's root, so the
  forest stays complete through crashes.
* :func:`critical_path` — the chain of latest-finishing descendants from
  a root: the spans that determined the campaign's wall-clock time.
* :func:`attribute` — sweep the root's wall-clock window and charge every
  instant to exactly one bucket (buckets sum to the root's wall by
  construction):

  ========  ==========================================================
  bucket    instants where the highest-precedence active descendant is
  ========  ==========================================================
  codec     a ``codec`` span (result encode/decode)
  sim       a ``sim`` span (timing-simulator runs and epochs)
  mc        an ``mc`` span (Monte Carlo chunk loops and shards)
  compute   a ``compute`` span (worker task bodies outside sim/mc)
  retry     a ``retry`` span (backoff sleeps, pool rebuilds)
  dispatch  any other span (queueing, submission, envelope overhead)
  idle      no descendant span at all is active
  ========  ==========================================================

  Precedence (codec > sim > mc > compute > retry > dispatch) charges an
  instant to the most specific work happening anywhere in the campaign:
  a spool decode racing a worker's compute charges to codec only for
  the microseconds it actually takes, and a task body charges to
  ``compute`` only where no simulator or MC span runs.

:func:`trace_summary` packages forest + critical path + buckets as the
``trace`` section of :func:`repro.obs.summarize.summarize`.
"""

from __future__ import annotations

#: Category → attribution bucket (anything else falls into ``dispatch``).
BUCKET_BY_CAT = {
    "codec": "codec",
    "sim": "sim",
    "mc": "mc",
    "compute": "compute",
    "retry": "retry",
}

#: Sweep precedence, most specific first; ``idle`` is the absence of all.
BUCKET_PRECEDENCE = ("codec", "sim", "mc", "compute", "retry", "dispatch")

BUCKETS = BUCKET_PRECEDENCE + ("idle",)


class SpanNode:
    """One reconstructed span; ``synthetic`` marks a never-closed parent."""

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "cat",
        "t0",
        "t1",
        "fields",
        "children",
        "synthetic",
    )

    def __init__(self, span_id, trace_id, parent_id, name, cat, t0, t1, fields, synthetic=False):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.t0 = t0
        self.t1 = t1
        self.fields = fields
        self.children: "list[SpanNode]" = []
        self.synthetic = synthetic

    @property
    def wall_s(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "wall_s": round(self.wall_s, 6),
            "synthetic": self.synthetic,
            "children": len(self.children),
        }


_RESERVED = frozenset({"kind", "ts", "pid", "trace", "span", "parent", "name", "cat", "t0", "t1"})


def build_forest(events: "list[dict]") -> "dict[str, list[SpanNode]]":
    """Rebuild ``{trace_id: [roots]}`` from a run's event stream.

    Dangling parent references (the parent crashed before closing) become
    synthetic nodes whose window covers their children; a synthetic node
    is attached under the trace's real root when one exists, so every
    span still resolves to it.
    """
    nodes: "dict[str, SpanNode]" = {}
    for e in events:
        if e.get("kind") != "trace.span" or "span" not in e or "trace" not in e:
            continue
        fields = {k: v for k, v in e.items() if k not in _RESERVED}
        nodes[e["span"]] = SpanNode(
            e["span"],
            e["trace"],
            e.get("parent"),
            e.get("name", "?"),
            e.get("cat", ""),
            float(e.get("t0", 0.0)),
            float(e.get("t1", 0.0)),
            fields,
        )

    # Synthesize never-closed parents (windows grown below from children).
    for node in list(nodes.values()):
        pid = node.parent_id
        if pid is not None and pid not in nodes:
            nodes[pid] = SpanNode(
                pid, node.trace_id, None, "(lost)", "", node.t0, node.t1, {}, synthetic=True
            )

    # A flat event stamped with a span that never closed (the worker died
    # mid-span, so no ``trace.span`` record ever followed) still names a
    # causal position; synthesize a zero-width node at the event's
    # timestamp so the event resolves into the forest like any other.
    for e in events:
        span_id, trace_id = e.get("span"), e.get("trace")
        if (
            e.get("kind") == "trace.span"
            or span_id is None
            or trace_id is None
            or span_id in nodes
        ):
            continue
        ts = float(e.get("ts", 0.0))
        nodes[span_id] = SpanNode(
            span_id, trace_id, None, "(lost)", "", ts, ts, {}, synthetic=True
        )

    forest: "dict[str, list[SpanNode]]" = {}
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            forest.setdefault(node.trace_id, []).append(node)

    # Grow synthetic windows over their subtrees, then re-root synthetic
    # orphans under the trace's real root (the campaign) when it exists.
    for roots in forest.values():
        for root in roots:
            if root.synthetic:
                ts = [t for c in root.walk() if not c.synthetic for t in (c.t0, c.t1)]
                if ts:
                    root.t0, root.t1 = min(ts), max(ts)
    for trace_id, roots in forest.items():
        real = [r for r in roots if not r.synthetic]
        if len(real) >= 1 and len(roots) > len(real):
            primary = max(real, key=lambda r: r.wall_s)
            for r in roots:
                if r.synthetic:
                    r.parent_id = primary.span_id
                    primary.children.append(r)
            forest[trace_id] = real
    for roots in forest.values():
        for root in roots:
            for node in root.walk():
                node.children.sort(key=lambda n: (n.t0, n.span_id))
    return dict(sorted(forest.items()))


def resolve_root(forest: "dict[str, list[SpanNode]]", trace_id: str, span_id: str) -> "SpanNode | None":
    """The root that *span_id* of *trace_id* resolves to, or None."""
    for root in forest.get(trace_id, ()):
        for node in root.walk():
            if node.span_id == span_id:
                return root
    return None


def primary_root(forest: "dict[str, list[SpanNode]]") -> "SpanNode | None":
    """The longest-wall non-synthetic root across every trace (the campaign)."""
    roots = [r for rs in forest.values() for r in rs if not r.synthetic]
    if not roots:
        roots = [r for rs in forest.values() for r in rs]
    return max(roots, key=lambda r: r.wall_s, default=None)


def critical_path(root: SpanNode) -> "list[SpanNode]":
    """The latest-finishing descendant chain from *root* downward.

    At every level the child that finished last is the one the parent was
    (transitively) waiting on — the campaign could not have ended sooner
    than that chain allowed.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda c: (c.t1, c.t0, c.span_id))
        path.append(node)
    return path


def attribute(root: SpanNode) -> "dict[str, float]":
    """Charge every instant of *root*'s window to one bucket (seconds).

    Boundary sweep over the clamped descendant intervals; buckets sum to
    ``root.wall_s`` exactly (up to float rounding), so coverage of the
    campaign wall is total by construction — ``idle`` is the remainder no
    descendant claims.
    """
    lo, hi = root.t0, root.t1
    intervals = []  # (t0, t1, bucket)
    for node in root.walk():
        if node is root:
            continue
        t0, t1 = max(node.t0, lo), min(node.t1, hi)
        if t1 > t0:
            intervals.append((t0, t1, BUCKET_BY_CAT.get(node.cat, "dispatch")))
    buckets = dict.fromkeys(BUCKETS, 0.0)
    if hi <= lo:
        return buckets
    cuts = sorted({lo, hi, *(t for iv in intervals for t in iv[:2])})
    rank = {b: i for i, b in enumerate(BUCKET_PRECEDENCE)}
    for left, right in zip(cuts, cuts[1:]):
        active = [b for t0, t1, b in intervals if t0 <= left and t1 >= right]
        bucket = min(active, key=rank.__getitem__) if active else "idle"
        buckets[bucket] += right - left
    return {b: round(s, 6) for b, s in buckets.items()}


def trace_summary(events: "list[dict]") -> "dict | None":
    """The ``trace`` section of a run summary (None without spans).

    Buckets and critical path are computed for the primary (longest) root
    — one campaign per run directory is the common case; other traces are
    still counted.
    """
    forest = build_forest(events)
    if not forest:
        return None
    root = primary_root(forest)
    all_nodes = [n for rs in forest.values() for r in rs for n in r.walk()]
    summary = {
        "spans": sum(1 for n in all_nodes if not n.synthetic),
        "synthetic": sum(1 for n in all_nodes if n.synthetic),
        "traces": len(forest),
        "roots": sum(len(rs) for rs in forest.values()),
    }
    if root is None:
        return summary
    buckets = attribute(root)
    path = critical_path(root)
    summary.update(
        {
            "root": root.to_dict(),
            "wall_s": round(root.wall_s, 6),
            "buckets": buckets,
            "coverage": (
                round(sum(buckets.values()) / root.wall_s, 4) if root.wall_s > 0 else 1.0
            ),
            "critical_path": [n.to_dict() for n in path],
        }
    )
    return summary
