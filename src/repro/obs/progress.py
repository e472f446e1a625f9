"""Live campaign progress, and the one campaign reducer of the event stream.

``python -m repro.obs.progress <run-dir>`` tails ``events.jsonl`` through
:class:`repro.obs.Follower` — safely against a writer appending
concurrently — and tracks per-campaign completion.  Two output modes:

* **TTY view** (default): one progress bar per campaign with completion,
  throughput (from event timestamps), and a rate-based ETA, re-rendered
  in place on every poll.
* **``--json``**: one machine-readable line per settlement::

      {"campaign":"campaign-1","done":3,"failed":0,"total":24}

  Lines carry **only deterministic fields**: the campaign label
  (``campaign-<ordinal>`` in stream order), the
  running settled/failed counters, and the task total.  ``done`` counts
  settlements ``1..N`` in arrival order, so the byte stream is identical
  for serial and parallel runs of the same campaign even though tasks
  finish in different orders — throughput and ETA, which are not
  deterministic, appear only in the TTY view.

:class:`Tracker` is also what :mod:`repro.obs.summarize` reduces its
per-task rows with, so both readers count every campaign alike.
"""

from __future__ import annotations

import json
import sys
import time

from repro.obs import Follower


class Tracker:
    """Reduce an event stream, one event at a time, into campaigns.

    :func:`~repro.experiments.parallel.run_tasks` stamps each of its
    ``engine.*`` events with ``campaign``, the id of its campaign span.
    An event belongs to the campaign whose ``engine.start`` carried the
    same stamp, so nested and interleaved campaigns keep their own
    counts.  Campaigns are numbered in ``engine.start`` order.

    :meth:`feed` returns the deterministic progress line (dict) of a
    settlement, else ``None``; :attr:`campaigns` holds the running state:
    counters, first/last timestamps for the TTY view's rate estimates,
    the start and done events, and one row per task.  The engine runs
    each task once, so a row carries one ``status`` (``pending``,
    ``running`` once submitted, then ``ok`` or ``failed``), the
    ``worker_pid`` and ``wall_s`` of its success or the ``error`` of its
    failure.
    """

    def __init__(self):
        self.campaigns: "list[dict]" = []
        self._by_stamp: "dict[str | None, dict]" = {}

    def feed(self, event: dict) -> "dict | None":
        kind = event.get("kind", "")
        if not kind.startswith("engine."):
            return None
        ts = event.get("ts")
        if kind == "engine.start":
            c = {
                "campaign": f"campaign-{len(self.campaigns) + 1}",
                "total": int(event.get("tasks", 0)),
                "done": 0,
                "failed": 0,
                "first_ts": ts,
                "last_ts": ts,
                "start": event,
                "end": None,
                "tasks": {},
            }
            self.campaigns.append(c)
            self._by_stamp[event.get("campaign")] = c
            return None
        c = self._by_stamp.get(event.get("campaign"))
        if c is None:
            return None
        if kind == "engine.done":
            c["end"] = event
            return None
        if "index" not in event:
            return None
        index = int(event["index"])
        task = c["tasks"].setdefault(
            index,
            {"index": index, "status": "pending", "worker_pid": None, "error": None,
             "wall_s": None},
        )
        if kind == "engine.submit":
            task["status"] = "running"
            return None
        if kind == "engine.ok":
            c["done"] += 1
            task["status"] = "ok"
            task["wall_s"] = event.get("wall_s")
            task["worker_pid"] = event.get("worker_pid")
        elif kind == "engine.fail":
            c["failed"] += 1
            task["status"] = "failed"
            task["error"] = f"{event.get('reason', '?')}: {event.get('error', '')}"
        else:
            return None
        if ts is not None:
            c["last_ts"] = ts
        return {k: c[k] for k in ("campaign", "done", "failed", "total")}


def _dumps(line: dict) -> str:
    return json.dumps(line, separators=(",", ":"), sort_keys=True)


def json_lines(events: "list[dict]") -> "list[str]":
    """The full deterministic ``--json`` stream for an event list."""
    tracker = Tracker()
    return [_dumps(line) for line in map(tracker.feed, events) if line]


def _render(campaigns: "list[dict]", width: int = 28) -> "list[str]":
    lines = []
    for c in campaigns:
        total = max(c["total"], 1)
        settled = c["done"] + c["failed"]
        frac = min(1.0, settled / total)
        bar = "#" * round(frac * width)
        rate = eta = None
        if c["first_ts"] is not None and c["last_ts"] is not None and c["done"] > 0:
            span = c["last_ts"] - c["first_ts"]
            if span > 0:
                rate = c["done"] / span
                if rate > 0 and c["end"] is None:
                    eta = max(0.0, (c["total"] - settled) / rate)
        state = "done" if c["end"] else (f"eta {eta:.1f}s" if eta is not None else "...")
        rate_s = f"{rate:.1f}/s" if rate is not None else "-"
        failed = f"  {c['failed']} failed" if c["failed"] else ""
        lines.append(
            f"{c['campaign']:<16} [{bar:<{width}}] "
            f"{settled}/{c['total']}  {rate_s:<8} {state}{failed}"
        )
    return lines


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.progress",
        description="Per-campaign completion/throughput/ETA from events.jsonl.",
    )
    parser.add_argument("run_dir", help="directory holding events.jsonl")
    parser.add_argument(
        "--json", action="store_true", help="emit one machine-readable line per settlement"
    )
    parser.add_argument(
        "--follow", action="store_true", help="keep tailing the stream for a live writer"
    )
    parser.add_argument(
        "--poll", type=float, default=0.25, help="poll interval in seconds (with --follow)"
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="with --follow: exit after this many seconds without new events",
    )
    args = parser.parse_args(argv)

    follower = Follower(args.run_dir)
    tracker = Tracker()
    rendered = 0
    last_event = time.monotonic()

    def consume(final: bool = False) -> None:
        nonlocal rendered, last_event
        events = follower.poll(final)
        if events:
            last_event = time.monotonic()
        for line in map(tracker.feed, events):
            if line and args.json:
                print(_dumps(line), flush=True)
        if not args.json and events:
            lines = _render(tracker.campaigns)
            if sys.stdout.isatty() and rendered:
                sys.stdout.write(f"\x1b[{rendered}A")
            for text in lines:
                sys.stdout.write("\x1b[2K" + text + "\n" if sys.stdout.isatty() else text + "\n")
            sys.stdout.flush()
            rendered = len(lines)

    consume(final=not args.follow)
    if args.follow:
        try:
            while True:
                time.sleep(args.poll)
                consume()
                if (
                    args.idle_timeout is not None
                    and time.monotonic() - last_event > args.idle_timeout
                ):
                    break
        except KeyboardInterrupt:
            pass
    follower.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
