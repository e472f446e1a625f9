"""Live campaign progress from a telemetry run directory.

``python -m repro.obs.progress <run-dir>`` tails ``events.jsonl`` — safely
against a writer appending concurrently — and tracks per-campaign
completion.  Two output modes:

* **TTY view** (default): one progress bar per campaign with completion,
  throughput (from event timestamps), and a rate-based ETA, re-rendered
  in place on every poll.
* **``--json``**: one machine-readable line per settlement, the contract
  the future campaign service streams to clients::

      {"campaign":"campaign-1","done":3,"failed":0,"total":24}

  Lines carry **only deterministic fields**: the campaign label
  (``campaign-<ordinal>`` in stream order), the
  running settled/failed counters, and the task total.  ``done`` counts
  settlements ``1..N`` in arrival order, so the byte stream is identical
  for serial and parallel runs of the same campaign even though tasks
  finish in different orders — throughput and ETA, which are not
  deterministic, appear only in the TTY view.

The follower tolerates torn lines anywhere in the stream (a concurrent
writer's in-flight append, a killed writer's half line) by buffering the
trailing partial line and warning-and-skipping undecodable interior ones.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.obs import EVENTS_FILE, decode_line


class Follower:
    """Incremental, torn-line-tolerant events.jsonl tailer."""

    def __init__(self, run_dir: "Path | str"):
        self.path = Path(run_dir) / EVENTS_FILE
        self._fh = None
        self._buf = b""
        self._lineno = 0  #: complete lines consumed so far

    def poll(self) -> "list[dict]":
        """Every complete event appended since the last poll."""
        if self._fh is None:
            try:
                self._fh = open(self.path, "rb")
            except OSError:
                return []
        data = self._fh.read()
        if not data:
            return []
        self._buf += data
        events = []
        while True:
            nl = self._buf.find(b"\n")
            if nl < 0:
                break  # partial trailing line: a write in flight, keep it
            line, self._buf = self._buf[:nl], self._buf[nl + 1 :]
            self._lineno += 1
            event = decode_line(line, self.path, self._lineno)
            if event is not None:
                events.append(event)
        return events

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Tracker:
    """Reduce an event stream into per-campaign progress snapshots.

    :meth:`feed` returns one deterministic progress line (dict) per
    settlement-changing event; :attr:`campaigns` holds the running state
    (with first/last timestamps for the TTY view's rate estimates).
    """

    def __init__(self):
        self.campaigns: "list[dict]" = []
        self._by_trace: "dict[str, dict]" = {}

    def _campaign_for(self, event: "dict") -> "dict | None":
        trace = event.get("trace")
        if trace is not None and trace in self._by_trace:
            return self._by_trace[trace]
        for c in reversed(self.campaigns):
            if c["open"]:
                return c
        return None

    def feed(self, event: dict) -> "list[dict]":
        kind = event.get("kind", "")
        ts = event.get("ts")
        if kind == "engine.start":
            c = {
                "campaign": f"campaign-{len(self.campaigns) + 1}",
                "total": int(event.get("tasks", 0)),
                "done": 0,
                "failed": 0,
                "open": True,
                "first_ts": ts,
                "last_ts": ts,
            }
            self.campaigns.append(c)
            trace = event.get("trace")
            if trace is not None:
                self._by_trace[trace] = c
            return []
        if kind in ("engine.ok", "engine.fail"):
            c = self._campaign_for(event)
            if c is None:
                return []
            c["done" if kind == "engine.ok" else "failed"] += 1
            if ts is not None:
                c["last_ts"] = ts
            return [
                {
                    "campaign": c["campaign"],
                    "done": c["done"],
                    "failed": c["failed"],
                    "total": c["total"],
                }
            ]
        if kind == "engine.done":
            c = self._campaign_for(event)
            if c is not None:
                c["open"] = False
        return []


def json_lines(events: "list[dict]") -> "list[str]":
    """The full deterministic ``--json`` stream for an event list."""
    tracker = Tracker()
    out = []
    for e in events:
        for line in tracker.feed(e):
            out.append(json.dumps(line, separators=(",", ":"), sort_keys=True))
    return out


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
                if rate > 0 and c["open"]:
                    eta = max(0.0, (c["total"] - settled) / rate)
        state = "done" if not c["open"] else (f"eta {eta:.1f}s" if eta is not None else "...")
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

    def consume() -> bool:
        nonlocal rendered, last_event
        events = follower.poll()
        if events:
            last_event = time.monotonic()
        progressed = False
        for e in events:
            for line in tracker.feed(e):
                progressed = True
                if args.json:
                    print(json.dumps(line, separators=(",", ":"), sort_keys=True), flush=True)
        if not args.json and (progressed or events):
            lines = _render(tracker.campaigns)
            if sys.stdout.isatty() and rendered:
                sys.stdout.write(f"\x1b[{rendered}A")
            for text in lines:
                sys.stdout.write("\x1b[2K" + text + "\n" if sys.stdout.isatty() else text + "\n")
            sys.stdout.flush()
            rendered = len(lines)
        return progressed

    consume()
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
