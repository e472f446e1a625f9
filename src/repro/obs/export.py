"""Export a telemetry run as Chrome trace-event JSON.

``python -m repro.obs.export <run-dir> [-o trace.json]`` converts
``events.jsonl`` (spans + flat events) into the Trace Event Format that
``chrome://tracing`` and Perfetto load directly:

* every ``trace.span`` record becomes a complete (``"ph": "X"``) event —
  name, category, start, duration — laid out per emitting process;
* every other event becomes a process-scoped instant (``"ph": "i"``)
  carrying its fields as ``args``;
* one metadata record per pid names the track.

Timestamps are the bus's monotonic seconds scaled to microseconds;
``CLOCK_MONOTONIC`` is system-wide on Linux, so parent and worker tracks
share one axis and a campaign reads left-to-right across processes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.spantree import _RESERVED
from repro.obs.summarize import read_events


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 1)


def export_events(events: "list[dict]") -> dict:
    """Build the Chrome trace-event document for an event stream."""
    out: "list[dict]" = []
    pids = set()
    for e in events:
        pid = int(e.get("pid", 0))
        pids.add(pid)
        args = {k: v for k, v in e.items() if k not in _RESERVED}
        if e.get("kind") == "trace.span":
            t0 = float(e.get("t0", 0.0))
            t1 = float(e.get("t1", t0))
            args.update(trace=e.get("trace"), span=e.get("span"), parent=e.get("parent"))
            out.append(
                {
                    "ph": "X",
                    "name": e.get("name", "?"),
                    "cat": e.get("cat") or "span",
                    "ts": _us(t0),
                    "dur": _us(max(0.0, t1 - t0)),
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
        else:
            if e.get("span") is not None:
                args.update(trace=e.get("trace"), span=e.get("span"))
            out.append(
                {
                    "ph": "i",
                    "name": e.get("kind", "?"),
                    "cat": "event",
                    "ts": _us(float(e.get("ts", 0.0))),
                    "pid": pid,
                    "tid": pid,
                    "s": "p",
                    "args": args,
                }
            )
    meta = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": pid,
            "args": {"name": f"repro pid {pid}"},
        }
        for pid in sorted(pids)
    ]
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def export_run(run_dir: "Path | str") -> dict:
    """Chrome trace document for a run directory."""
    return export_events(read_events(Path(run_dir)))


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Export a telemetry run directory as Chrome trace-event JSON.",
    )
    parser.add_argument("run_dir", help="directory holding events.jsonl")
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="output file (default: <run-dir>/trace.json; '-' for stdout)",
    )
    args = parser.parse_args(argv)
    doc = export_run(args.run_dir)
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True, default=repr)
    if args.output == "-":
        print(text)
        return 0
    out = Path(args.output) if args.output else Path(args.run_dir) / "trace.json"
    out.write_text(text + "\n", encoding="utf-8")
    print(
        f"wrote {out} ({len(doc['traceEvents'])} trace events)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
