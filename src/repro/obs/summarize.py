"""Render a campaign report from a telemetry run directory.

``python -m repro.obs.summarize <run-dir>`` reads ``manifest.json`` and
``events.jsonl`` and reconstructs what the campaigns did — each task's
outcome per campaign, ok/failed totals, and where the wall time went —
from the telemetry alone, with no access to the campaign's in-process
state.  :func:`summarize` returns the same reconstruction as a
dict for tests and tooling; ``--json`` prints it instead of the text
report.
"""

from __future__ import annotations

import json
from contextlib import closing
from pathlib import Path

from repro.obs import Follower
from repro.obs.manifest import load_manifest
from repro.obs.progress import Tracker


def read_events(run_dir: "Path | str") -> "list[dict]":
    """Every intact event of ``events.jsonl``, ordered by timestamp.

    One :class:`repro.obs.Follower` poll to the end of the file: a torn
    line *anywhere*, a partial last line included, is skipped with a
    warning.
    """
    with closing(Follower(run_dir)) as follower:
        events = follower.poll(final=True)
    events.sort(key=lambda e: e.get("ts", 0.0))
    return events


def _engine_summary(events: "list[dict]") -> dict:
    """Per-task outcomes and totals from engine.* events.

    Several campaigns may share a run dir and reuse task indices, so a
    task row is keyed by ``(campaign, index)``, the campaign numbered
    from 0 in ``engine.start`` order; :class:`repro.obs.progress.Tracker`
    assigns each event to its campaign.  ``start`` and ``done`` describe
    the run: the first campaign's start and the done event of the
    campaign that ended last (``None`` while any campaign is open).
    """
    tracker = Tracker()
    for e in events:
        tracker.feed(e)
    campaigns = tracker.campaigns
    ends = [c["end"] for c in campaigns if c["end"] is not None]
    tasks = [
        {"campaign": n, **c["tasks"][i]}
        for n, c in enumerate(campaigns)
        for i in sorted(c["tasks"])
    ]
    return {
        "tasks": tasks,
        "totals": {
            "campaigns": len(campaigns),
            "ok": sum(c["done"] for c in campaigns),
            "failed": sum(c["failed"] for c in campaigns),
        },
        "start": campaigns[0]["start"] if campaigns else None,
        "done": max(ends, key=lambda e: e.get("ts", 0.0))
        if ends and len(ends) == len(campaigns)
        else None,
    }


def _mc_summary(events: "list[dict]") -> "dict | None":
    chunks = [e for e in events if e.get("kind") == "mc.chunk"]
    if not chunks:
        return None
    rates = [c["trials_per_sec"] for c in chunks if c.get("trials_per_sec")]
    last = chunks[-1]
    return {
        "chunks": len(chunks),
        # Chunks from concurrent cells interleave, so total work is the sum
        # of per-chunk sizes, not any one sim's ``done`` cursor.
        "trials": sum(int(c.get("n", 0)) for c in chunks),
        "mean_trials_per_sec": round(sum(rates) / len(rates), 1) if rates else None,
        "final_running_mean": last.get("running_mean"),
    }


def _ecc_summary(events: "list[dict]") -> "dict | None":
    """Codec-time attribution from ``ecc.decode`` batch events.

    Answers "where did the campaign's decode time go": total words and
    dirty words pushed through the RS kernel, how much of the batch volume
    hit the compiled core versus the scalar-oracle fallback, and the
    aggregate dirty-word decode rate.
    """
    batches = [e for e in events if e.get("kind") == "ecc.decode"]
    if not batches:
        return None
    words = sum(int(e.get("words", 0)) for e in batches)
    dirty = sum(int(e.get("dirty", 0)) for e in batches)
    wall = sum(float(e.get("wall_s", 0.0)) for e in batches)
    native = sum(1 for e in batches if e.get("native"))
    return {
        "batches": len(batches),
        "words": words,
        "dirty_words": dirty,
        "dirty_frac": round(dirty / words, 4) if words else 0.0,
        "native_batches": native,
        "native_frac": round(native / len(batches), 4),
        "wall_s": round(wall, 6),
        "dirty_words_per_sec": round(dirty / wall) if wall > 0 and dirty else None,
        "codes": sorted({e.get("code", "?") for e in batches}),
    }


def _sim_summary(events: "list[dict]") -> "dict | None":
    runs = [e for e in events if e.get("kind") == "sim.run"]
    if not runs:
        return None
    return {"runs": len(runs), "last": runs[-1]}


def summarize(run_dir: "Path | str") -> dict:
    """Reconstruct the campaign from a run directory's telemetry alone."""
    from repro.obs.spantree import trace_summary

    run_dir = Path(run_dir)
    events = read_events(run_dir)
    kinds: "dict[str, int]" = {}
    for e in events:
        k = e.get("kind", "?")
        kinds[k] = kinds.get(k, 0) + 1
    return {
        "run_dir": str(run_dir),
        "manifest": load_manifest(run_dir),
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "engine": _engine_summary(events),
        "mc": _mc_summary(events),
        "ecc": _ecc_summary(events),
        "sim": _sim_summary(events),
        "trace": trace_summary(events),
    }


# -- text rendering --------------------------------------------------------------------


def _table(headers: "list[str]", rows: "list[list[str]]") -> "list[str]":
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return [fmt.format(*headers), fmt.format(*("-" * w for w in widths))] + [
        fmt.format(*r) for r in rows
    ]


def render(summary: dict) -> str:
    lines = [f"telemetry report: {summary['run_dir']}", ""]

    man = summary["manifest"]
    if man:
        pkg = man.get("package", {})
        lines += [
            f"manifest: {pkg.get('name', '?')} {pkg.get('version', '?')}"
            f" on {man.get('hostname', '?')}"
            f" (python {man.get('python', '?')}, captured {man.get('captured_at', '?')})"
        ]
        env_knobs = {
            n: k["current"] for n, k in man.get("knobs", {}).items() if k.get("source") == "env"
        }
        if env_knobs:
            lines.append(
                "knobs from env: " + ", ".join(f"{n}={v}" for n, v in sorted(env_knobs.items()))
            )
    else:
        lines.append("manifest: (missing)")
    lines.append("")

    lines.append(f"events: {summary['events']}")
    for kind, n in summary["kinds"].items():
        lines.append(f"  {kind:<20} {n}")
    lines.append("")

    eng = summary["engine"]
    if eng["tasks"]:
        totals = eng["totals"]
        lines.append(
            "engine: {campaigns} campaign(s), {ok} ok, {failed} failed".format(**totals)
        )
        rows = [
            [str(t["campaign"]), str(t["index"]), t["status"],
             str(t["worker_pid"] or "-"), t["error"] or ""]
            for t in eng["tasks"]
        ]
        lines += _table(["campaign", "task", "status", "worker", "error"], rows)
        lines.append("")

    if summary["mc"]:
        mc = summary["mc"]
        lines.append(
            f"monte carlo: {mc['trials']} trials over {mc['chunks']} chunks, "
            f"mean {mc['mean_trials_per_sec']} trials/s, "
            f"final running mean {mc['final_running_mean']}"
        )
        lines.append("")

    if summary.get("ecc"):
        ecc = summary["ecc"]
        rate = ecc["dirty_words_per_sec"]
        lines.append(
            f"ecc codec: {ecc['words']} words over {ecc['batches']} decode batches "
            f"({ecc['dirty_words']} dirty, {ecc['dirty_frac']:.1%}), "
            f"native on {ecc['native_frac']:.0%} of batches"
            + (f", {rate:,} dirty words/s" if rate else "")
            + f" [{', '.join(ecc['codes'])}]"
        )
        lines.append("")

    if summary["sim"]:
        last = summary["sim"]["last"]
        lines.append(
            f"simulator: {summary['sim']['runs']} run(s); last: "
            f"{last.get('events_per_sec')} events/s, "
            f"llc {last.get('llc_hits')}/{last.get('llc_misses')} hit/miss, "
            f"{last.get('fast_picks')} fast picks / {last.get('issued_requests')} issues"
        )
        lines.append("")

    if summary.get("trace"):
        tr = summary["trace"]
        lines.append(
            f"trace: {tr['spans']} span(s) in {tr['traces']} trace(s), "
            f"{tr['roots']} root(s)"
            + (f", {tr['synthetic']} synthesized (crashed parents)" if tr["synthetic"] else "")
        )
        if tr.get("root"):
            root = tr["root"]
            lines.append(
                f"  root: {root['name']} ({root['wall_s']}s wall, "
                f"coverage {tr['coverage']:.0%})"
            )
            buckets = tr["buckets"]
            wall = tr["wall_s"] or 1.0
            lines.append(
                "  attribution: "
                + ", ".join(
                    f"{b} {buckets[b]:.3f}s ({100.0 * buckets[b] / wall:.1f}%)"
                    for b in sorted(buckets, key=lambda b: -buckets[b])
                    if buckets[b] > 0
                )
            )
            lines.append(
                "  critical path: "
                + " > ".join(n["name"] for n in tr["critical_path"])
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.summarize",
        description="Render a campaign report from a telemetry run directory.",
    )
    parser.add_argument("run_dir", help="directory holding events.jsonl / manifest.json")
    parser.add_argument("--json", action="store_true", help="print the summary dict as JSON")
    args = parser.parse_args(argv)
    summary = summarize(args.run_dir)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=repr))
    else:
        print(render(summary), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
