"""Perf-history tracker: an append-only ledger of benchmark results.

``python -m repro.obs.history append results/BENCH_*.json`` folds each
benchmark document into one JSONL entry in ``results/PERF_HISTORY.jsonl``
— every numeric ``section.field`` metric, the git sha + dirty flag the
run was produced at (from the document's provenance stamp, else the live
repository), and a hash of the provenance manifest (the knob envelope) —
so performance can be charted and trend-checked across commits, not just
diffed against a single committed baseline.

:func:`repro.obs.history` is deliberately direction-agnostic: it records
and serves windowed statistics; *which* metrics matter and which way is
better lives in ``benchmarks/perf_guard.py`` (its trend check compares
the newest entry against the median of the preceding window).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path

from repro.obs import read_jsonl

HISTORY_FILE = "PERF_HISTORY.jsonl"


def git_info(repo: "Path | str | None" = None) -> dict:
    """``{"sha": ..., "dirty": ...}`` of *repo* (None fields off-git)."""
    cwd = str(repo) if repo else None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True, text=True
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True, text=True
        )
    except OSError:
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {
        "sha": sha.stdout.strip(),
        "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
    }


def flatten_metrics(doc: dict) -> "dict[str, float]":
    """Numeric leaves of a BENCH document as ``section.field`` pairs.

    Only int/float (not bool) values one level under a section survive —
    exactly the shape ``perf_guard`` guards — and ``provenance`` is
    excluded wholesale.
    """
    out: "dict[str, float]" = {}
    for section, body in doc.items():
        if section == "provenance" or not isinstance(body, dict):
            continue
        for field, value in body.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out[f"{section}.{field}"] = value
    return out


def manifest_hash(doc: dict) -> "str | None":
    """Short hash of the provenance manifest (the knob/host envelope)."""
    manifest = (doc.get("provenance") or {}).get("manifest")
    if not manifest:
        return None
    blob = json.dumps(manifest, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def entry_for(path: "Path | str", repo: "Path | str | None" = None) -> dict:
    """One history entry for a benchmark results file.

    Prefers the git stamp ``benchmarks/conftest.py`` wrote into the
    document's provenance (the state when the bench *ran*); falls back to
    the live repository only for documents that predate the stamp.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    git = (doc.get("provenance") or {}).get("git") or git_info(repo or path.parent.parent)
    quick = any(
        body.get("quick_mode") is True
        for body in doc.values()
        if isinstance(body, dict)
    )
    return {
        "file": path.name,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git.get("sha"),
        "git_dirty": git.get("dirty"),
        "manifest": manifest_hash(doc),
        "quick": quick,
        "metrics": flatten_metrics(doc),
    }


def append(
    paths: "list[Path | str]",
    history_path: "Path | str",
    repo: "Path | str | None" = None,
) -> "list[dict]":
    """Append one entry per benchmark file; returns the entries written."""
    history_path = Path(history_path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    entries = [entry_for(p, repo) for p in sorted(Path(p) for p in paths)]
    with history_path.open("a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n")
    return entries


def load(history_path: "Path | str") -> "list[dict]":
    """Read the ledger oldest-first; torn/invalid lines are skipped loudly."""
    return read_jsonl(history_path, "history record")


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Append benchmark results to the perf-history ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ap = sub.add_parser("append", help="append BENCH_*.json files to the ledger")
    ap.add_argument("results", nargs="+", help="benchmark result JSON files")
    ap.add_argument(
        "--history",
        default=None,
        help=f"ledger path (default: <first result's dir>/{HISTORY_FILE})",
    )
    sh = sub.add_parser("show", help="print the ledger as indented JSON")
    sh.add_argument("history", help="ledger path")
    args = parser.parse_args(argv)

    if args.command == "append":
        history_path = Path(args.history) if args.history else (
            Path(args.results[0]).resolve().parent / HISTORY_FILE
        )
        entries = append(args.results, history_path)
        for entry in entries:
            sha = (entry["git_sha"] or "?")[:12]
            dirty = "+dirty" if entry["git_dirty"] else ""
            print(
                f"recorded {entry['file']}: {len(entry['metrics'])} metric(s) "
                f"at {sha}{dirty}"
            )
        print(f"history: {history_path} ({len(load(history_path))} entries)")
        return 0
    print(json.dumps(load(args.history), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
