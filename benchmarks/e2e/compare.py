"""Compare two benchmark reports (``run.py --out``) against the bounds in
``BENCHMARK.json``.

For every workload in both reports, one row per workload gives each
end-to-end metric's ratio B/A with A's value as the base and a verdict:

* ``unresolved`` - either side's quartile spread exceeds the bound, and not
  every B sample beats every A sample;
* ``worse``      - worse by more than the metric's bound;
* ``improved``   - better by more than the bound (a smaller gain is only
  shown by repeated runs of both sides, not by one pair of reports);
* ``no worse``   - otherwise.

Each row also gives both sides' failed/attempted operations; the workload
counts as worse when B failed more operations, or a larger share of them,
than A (a gain does not count when more operations fail).

Any difference in a modelled statistic (simulated counts, output digest,
``paper_gap_pp``) between reports of the same seed is flagged as
``model changed``: a change meant only to speed up the program must leave
them identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> "tuple[float, str]":
    """``(ratio, verdict)`` of summary *b* against base summary *a*."""
    base, new = a["value"], b["value"]
    ratio = new / base if base else float("inf")
    lower = better == "lower"
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    if lower:
        dominates = max(b["values"]) < min(a["values"])
    else:
        dominates = min(b["values"]) > max(a["values"])
    spread = max((s["q3"] - s["q1"]) / s["value"] if s["value"] else 0.0 for s in (a, b))
    if spread > bound and not dominates:
        return ratio, "unresolved"
    if worse_by > bound:
        return ratio, "worse"
    if worse_by < -bound:
        return ratio, "improved"
    return ratio, "no worse"


def compare(report_a: dict, report_b: dict, spec: dict) -> "tuple[list[str], bool]":
    """Rendered rows and whether any pair (or failure count) got worse."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines = []
    any_worse = False
    same_seed = report_a.get("seed") == report_b.get("seed")
    for name, sec_a in report_a["workloads"].items():
        sec_b = report_b["workloads"].get(name)
        if sec_b is None:
            lines.append(f"{name}: missing from B")
            continue
        cells = []
        for m in spec["end_to_end"]:
            a, b = sec_a["end_to_end"][m["name"]], sec_b["end_to_end"][m["name"]]
            ratio, v = verdict(a, b, m["better"], m["bound"])
            any_worse |= v == "worse"
            cells.append(f"{m['name']} {ratio:.3f}x of {a['value']:.4g} {units[m['name']]} ({v})")
        lines.append(f"{name}: " + "; ".join(cells))
        fa, fb = sec_a["checks"], sec_b["checks"]
        more_failed = fb["failed"] > fa["failed"] or sec_b["fail_frac"] > sec_a["fail_frac"]
        any_worse |= more_failed
        lines.append(
            f"  failed: A {fa['failed']}/{fa['attempted']}, B {fb['failed']}/{fb['attempted']}"
            + (" (worse)" if more_failed else "")
        )
        if same_seed:
            changed = [
                f"{k} {sec_a['modelled'][k]!r} -> {sec_b['modelled'].get(k)!r}"
                for k in sec_a["modelled"]
                if sec_a["modelled"][k] != sec_b["modelled"].get(k)
            ]
            lines.append("  modelled: " + ("model changed: " + "; ".join(changed) if changed else "identical"))
    return lines, any_worse


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A = {argv[0]}  (host {report_a.get('host')})")
    print(f"B = {argv[1]}  (host {report_b.get('host')})")
    lines, any_worse = compare(report_a, report_b, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0
