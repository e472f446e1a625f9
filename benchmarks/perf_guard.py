"""Performance-regression guard over the committed benchmark baselines.

Run *after* the throughput benches have rewritten ``results/BENCH_*.json``
in the working tree:

    python benchmarks/perf_guard.py [--baseline REF] [--tolerance PCT]

For each guarded metric the fresh number is compared against the same
field in the committed baseline (``git show REF:results/...``, default
``HEAD``).  A drop of more than ``--tolerance`` percent (default 15) is a
regression and the guard exits non-zero.  A metric is skipped - loudly,
not silently - when either side is missing or when ``quick_mode``
differs between the fresh run and the baseline, since quick and full
budgets are not comparable.  A fresh file whose bytes equal its baseline
is skipped in every table below: no bench rewrote it, so checking it
would compare the baseline with itself.  The guard ends with a count of
compared and skipped checks, and says ``checked nothing`` when none ran.

A second table, ``FLOORS``, holds absolute minimums (currently: the
parallel evaluation sweep must beat the serial one).  Those are checked
against the fresh numbers alone regardless of quick mode; the only
exemption - loud, like every other skip - is a run whose recorded
``cpus`` could not physically host its ``jobs`` workers in parallel.

A third table, ``CEILINGS``, holds absolute maximums for costs where
*smaller* is better - the telemetry/trace disabled-path overheads, which
must stay under their published budget on every run, quick or full.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"

#: (file, section, rate field) triples guarded against the baseline.
#: Rates are throughputs: bigger is better.
GUARDED = [
    ("BENCH_simloop_throughput.json", "single_sim", "events_per_sec"),
    ("BENCH_simloop_throughput.json", "single_sim_event", "events_per_sec"),
    ("BENCH_simloop_throughput.json", "single_sim_epoch", "events_per_sec"),
    ("BENCH_mc_throughput.json", "fig8_mc", "batched_trials_per_sec"),
    ("BENCH_codec_throughput.json", "dirty_decode", "words_per_sec"),
]

#: (file, section, field, floor) absolute minimums, checked against the
#: fresh run only - no baseline, no quick_mode exemption.  These encode
#: invariants that must hold wherever the measurement is physically
#: meaningful: the parallel sweep may never be slower than the serial
#: one.  A floor is skipped - loudly - when the section's recorded
#: ``cpus`` is smaller than its ``jobs``, since workers time-sharing one
#: core cannot beat a serial run.
FLOORS = [
    ("BENCH_simloop_throughput.json", "matrix_sweep", "speedup", 1.0),
    # The rare-event tentpole claim: importance sampling is worth >= 20x
    # plain MC in effective trials/sec at the fig8 p999 tail (stratified
    # clears a lower bar - its strength is means, not deep tails).
    ("BENCH_rareevent.json", "importance_sampling", "effective_speedup", 20.0),
    ("BENCH_rareevent.json", "stratified", "effective_speedup", 3.0),
    # The codec claim: production dirty-word decode, which runs in the
    # compiled GF core (CI asserts it builds), beats the seed scalar loop
    # >= 10x.
    ("BENCH_codec_throughput.json", "dirty_decode", "speedup", 10.0),
]

#: (file, section, field, ceiling) absolute maximums - smaller is better,
#: fresh run only.  The span plane's published claim: with ``REPRO_OBS``
#: unset, the per-site cost of a disarmed span gate amounts to < 2% of
#: either kernel's wall-clock.
CEILINGS = [
    ("BENCH_obs_overhead.json", "trace_disabled", "sim_overhead_pct", 2.0),
    ("BENCH_obs_overhead.json", "trace_disabled", "sim_epoch_overhead_pct", 2.0),
    ("BENCH_obs_overhead.json", "trace_disabled", "mc_overhead_pct", 2.0),
]

DEFAULT_TOLERANCE_PCT = 15.0


class Tally:
    """Counts of compared and skipped checks, for the closing line."""

    def __init__(self) -> None:
        self.compared = 0
        self.skipped = 0

    def skip(self, label: str, why: str) -> None:
        print(f"SKIP {label}: {why}")
        self.skipped += 1

    def summary(self) -> str:
        line = f"perf_guard: {self.compared} compared, {self.skipped} skipped"
        return line + (" - checked nothing" if self.compared == 0 else "")


def _baseline(ref: str, filename: str, repo: "Path | None" = None) -> "bytes | None":
    proc = subprocess.run(
        ["git", "show", f"{ref}:results/{filename}"],
        cwd=repo or REPO,
        capture_output=True,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout


def check(
    ref: str = "HEAD",
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
    results_dir: "Path | None" = None,
    repo: "Path | None" = None,
    tally: "Tally | None" = None,
) -> "list[str]":
    """Return a list of regression messages (empty = pass)."""
    results_dir = results_dir or RESULTS
    tally = Tally() if tally is None else tally
    failures = []
    baselines: "dict[str, bytes | None]" = {}

    def fresh_doc(filename: str, label: str) -> "dict | None":
        fresh_path = results_dir / filename
        if not fresh_path.exists():
            tally.skip(label, "no fresh results file")
            return None
        raw = fresh_path.read_bytes()
        if filename not in baselines:
            baselines[filename] = _baseline(ref, filename, repo)
        if raw == baselines[filename]:
            tally.skip(label, "fresh file is the committed baseline (no bench ran)")
            return None
        return json.loads(raw)

    for filename, section, field in GUARDED:
        label = f"{filename}:{section}.{field}"
        doc = fresh_doc(filename, label)
        if doc is None:
            continue
        if baselines[filename] is None:
            tally.skip(label, f"no committed baseline at {ref}")
            continue
        fresh = doc.get(section, {})
        base = json.loads(baselines[filename]).get(section, {})
        if field not in fresh or field not in base:
            tally.skip(label, f"field missing ({'fresh' if field not in fresh else 'baseline'})")
            continue
        if fresh.get("quick_mode") != base.get("quick_mode"):
            tally.skip(
                label,
                f"quick_mode mismatch "
                f"(fresh={fresh.get('quick_mode')}, baseline={base.get('quick_mode')})",
            )
            continue
        floor = base[field] * (1 - tolerance_pct / 100.0)
        verdict = "FAIL" if fresh[field] < floor else "ok"
        tally.compared += 1
        print(
            f"{verdict:>4} {label}: fresh={fresh[field]:,} baseline={base[field]:,} "
            f"floor={floor:,.0f} (-{tolerance_pct:g}%)"
        )
        if fresh[field] < floor:
            failures.append(
                f"{label} regressed: {fresh[field]:,} < {floor:,.0f} "
                f"(baseline {base[field]:,} at {ref}, tolerance {tolerance_pct:g}%)"
            )
    for filename, section, field, floor in FLOORS:
        label = f"{filename}:{section}.{field}"
        doc = fresh_doc(filename, label)
        if doc is None:
            continue
        fresh = doc.get(section, {})
        if field not in fresh:
            tally.skip(label, "field missing (fresh)")
            continue
        cpus, jobs = fresh.get("cpus"), fresh.get("jobs")
        if cpus is not None and jobs is not None and cpus < jobs:
            tally.skip(label, f"{jobs} workers on {cpus} cpu(s), floor not meaningful")
            continue
        verdict = "FAIL" if fresh[field] < floor else "ok"
        tally.compared += 1
        print(f"{verdict:>4} {label}: fresh={fresh[field]} absolute floor={floor}")
        if fresh[field] < floor:
            failures.append(
                f"{label} below absolute floor: {fresh[field]} < {floor}"
            )
    for filename, section, field, ceiling in CEILINGS:
        label = f"{filename}:{section}.{field}"
        doc = fresh_doc(filename, label)
        if doc is None:
            continue
        fresh = doc.get(section, {})
        if field not in fresh:
            tally.skip(label, "field missing (fresh)")
            continue
        verdict = "FAIL" if fresh[field] > ceiling else "ok"
        tally.compared += 1
        print(f"{verdict:>4} {label}: fresh={fresh[field]} absolute ceiling={ceiling}")
        if fresh[field] > ceiling:
            failures.append(
                f"{label} above absolute ceiling: {fresh[field]} > {ceiling}"
            )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf_guard.py",
        description="Fail if guarded benchmark rates regressed vs the committed baseline.",
    )
    parser.add_argument("--baseline", default="HEAD", help="git ref holding the baseline JSONs")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE_PCT,
        help="allowed drop in percent before failing (default 15)",
    )
    args = parser.parse_args(argv)
    tally = Tally()
    failures = check(args.baseline, args.tolerance, tally=tally)
    print(tally.summary())
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
