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
budgets are not comparable.

A second table, ``FLOORS``, holds absolute minimums (currently: the
parallel evaluation sweep must beat the serial one).  Those are checked
against the fresh numbers alone regardless of quick mode; the only
exemption - loud, like every other skip - is a run whose recorded
``cpus`` could not physically host its ``jobs`` workers in parallel.

A third table, ``CEILINGS``, holds absolute maximums for costs where
*smaller* is better - the telemetry/trace disabled-path overheads, which
must stay under their published budget on every run, quick or full.

Beyond the single committed baseline, the guard also checks the
**perf-history ledger** (``results/PERF_HISTORY.jsonl``, written by
``python -m repro.obs.history append``): each guarded rate's newest entry
is compared against the median of up to ``--trend-window`` preceding
entries of the same budget class.  A single noisy baseline commit can
mask a slow bleed; the windowed median cannot.
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
    # The supervisor tentpole claim: journaling every settlement costs <2%
    # of clean-path campaign wall-clock (ratio = raw_wall / supervised_wall).
    ("BENCH_supervisor.json", "overhead", "throughput_ratio", 0.98),
    # The batched-codec tentpole claim: dirty-word decode beats the seed
    # scalar loop >= 3x in pure NumPy and >= 10x with the compiled GF core
    # (the native section omits `speedup` when no compiler is available,
    # which reads as a loud skip rather than a failure).
    ("BENCH_codec_throughput.json", "dirty_decode", "speedup", 3.0),
    ("BENCH_codec_throughput.json", "dirty_decode_native", "speedup", 10.0),
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

#: Preceding history entries the trend median is taken over.
TREND_WINDOW = 5


def _history_mod():
    try:
        from repro.obs import history
    except ImportError:
        sys.path.insert(0, str(REPO / "src"))
        from repro.obs import history
    return history


def _baseline(ref: str, filename: str, repo: "Path | None" = None) -> "dict | None":
    proc = subprocess.run(
        ["git", "show", f"{ref}:results/{filename}"],
        cwd=repo or REPO,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def check(
    ref: str = "HEAD",
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
    results_dir: "Path | None" = None,
    repo: "Path | None" = None,
) -> "list[str]":
    """Return a list of regression messages (empty = pass)."""
    results_dir = results_dir or RESULTS
    failures = []
    for filename, section, field in GUARDED:
        label = f"{filename}:{section}.{field}"
        fresh_path = results_dir / filename
        if not fresh_path.exists():
            print(f"SKIP {label}: no fresh results file")
            continue
        fresh_doc = json.loads(fresh_path.read_text())
        base_doc = _baseline(ref, filename, repo)
        if base_doc is None:
            print(f"SKIP {label}: no committed baseline at {ref}")
            continue
        fresh = fresh_doc.get(section, {})
        base = base_doc.get(section, {})
        if field not in fresh or field not in base:
            print(f"SKIP {label}: field missing ({'fresh' if field not in fresh else 'baseline'})")
            continue
        if fresh.get("quick_mode") != base.get("quick_mode"):
            print(
                f"SKIP {label}: quick_mode mismatch "
                f"(fresh={fresh.get('quick_mode')}, baseline={base.get('quick_mode')})"
            )
            continue
        floor = base[field] * (1 - tolerance_pct / 100.0)
        verdict = "FAIL" if fresh[field] < floor else "ok"
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
        fresh_path = results_dir / filename
        if not fresh_path.exists():
            print(f"SKIP {label}: no fresh results file")
            continue
        fresh = json.loads(fresh_path.read_text()).get(section, {})
        if field not in fresh:
            print(f"SKIP {label}: field missing (fresh)")
            continue
        cpus, jobs = fresh.get("cpus"), fresh.get("jobs")
        if cpus is not None and jobs is not None and cpus < jobs:
            print(f"SKIP {label}: {jobs} workers on {cpus} cpu(s), floor not meaningful")
            continue
        verdict = "FAIL" if fresh[field] < floor else "ok"
        print(f"{verdict:>4} {label}: fresh={fresh[field]} absolute floor={floor}")
        if fresh[field] < floor:
            failures.append(
                f"{label} below absolute floor: {fresh[field]} < {floor}"
            )
    for filename, section, field, ceiling in CEILINGS:
        label = f"{filename}:{section}.{field}"
        fresh_path = results_dir / filename
        if not fresh_path.exists():
            print(f"SKIP {label}: no fresh results file")
            continue
        fresh = json.loads(fresh_path.read_text()).get(section, {})
        if field not in fresh:
            print(f"SKIP {label}: field missing (fresh)")
            continue
        verdict = "FAIL" if fresh[field] > ceiling else "ok"
        print(f"{verdict:>4} {label}: fresh={fresh[field]} absolute ceiling={ceiling}")
        if fresh[field] > ceiling:
            failures.append(
                f"{label} above absolute ceiling: {fresh[field]} > {ceiling}"
            )
    return failures


def check_trends(
    history_path: "Path | None" = None,
    window: int = TREND_WINDOW,
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
) -> "list[str]":
    """Compare each guarded rate's newest ledger entry to its windowed median.

    For every ``GUARDED`` metric: take the most recent
    ``results/PERF_HISTORY.jsonl`` entry carrying it, gather up to
    *window* preceding entries of the same budget class (quick vs full),
    and fail when the newest value sits more than *tolerance_pct* below
    their median.  Fewer than two comparable prior entries is a loud
    skip - a trend needs history.
    """
    hist = _history_mod()
    history_path = Path(history_path) if history_path else RESULTS / hist.HISTORY_FILE
    failures = []
    entries = hist.load(history_path)
    if not entries:
        print(f"SKIP trends: no history ledger at {history_path}")
        return failures
    for filename, section, field in GUARDED:
        metric = f"{section}.{field}"
        label = f"{filename}:{metric} (trend)"
        relevant = [
            e for e in entries
            if e.get("file") == filename and metric in (e.get("metrics") or {})
        ]
        if not relevant:
            print(f"SKIP {label}: metric absent from history")
            continue
        latest = relevant[-1]
        prior = [e for e in relevant[:-1] if e.get("quick") == latest.get("quick")]
        values = [float(e["metrics"][metric]) for e in prior[-window:]]
        if len(values) < 2:
            print(f"SKIP {label}: {len(values)} comparable prior entries, trend needs >= 2")
            continue
        med = hist.median(values)
        floor = med * (1 - tolerance_pct / 100.0)
        fresh = float(latest["metrics"][metric])
        verdict = "FAIL" if fresh < floor else "ok"
        print(
            f"{verdict:>4} {label}: fresh={fresh:,.0f} median[{len(values)}]={med:,.0f} "
            f"floor={floor:,.0f} (-{tolerance_pct:g}%)"
        )
        if fresh < floor:
            failures.append(
                f"{label} below trend floor: {fresh:,.0f} < {floor:,.0f} "
                f"(median of last {len(values)} comparable entries = {med:,.0f})"
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
    parser.add_argument(
        "--history",
        default=None,
        help="perf-history ledger path (default: results/PERF_HISTORY.jsonl)",
    )
    parser.add_argument(
        "--trend-window",
        type=int,
        default=TREND_WINDOW,
        help=f"prior history entries the trend median spans (default {TREND_WINDOW})",
    )
    args = parser.parse_args(argv)
    failures = check(args.baseline, args.tolerance)
    failures += check_trends(args.history, args.trend_window, args.tolerance)
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
