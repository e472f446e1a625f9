"""Rare-event estimator benchmarks: effective trials/sec at the fig8 tail.

Not a paper figure - this guards the variance-reduction claims of
``repro.faults.rareevent``.  The target is the fig8 99.9th-percentile
tail of the default organization: a plain-MC baseline pins the threshold
and the per-trial variance, then the importance-sampled and stratified
estimators run a much smaller budget against the same threshold.  The
scoreboard metric is **effective trials per second**,

    eff = (var_plain_per_trial / var_est_per_trial) * trials_est / wall_est

i.e. how many *plain* trials per second an estimator is worth at equal CI
width.  The acceptance bar is the tentpole claim: importance sampling
>= 20x plain MC (stratification clears a lower bar; its zero-variance
K=0 stratum shines on means rather than deep tails).  The unbiasedness
oracle runs in the same file so the speed claim can never drift away
from correctness.

Numbers land in ``results/BENCH_rareevent.json``; ``REPRO_BENCH_QUICK=1``
(CI) shrinks budgets so the file finishes in seconds - acceptance numbers
come from an unloaded full run.
"""

import time

import numpy as np

from conftest import merge_results, once

from repro.experiments.report import format_table
from repro.faults.montecarlo import EolCapacitySim
from repro.faults.rareevent import (
    oracle_compare,
    run_is,
    run_plain,
    run_stratified,
)
from repro.util import envcfg

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

#: Plain-MC baseline budget: needs enough tail hits (~1e-3 of trials) to
#: pin the p999 threshold and the reference variance.
PLAIN_TRIALS = 300_000 if QUICK_MODE else 2_000_000

#: Budget for each variance-reduced estimator (the point: far fewer).
VR_TRIALS = 40_000 if QUICK_MODE else 200_000

#: Oracle budget (quick mode keeps the z-score power reasonable).
ORACLE_TRIALS = 60_000 if QUICK_MODE else 200_000

#: Acceptance bars on effective speedup at the p999 tail target.
IS_SPEEDUP_BAR = 20.0
STRAT_SPEEDUP_BAR = 3.0


def _sim(salt: int) -> EolCapacitySim:
    return EolCapacitySim(seed=np.random.default_rng(np.random.SeedSequence((0, salt))))


def bench_rareevent_effective_throughput(benchmark, results_dir, emit):
    """Effective trials/sec of IS and stratified MC vs plain at the p999 tail."""

    def measure():
        t0 = time.perf_counter()
        plain = run_plain(_sim(1), PLAIN_TRIALS)
        plain_wall = time.perf_counter() - t0
        threshold = plain.percentile(99.9)
        target = ("tail", threshold)

        t0 = time.perf_counter()
        is_est = run_is(_sim(2), VR_TRIALS)
        is_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        strat = run_stratified(_sim(3), VR_TRIALS, target=target)
        strat_wall = time.perf_counter() - t0
        return plain, plain_wall, threshold, is_est, is_wall, strat, strat_wall

    plain, plain_wall, threshold, is_est, is_wall, strat, strat_wall = once(
        benchmark, measure
    )
    p = plain.tail_probability(threshold)
    var_plain = p * (1.0 - p)  # per-trial variance of the plain indicator
    plain_rate = plain.trials / plain_wall

    def section(est, wall):
        se = est.se_tail(threshold)
        var_per_trial = se * se * est.trials
        var_reduction = var_plain / var_per_trial if var_per_trial > 0 else float("inf")
        rate = est.trials / wall
        eff = var_reduction * rate
        return {
            "trials": est.trials,
            "wall_s": round(wall, 4),
            "trials_per_sec": round(rate),
            "tail_probability": float(f"{est.tail_probability(threshold):.4e}"),
            "se_tail": float(f"{se:.3e}"),
            "ess": round(est.ess, 1),
            "var_reduction": round(var_reduction, 2),
            "effective_trials_per_sec": round(eff),
            "effective_speedup": round(eff / plain_rate, 2),
        }

    plain_section = {
        "trials": plain.trials,
        "wall_s": round(plain_wall, 4),
        "trials_per_sec": round(plain_rate),
        "threshold_p999": float(f"{threshold:.6e}"),
        "tail_probability": float(f"{p:.4e}"),
        "se_tail": float(f"{plain.se_tail(threshold):.3e}"),
        "effective_trials_per_sec": round(plain_rate),
    }
    is_section = section(is_est, is_wall)
    strat_section = section(strat, strat_wall)
    merge_results(
        results_dir,
        "BENCH_rareevent.json",
        target="fig8 p999 tail, default org",
        plain=plain_section,
        importance_sampling=is_section,
        stratified=strat_section,
        quick_mode=QUICK_MODE,
    )
    emit(
        "bench_rareevent",
        format_table(
            ["estimator", "trials", "se(tail)", "ESS", "var red.", "eff trials/s", "speedup"],
            [
                [
                    "plain",
                    f"{plain.trials:,}",
                    f"{plain.se_tail(threshold):.2e}",
                    f"{plain.trials:,}",
                    "1.0x",
                    f"{plain_rate:,.0f}",
                    "1.0x",
                ],
                [
                    "importance",
                    f"{is_est.trials:,}",
                    f"{is_section['se_tail']:.2e}",
                    f"{is_section['ess']:,.0f}",
                    f"{is_section['var_reduction']:.1f}x",
                    f"{is_section['effective_trials_per_sec']:,}",
                    f"{is_section['effective_speedup']:.1f}x",
                ],
                [
                    "stratified",
                    f"{strat.trials:,}",
                    f"{strat_section['se_tail']:.2e}",
                    f"{strat_section['ess']:,.0f}",
                    f"{strat_section['var_reduction']:.1f}x",
                    f"{strat_section['effective_trials_per_sec']:,}",
                    f"{strat_section['effective_speedup']:.1f}x",
                ],
            ],
            title=f"Rare-event effective throughput at P(fraction >= {threshold:.4f})",
        ),
    )
    # The tentpole acceptance bar: >= 20x effective trials/sec for IS.
    assert is_section["effective_speedup"] >= IS_SPEEDUP_BAR, (
        f"importance sampling only {is_section['effective_speedup']:.1f}x effective "
        f"(bar {IS_SPEEDUP_BAR}x)"
    )
    assert strat_section["effective_speedup"] >= STRAT_SPEEDUP_BAR, (
        f"stratified only {strat_section['effective_speedup']:.1f}x effective "
        f"(bar {STRAT_SPEEDUP_BAR}x)"
    )


def bench_rareevent_oracle(benchmark, results_dir, emit):
    """Unbiasedness oracle: weighted estimates agree with plain MC within CI."""

    def measure():
        t0 = time.perf_counter()
        # Pin the threshold from a cheap plain run so the oracle compares
        # tail probabilities too, not just means.
        threshold = run_plain(_sim(1), min(PLAIN_TRIALS, 200_000)).percentile(99.9)
        report = oracle_compare(trials=ORACLE_TRIALS, threshold=threshold)
        return report, threshold, time.perf_counter() - t0

    report, threshold, wall = once(benchmark, measure)
    merge_results(
        results_dir,
        "BENCH_rareevent.json",
        oracle={
            "trials": report["trials"],
            "threshold": float(f"{threshold:.6e}"),
            "zscores": {
                name: {k: round(v, 3) for k, v in zs.items()}
                for name, zs in report["zscores"].items()
            },
            "ok": report["ok"],
            "wall_s": round(wall, 4),
        },
    )
    emit(
        "bench_rareevent_oracle",
        format_table(
            ["estimator", "z(mean)", "z(tail)"],
            [
                [name, f"{zs['mean']:.2f}", f"{zs.get('tail', float('nan')):.2f}"]
                for name, zs in report["zscores"].items()
            ],
            title=f"Unbiasedness oracle vs plain MC ({report['trials']:,} trials each)",
        ),
    )
    assert report["ok"], f"oracle disagreement: {report['zscores']}"
