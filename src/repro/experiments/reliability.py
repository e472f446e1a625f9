"""Reliability figure drivers (Figures 2, 8, and 18)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.analysis import (
    mean_time_between_channel_faults_days,
    multi_channel_window_probability,
)
from repro.faults.fit_rates import MemoryOrg
from repro.faults.montecarlo import eol_fraction_by_channels
from repro.faults.rareevent import sharded_estimates

#: X axes used by the paper's figures.
FIG2_FIT_RANGE = [10, 20, 30, 40, 44, 50, 60, 70, 80, 90, 100]
FIG8_CHANNELS = [2, 4, 8, 16]
FIG18_WINDOWS_HOURS = [1, 2, 4, 8, 16, 24, 48, 96, 168]
FIG18_FIT_RATES = [25, 50, 100]


@dataclass
class Fig2Row:
    fit_per_chip: float
    mtbf_days: float


def figure2(org: "MemoryOrg | None" = None) -> "list[Fig2Row]":
    """Mean time between faults in different channels vs DRAM FIT rate."""
    org = org or MemoryOrg()
    return [
        Fig2Row(fit, mean_time_between_channel_faults_days(fit, org))
        for fit in FIG2_FIT_RANGE
    ]


@dataclass
class Fig8Row:
    channels: int
    mean_fraction: float
    p999_fraction: float


def figure8(
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> "list[Fig8Row]":
    """EOL fraction of memory protected by materialized correction bits.

    *trials* defaults to ``REPRO_MC_TRIALS`` (else 20000); set it to 1M for
    a converged 99.9th percentile - the chunked, vectorized Monte Carlo and
    the per-channel-count process fan-out keep that tractable.
    """
    results = eol_fraction_by_channels(FIG8_CHANNELS, trials=trials, seed=seed, jobs=jobs)
    return [
        Fig8Row(n, r.mean, r.percentile(99.9)) for n, r in sorted(results.items())
    ]


@dataclass
class Fig8TailRow:
    """One channel count's rare-event view of the fig8 tail."""

    channels: int
    p999_fraction: float  #: weighted 99.9th percentile of the EOL fraction
    tail_probability: float  #: P(fraction >= threshold) at the reported threshold
    tail_se: float  #: analytic standard error of ``tail_probability``
    threshold: float  #: tail threshold the CI is quoted at
    trials: int  #: sampled trials spent
    ess: float  #: effective sample size of the weighted stream
    mode: str  #: estimator that produced the row ("off" | "is" | "strat")


def figure8_tail(
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
    mode: str = "off",
) -> "list[Fig8TailRow]":
    """Figure 8's 99.9th percentile via the rare-event estimators.

    For each channel count, runs a sharded campaign with estimator *mode*
    (``off`` plain MC, ``is`` importance sampling, ``strat`` count
    stratification) and reports the weighted 99.9th percentile plus the
    tail probability at that percentile with its analytic CI, so the
    quoted CI is the resolution of the percentile itself.  The shards of
    all channel counts run in one engine campaign
    (:func:`repro.faults.rareevent.sharded_estimates`), so one pool
    serves every row.
    """
    orgs = [MemoryOrg(channels=n) for n in FIG8_CHANNELS]
    estimates = sharded_estimates(orgs, mode=mode, trials=trials, seed=seed, jobs=jobs)
    rows = []
    for n, est in zip(FIG8_CHANNELS, estimates):
        threshold = est.percentile(99.9)
        rows.append(
            Fig8TailRow(
                channels=n,
                p999_fraction=threshold,
                tail_probability=est.tail_probability(threshold),
                tail_se=est.se_tail(threshold),
                threshold=threshold,
                trials=est.trials,
                ess=est.ess,
                mode=est.mode,
            )
        )
    return rows


@dataclass
class Fig18Row:
    window_hours: float
    probabilities: "dict[int, float]"  # fit -> lifetime probability


def figure18(org: "MemoryOrg | None" = None) -> "list[Fig18Row]":
    """P(multi-channel faults within any one scrub window over 7 years)."""
    org = org or MemoryOrg()
    rows = []
    for w in FIG18_WINDOWS_HOURS:
        probs = {
            fit: multi_channel_window_probability(w, fit, org) for fit in FIG18_FIT_RATES
        }
        rows.append(Fig18Row(w, probs))
    return rows
