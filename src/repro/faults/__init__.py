"""DRAM fault modeling: field FIT rates, Monte Carlo lifetime simulation,
closed-form reliability analyses, and fault injection into the functional
machine."""

from repro.faults.analysis import (
    LIFETIME_HOURS,
    added_uncorrectable_interval_years,
    hpc_stall_fraction,
    mean_time_between_channel_faults_days,
    multi_channel_window_probability,
    undetectable_error_interval_years,
)
from repro.faults.fit_rates import (
    FIT_BY_MODE,
    SATURATING_FIT,
    SATURATING_MODES,
    TOTAL_FIT_DDR3,
    FaultMode,
    MemoryOrg,
)
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.montecarlo import (
    ChannelGapStats,
    EolCapacitySim,
    EolResult,
    HpcStallResult,
    channel_fault_gap_stats,
    eol_fraction_by_channels,
    hpc_stall_mc,
    mean_time_between_channel_faults_mc,
)
from repro.faults.rareevent import (
    StratifiedEstimate,
    WeightedEstimate,
    WeightedTally,
    oracle_compare,
    run_estimate,
    sharded_estimate,
    sharded_estimates,
    weighted_percentile,
)

__all__ = [
    "LIFETIME_HOURS",
    "added_uncorrectable_interval_years",
    "hpc_stall_fraction",
    "mean_time_between_channel_faults_days",
    "multi_channel_window_probability",
    "undetectable_error_interval_years",
    "FIT_BY_MODE",
    "SATURATING_FIT",
    "SATURATING_MODES",
    "TOTAL_FIT_DDR3",
    "FaultMode",
    "MemoryOrg",
    "FaultInjector",
    "InjectedFault",
    "ChannelGapStats",
    "EolCapacitySim",
    "EolResult",
    "HpcStallResult",
    "channel_fault_gap_stats",
    "eol_fraction_by_channels",
    "hpc_stall_mc",
    "mean_time_between_channel_faults_mc",
    "StratifiedEstimate",
    "WeightedEstimate",
    "WeightedTally",
    "oracle_compare",
    "run_estimate",
    "sharded_estimate",
    "sharded_estimates",
    "weighted_percentile",
]
