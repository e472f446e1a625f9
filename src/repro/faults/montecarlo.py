"""Lifetime Monte Carlo of fault accumulation (Figure 8, Table III EOL).

Simulates a population of memory systems over seven years: fault events
arrive per chip as Poisson processes split by mode; counter-saturating
modes (column/bank/multi-bank/multi-rank) cause their bank pair(s) to be
recorded as faulty, materializing actual ECC correction bits for those
banks.  The observable is the fraction of memory that ends life protected
by materialized correction bits rather than ECC parities - the quantity
Figure 8 reports as an average and a 99.9th percentile, and the driver of
Table III's end-of-life capacity overheads.

The simulation is a whole-array program: trials are processed in fixed
chunks (so memory stays bounded at millions of trials), and within a chunk
every random draw is an array draw.  The vectorized :func:`_chunk_batched`
and the retained per-event loop :func:`_chunk_reference` consume the *same*
draws from :func:`_draw_chunk` and must produce identical per-trial
fractions (``tests/test_mc_batched.py``).  The chunk loop is
:func:`repro.faults.rareevent.run_plain`, which tallies every plain run -
Figure 8 and Table III included - into a
:class:`~repro.faults.rareevent.WeightedTally`.

The vectorized path dedupes faulty bank pairs without any per-trial set:
each (trial, channel, pair) is packed into one integer key and the whole
chunk is deduped with a single ``np.unique`` + ``np.bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.fit_rates import (
    FIT_BY_MODE,
    SATURATING_MODES,
    FaultMode,
    MemoryOrg,
)
from repro.util.envcfg import mc_trials
from repro.util.rng import make_rng
from repro.util.units import YEARS

#: Banks a saturating fault marks faulty, per mode (bank pairs round up).
_BANKS_MATERIALIZED = {
    FaultMode.SINGLE_COLUMN: 2,  # one bank -> its pair
    FaultMode.SINGLE_BANK: 2,
    FaultMode.MULTI_BANK: 4,  # two banks, typically adjacent -> two pairs
    FaultMode.MULTI_RANK: None,  # all banks of two ranks
}

#: Saturating modes in enum order - the draw order of every chunk.
_SAT_MODES = tuple(m for m in FaultMode if m in SATURATING_MODES)

#: Default trials per whole-array chunk: bounds peak memory (a few MB of
#: event arrays) while keeping array draws long enough to amortize NumPy
#: dispatch.  An explicit ``chunk_size`` argument overrides it.
DEFAULT_CHUNK = 1 << 16

def resolve_chunk(chunk_size: "int | None" = None) -> int:
    """Trials per chunk: an explicit *chunk_size* (``>= 1``), else
    :data:`DEFAULT_CHUNK`.

    The chunk size slices the shared draw stream, so two runs agree
    bit-for-bit only at a matched chunk size.
    """
    if chunk_size is None:
        return DEFAULT_CHUNK
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError(f"mc chunk size must be >= 1, got {chunk_size}")
    return chunk_size


def _draw_chunk(
    rng: np.random.Generator,
    org: MemoryOrg,
    lam: "dict[FaultMode, float]",
    n: int,
) -> "dict[FaultMode, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
    """Draw one chunk of *n* trials' worth of saturating events.

    This is the draw-order contract shared by the vectorized and reference
    simulations: per mode (enum order) a Poisson count vector over trials,
    then - for that mode's pooled events, in trial order - a channel array,
    a rank array, and a third array (second rank for MULTI_RANK, bank
    otherwise).  Returns ``{mode: (counts, channels, ranks, third)}``.
    """
    draws = {}
    for m in _SAT_MODES:
        counts = rng.poisson(lam[m], size=n)
        draws[m] = (counts,) + _draw_placements(rng, org, m, int(counts.sum()))
    return draws


def _draw_placements(
    rng: np.random.Generator, org: MemoryOrg, mode: FaultMode, events: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Placement stage of the draw contract for one mode's pooled events.

    Uniform over the organization in both the nominal and every proposal
    measure (only the *count* distributions are reweighted/stratified), so
    the likelihood ratios in :mod:`repro.faults.rareevent` involve counts
    alone.  Shared verbatim by :func:`_draw_chunk` and
    :func:`_draw_chunk_conditional`.
    """
    channels = rng.integers(org.channels, size=events)
    ranks = rng.integers(org.ranks_per_channel, size=events)
    if mode is FaultMode.MULTI_RANK:
        third = rng.integers(org.ranks_per_channel, size=events)
    else:
        third = rng.integers(org.banks_per_rank, size=events)
    return channels, ranks, third


def _draw_chunk_conditional(
    rng: np.random.Generator,
    org: MemoryOrg,
    lam: "dict[FaultMode, float]",
    totals: np.ndarray,
) -> "dict[FaultMode, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
    """Draw one chunk *conditioned on per-trial total event counts*.

    The superposition of the per-mode Poisson processes splits exactly:
    given trial *t*'s total count ``totals[t]``, the per-mode counts are
    multinomial with probabilities ``lam[m] / sum(lam)``.  One broadcast
    multinomial draws the whole split, then each mode's pooled events get
    placements from :func:`_draw_placements` in enum order — the same
    ``{mode: (counts, channels, ranks, third)}`` contract
    :func:`_chunk_batched` and :func:`_chunk_reference` consume, so the
    stratified sampler reuses both chunk kernels unchanged.
    """
    totals = np.asarray(totals, dtype=np.int64)
    lam_total = sum(lam[m] for m in _SAT_MODES)
    pvals = np.array([lam[m] / lam_total for m in _SAT_MODES])
    split = rng.multinomial(totals, pvals)  # (n, modes)
    draws = {}
    for j, m in enumerate(_SAT_MODES):
        counts = split[:, j].astype(np.int64)
        draws[m] = (counts,) + _draw_placements(rng, org, m, int(counts.sum()))
    return draws


def _chunk_batched(org: MemoryOrg, draws, n: int) -> np.ndarray:
    """Vectorized chunk: pack (trial, channel, pair) keys, dedupe, count."""
    ppr = org.banks_per_rank // 2  # bank pairs per rank
    ppc = org.ranks_per_channel * ppr  # bank pairs per channel
    pairs_per_trial = org.channels * ppc
    keys = []
    for m in _SAT_MODES:
        counts, channels, ranks, third = draws[m]
        if channels.size == 0:
            continue
        trial = np.repeat(np.arange(n, dtype=np.int64), counts)
        base = trial * pairs_per_trial + channels * ppc
        if m is FaultMode.MULTI_RANK:
            offsets = np.arange(ppr, dtype=np.int64)
            keys.append(((base + ranks * ppr)[:, None] + offsets).ravel())
            keys.append(((base + third * ppr)[:, None] + offsets).ravel())
            continue
        pair0 = ranks * ppr + third // 2
        keys.append(base + pair0)
        if m is FaultMode.MULTI_BANK:
            # Adjacent pair, wrapping at the rank edge (see _chunk_reference).
            nxt = ranks * ppr + (third // 2 + 1) % ppr if ppr > 1 else pair0
            keys.append(base + nxt)
    fractions = np.zeros(n)
    if keys:
        # Dedupe by sort + neighbour-diff rather than np.unique: the keys
        # are mostly-distinct int64s, where numpy's hash-based unique path
        # costs several times a plain sort (the dominant chunk cost for
        # fault-heavy proposals in repro.faults.rareevent).
        all_keys = np.concatenate(keys)
        all_keys.sort()
        fresh = np.empty(all_keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(all_keys[1:], all_keys[:-1], out=fresh[1:])
        per_trial = np.bincount(all_keys[fresh] // pairs_per_trial, minlength=n)
        fractions = 2.0 * per_trial / org.total_banks
    return fractions


def _chunk_reference(org: MemoryOrg, draws, n: int) -> np.ndarray:
    """Reference chunk: the original per-event set accumulation.

    Consumes the same arrays as :func:`_chunk_batched`, walking each mode's
    pooled events with a cursor so event *i* of trial *t* sees exactly the
    draw the vectorized path uses.
    """
    ppr = org.banks_per_rank // 2
    total_banks = org.total_banks
    fractions = np.zeros(n)
    cursor = {m: 0 for m in _SAT_MODES}
    for t in range(n):
        faulty_pairs: "set[tuple[int, int]]" = set()  # (channel, global pair id)
        for m in _SAT_MODES:
            counts, channels, ranks, third = draws[m]
            start = cursor[m]
            stop = start + int(counts[t])
            cursor[m] = stop
            for i in range(start, stop):
                channel = int(channels[i])
                rank = int(ranks[i])
                if m is FaultMode.MULTI_RANK:
                    for rk in {rank, int(third[i])}:
                        for pair in range(ppr):
                            faulty_pairs.add((channel, rk * ppr + pair))
                    continue
                bank = int(third[i])
                faulty_pairs.add((channel, rank * ppr + bank // 2))
                if m is FaultMode.MULTI_BANK:
                    # The second bank of a multi-bank fault lands in the
                    # *adjacent* pair; at the top of the rank it wraps to
                    # pair 0 rather than clamping onto the same pair (the
                    # old min() clamp silently dropped the second bank).
                    nxt_pair = (bank // 2 + 1) % ppr if ppr > 1 else bank // 2
                    faulty_pairs.add((channel, rank * ppr + nxt_pair))
        if faulty_pairs:
            fractions[t] = 2 * len(faulty_pairs) / total_banks
    return fractions


def _draw_scatter_chunk(
    rng: np.random.Generator,
    scheme,
    rate: float,
    n: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Draw one chunk of *n* codec trials: payloads + scattered bit flips.

    Per trial: a random line payload, a ``Poisson(rate)`` flip count, and
    - pooled across the chunk in trial order - uniform (byte, bit)
    placements over the trial's data-chip matrix.  Only the *count*
    distribution is tilted by the importance sampler; placements are
    uniform under both measures, so (exactly as for :func:`_draw_chunk`)
    the likelihood ratios involve counts alone.  *scheme* is any
    :class:`~repro.ecc.base.ECCScheme`-shaped object (duck-typed; this
    module never imports the ecc layer).
    """
    data = rng.integers(0, 256, size=(n, scheme.line_size), dtype=np.uint8)
    counts = rng.poisson(rate, size=n)
    total = int(counts.sum())
    pos = rng.integers(scheme.data_chips * scheme.chip_bytes, size=total)
    bit = rng.integers(8, size=total)
    return data, counts, pos, bit


def _codec_scatter_tally(
    scheme, data: np.ndarray, counts: np.ndarray, pos: np.ndarray, bit: np.ndarray
) -> np.ndarray:
    """Per-trial silent-or-wrong indicator for one scatter chunk.

    Builds the drawn flips as an XOR error on the chip matrices and hands
    the whole chunk to ``scheme.correct_errors`` (one batched codec call -
    the RS decode kernel sees every dirty word at once): trials without a
    flip never reach the decoder, and a linear scheme decodes the error
    alone, with no payload encoded.  Returns 1.0 where the scheme claimed
    recovery but the line is wrong - the same miscorrection/silent-
    corruption bucket ``experiments.coverage`` counts.
    """
    n = data.shape[0]
    error = np.zeros((n, scheme.data_chips * scheme.chip_bytes), dtype=np.uint8)
    trial = np.repeat(np.arange(n), counts)
    np.bitwise_xor.at(error, (trial, pos), (np.uint8(1) << bit).astype(np.uint8))
    ok, right = scheme.correct_errors(data, error.reshape(n, scheme.data_chips, scheme.chip_bytes))
    return (ok & ~right).astype(np.float64)


class EolCapacitySim:
    """Monte Carlo for the end-of-life materialized-memory fraction."""

    def __init__(
        self,
        org: "MemoryOrg | None" = None,
        lifetime_hours: float = 7 * YEARS,
        seed: "int | None" = 0,
    ):
        self.org = org or MemoryOrg()
        self.lifetime_hours = lifetime_hours
        self.rng = make_rng(seed)

    def _lambdas(self) -> "dict[FaultMode, float]":
        # Expected saturating events per system lifetime, per mode.
        org = self.org
        return {
            m: FIT_BY_MODE[m] * 1e-9 * org.total_chips * self.lifetime_hours
            for m in _SAT_MODES
        }


def _eol_cell(
    channels: int,
    trials: int,
    seed: int,
    lifetime_hours: float,
    chunk_size: int,
) -> "tuple[int, rareevent.WeightedEstimate]":
    """Worker entry point: one Figure 8 cell from primitives.

    Module-level (picklable) and pure - the sim seeds itself from the
    arguments - so a cell computed in a worker process is bit-identical to
    the same cell computed serially.  Returns ``(channels, estimate)``.
    """
    from repro.faults.rareevent import run_plain

    sim = EolCapacitySim(
        MemoryOrg(channels=channels), lifetime_hours=lifetime_hours, seed=seed + channels
    )
    return channels, run_plain(sim, trials, chunk_size)


def eol_fraction_by_channels(
    channel_counts: "list[int]",
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> "dict[int, rareevent.WeightedEstimate]":
    """Figure 8 driver: EOL materialized fraction for several system widths.

    *trials* defaults to ``REPRO_MC_TRIALS`` (else 20000).  Cells fan out
    over processes (``jobs``; ``REPRO_JOBS``/cpu count by default, 1 =
    in-process) and come back as plain-MC estimates.  Each cell runs once;
    a cell that raises, or that a dying pool worker leaves unfinished,
    surfaces in a :class:`~repro.experiments.parallel.CampaignError`
    *after* every other result has arrived.  Nothing is cached, so a
    failed campaign is simply rerun.
    """
    from repro.experiments import parallel

    trials = mc_trials(trials, 20000)
    payloads = [(n, trials, seed, 7 * YEARS, DEFAULT_CHUNK) for n in channel_counts]
    cells = dict(parallel.run_tasks(_eol_cell, payloads, jobs=jobs))
    return {n: cells[n] for n in channel_counts}


@dataclass
class HpcStallResult:
    """Simulated §VI-B outcome over one system lifetime."""

    migrations: int
    stall_hours: float
    lifetime_hours: float

    @property
    def stall_fraction(self) -> float:
        return self.stall_hours / self.lifetime_hours


def hpc_stall_mc(
    total_memory_pb: float = 2.0,
    node_memory_gb: float = 128.0,
    nic_gbps: float = 1.0,
    chip_gbits: float = 2.0,
    reconstruction_read_gbps: float = 25.6,
    lifetime_hours: float = 7 * YEARS,
    trials: int = 200,
    seed: int = 0,
) -> HpcStallResult:
    """Monte Carlo cross-check of the Section VI-B stall estimate.

    Draws counter-saturating fault events (column/bank/multi-bank/multi-rank
    modes) across all nodes over the lifetime; every event stalls the whole
    machine for a thread migration (node memory over the NIC) plus the
    reconstruction of the faulty regions' correction bits (a full-memory
    read).  Aggregates over *trials* simulated machines.
    """
    from repro.faults.fit_rates import SATURATING_FIT

    rng = make_rng(seed)
    nodes = total_memory_pb * 1024 * 1024 / node_memory_gb
    chips_per_node = node_memory_gb * 8 / chip_gbits * 1.125  # incl. ECC chips
    rate = nodes * chips_per_node * SATURATING_FIT * 1e-9  # events/hour
    stall_per_event_h = (
        node_memory_gb / nic_gbps + node_memory_gb / reconstruction_read_gbps
    ) / 3600.0
    events = rng.poisson(rate * lifetime_hours, size=trials)
    total_events = int(events.sum())
    return HpcStallResult(
        migrations=total_events,
        stall_hours=total_events * stall_per_event_h / trials,
        lifetime_hours=lifetime_hours,
    )


@dataclass
class ChannelGapStats:
    """Monte Carlo estimate of the gap between faults in *different* channels.

    The sample ends mid-run almost surely, so the trailing same-channel run
    is *censored*: its partial gap is excluded from the mean (including it
    would bias the estimate low, since the run is cut short by the end of
    the sample rather than by a channel change).  ``censored_tail_events``
    reports how many drawn events were discarded this way.
    """

    mean_days: float
    runs_counted: int
    censored_tail_events: int


def channel_fault_gap_stats(
    fit_per_chip: float,
    org: "MemoryOrg | None" = None,
    trials: int = 20000,
    seed: int = 0,
) -> ChannelGapStats:
    """Vectorized Monte Carlo behind Figure 2's analytic cross-check.

    Samples *trials* consecutive fault (inter-arrival gap, channel) pairs
    and averages the elapsed time between each fault and the next fault
    striking a *different* channel.  Run boundaries are the positions where
    the channel changes; the interval for each boundary pair is a cumulative
    -sum difference, so the whole walk is three array operations.
    """
    org = org or MemoryOrg()
    rng = make_rng(seed)
    lam_sys = org.system_fault_rate_per_hour(fit_per_chip)
    gaps = rng.exponential(1.0 / lam_sys, size=trials)
    chans = rng.integers(org.channels, size=trials)
    elapsed = np.cumsum(gaps)
    # Anchors: the first event, then every event whose channel differs from
    # its predecessor - exactly the points where the scalar walk restarted.
    anchors = np.concatenate(([0], np.flatnonzero(np.diff(chans) != 0) + 1))
    intervals = elapsed[anchors[1:]] - elapsed[anchors[:-1]]
    censored = trials - 1 - int(anchors[-1])
    mean_days = float(intervals.sum() / max(1, intervals.size)) / 24.0
    return ChannelGapStats(
        mean_days=mean_days,
        runs_counted=int(intervals.size),
        censored_tail_events=censored,
    )


def mean_time_between_channel_faults_mc(
    fit_per_chip: float,
    org: "MemoryOrg | None" = None,
    trials: int = 20000,
    seed: int = 0,
) -> float:
    """Monte Carlo cross-check of Figure 2's analytic curve (days).

    Thin wrapper over :func:`channel_fault_gap_stats`; see its docstring
    for the censoring of the trailing same-channel run.
    """
    return channel_fault_gap_stats(fit_per_chip, org, trials, seed).mean_days
