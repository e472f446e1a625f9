"""Property tests for the batched reliability plane's Monte Carlo paths.

The vectorized implementations each retain a per-event/per-trial reference
that consumes the *same* draw stream; these tests pin the two bit-equal
(or, where float summation order differs, numerically equal) across
organizations, seeds, and chunk sizes.
"""

import numpy as np
import pytest

from repro.ecc.chipkill import Chipkill18, Chipkill36
from repro.ecc.double_chipkill import DoubleChipkill40
from repro.ecc.lot_ecc import LotEcc5, LotEcc9
from repro.experiments import coverage
from repro.faults.analysis import (
    hpc_stall_fraction,
    mean_time_between_channel_faults_days,
)
from repro.faults.fit_rates import FaultMode, MemoryOrg
from repro.faults.montecarlo import (
    _SAT_MODES,
    DEFAULT_CHUNK,
    EolCapacitySim,
    _chunk_batched,
    _chunk_reference,
    _draw_chunk,
    channel_fault_gap_stats,
    hpc_stall_mc,
    mean_time_between_channel_faults_mc,
)
from repro.faults.rareevent import run_plain
from repro.util.rng import make_rng

ORGS = [
    MemoryOrg(),  # paper defaults: 8ch x 4ranks x 8banks
    MemoryOrg(channels=2, ranks_per_channel=1, banks_per_rank=2),  # ppr == 1 edge
    MemoryOrg(channels=16),
]


def _both_kernels(org, seed, trials, chunk_size=DEFAULT_CHUNK):
    """Per-trial fractions of the batched and the reference chunk kernel,
    each fed the same :func:`_draw_chunk` draws chunk by chunk."""
    sim = EolCapacitySim(org, seed=seed)
    lam = sim._lambdas()
    batched, reference = [], []
    for lo in range(0, trials, chunk_size):
        n = min(chunk_size, trials - lo)
        draws = _draw_chunk(sim.rng, org, lam, n)
        batched.append(_chunk_batched(org, draws, n))
        reference.append(_chunk_reference(org, draws, n))
    return np.concatenate(batched), np.concatenate(reference)


class TestEolBatchedEqualsReference:
    @pytest.mark.parametrize("org", ORGS, ids=["default", "tiny", "wide"])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_identical_fractions(self, org, seed):
        batched, reference = _both_kernels(org, seed, 4000)
        assert np.array_equal(batched, reference)

    def test_identical_across_chunks(self):
        # Chunk boundaries change only how the stream is sliced; batched and
        # reference consume it identically within every chunk.
        batched, reference = _both_kernels(MemoryOrg(), 9, 3000, chunk_size=1024)
        assert np.array_equal(batched, reference)

    def test_magnitude_matches_paper(self):
        res = run_plain(EolCapacitySim(seed=0), 8000)
        assert 0.0005 < res.mean < 0.01


def _only_mode_draws(org, mode, channels, ranks, third, n=1):
    """A draws dict with events only under *mode* (all in trial 0)."""
    draws = {}
    for m in _SAT_MODES:
        if m is mode:
            counts = np.zeros(n, dtype=np.int64)
            counts[0] = len(channels)
            draws[m] = (
                counts,
                np.asarray(channels, dtype=np.int64),
                np.asarray(ranks, dtype=np.int64),
                np.asarray(third, dtype=np.int64),
            )
        else:
            empty = np.zeros(0, dtype=np.int64)
            draws[m] = (np.zeros(n, dtype=np.int64), empty, empty, empty)
    return draws


class TestMultiBankWrap:
    def test_wraps_at_rank_edge(self):
        # A MULTI_BANK fault at the top bank pair must mark the *adjacent*
        # pair faulty by wrapping to pair 0 - the old min() clamp folded it
        # onto the same pair, silently dropping the second bank.
        org = MemoryOrg(channels=4, ranks_per_channel=1, banks_per_rank=4)
        draws = _only_mode_draws(org, FaultMode.MULTI_BANK, [1], [0], [3])
        batched = _chunk_batched(org, draws, 1)
        reference = _chunk_reference(org, draws, 1)
        assert np.array_equal(batched, reference)
        # Two distinct pairs -> four banks materialized.
        assert batched[0] == pytest.approx(4 / org.total_banks)

    def test_single_pair_rank_has_no_second_pair(self):
        # With one pair per rank there is no adjacent pair to mark.
        org = MemoryOrg(channels=4, ranks_per_channel=2, banks_per_rank=2)
        draws = _only_mode_draws(org, FaultMode.MULTI_BANK, [0], [1], [1])
        batched = _chunk_batched(org, draws, 1)
        assert np.array_equal(batched, _chunk_reference(org, draws, 1))
        assert batched[0] == pytest.approx(2 / org.total_banks)

    def test_interior_pair_marks_adjacent(self):
        org = MemoryOrg(channels=4, ranks_per_channel=1, banks_per_rank=8)
        draws = _only_mode_draws(org, FaultMode.MULTI_BANK, [2], [0], [2])
        batched = _chunk_batched(org, draws, 1)
        assert np.array_equal(batched, _chunk_reference(org, draws, 1))
        assert batched[0] == pytest.approx(4 / org.total_banks)


class TestChannelGapStats:
    def _oracle(self, fit, org, trials, seed):
        """Scalar re-derivation of the vectorized anchor walk."""
        rng = make_rng(seed)
        lam = org.system_fault_rate_per_hour(fit)
        gaps = rng.exponential(1.0 / lam, size=trials)
        chans = rng.integers(org.channels, size=trials)
        intervals = []
        run_start_elapsed = 0.0
        elapsed = 0.0
        last = int(chans[0])
        consumed = 1
        for i in range(1, trials):
            elapsed += gaps[i]
            if int(chans[i]) != last:
                intervals.append(elapsed - run_start_elapsed)
                run_start_elapsed = elapsed
                last = int(chans[i])
                consumed = i + 1
        censored = trials - consumed
        mean_days = sum(intervals) / max(1, len(intervals)) / 24.0
        return mean_days, len(intervals), censored

    @pytest.mark.parametrize("trials", [2, 3, 17, 400])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_small_trials_match_scalar_oracle(self, trials, seed):
        org = MemoryOrg()
        stats = channel_fault_gap_stats(44.0, org, trials=trials, seed=seed)
        mean, runs, censored = self._oracle(44.0, org, trials, seed)
        assert stats.runs_counted == runs
        assert stats.censored_tail_events == censored
        assert stats.mean_days == pytest.approx(mean, rel=1e-9, abs=1e-12)

    def test_trailing_run_is_censored(self):
        # With 2 channels, runs are long and a sample regularly ends inside
        # a same-channel run; those tail events must be reported as censored
        # (not folded into the mean as a cut-short interval).
        org = MemoryOrg(channels=2)
        results = [
            channel_fault_gap_stats(44.0, org, trials=50, seed=seed) for seed in range(20)
        ]
        assert any(s.censored_tail_events > 0 for s in results)
        for stats in results:
            assert 0 <= stats.censored_tail_events < 50
            # Censored events and counted runs partition at the last anchor:
            # the oracle cross-check in test_small_trials_match_scalar_oracle
            # pins the exact values; here just the structural bound.
            assert stats.runs_counted >= 0

    def test_wrapper_returns_mean(self):
        assert mean_time_between_channel_faults_mc(44.0, trials=500, seed=3) == (
            channel_fault_gap_stats(44.0, trials=500, seed=3).mean_days
        )


class TestCoverageBatchedEqualsReference:
    @pytest.mark.parametrize(
        "scheme_cls", [Chipkill36, Chipkill18, DoubleChipkill40, LotEcc5, LotEcc9]
    )
    @pytest.mark.parametrize("pattern", sorted(coverage.PATTERNS))
    def test_identical_tallies(self, scheme_cls, pattern):
        scheme = scheme_cls()
        rng = make_rng(np.random.SeedSequence((31, 1)))
        data, spec = coverage._draw_chunk(scheme, pattern, 1024, rng)
        batched = coverage._tally_batched(scheme, data, spec)
        reference = coverage._tally_reference(scheme, data, spec)
        assert np.array_equal(batched, reference)
        assert int(batched.sum()) == 1024


class TestHpcStallMc:
    def test_seeded_determinism(self):
        a = hpc_stall_mc(trials=50, seed=4)
        b = hpc_stall_mc(trials=50, seed=4)
        assert (a.migrations, a.stall_hours) == (b.migrations, b.stall_hours)
        assert hpc_stall_mc(trials=50, seed=5).migrations != a.migrations

    def test_agrees_with_closed_form(self):
        # stall_fraction is total-event-count driven; at ~1e4 expected
        # events per machine over 200 machines the MC mean sits within a
        # fraction of a percent of the analytic Section VI-B estimate.
        mc = hpc_stall_mc(trials=200, seed=0)
        analytic = hpc_stall_fraction()
        assert mc.stall_fraction == pytest.approx(analytic, rel=5e-3)

    def test_stall_scales_with_nic_bandwidth(self):
        slow = hpc_stall_mc(nic_gbps=1.0, trials=50, seed=0)
        fast = hpc_stall_mc(nic_gbps=10.0, trials=50, seed=0)
        # Same seed, same event draws: only the per-event stall shrinks.
        assert fast.migrations == slow.migrations
        assert fast.stall_hours < slow.stall_hours


class TestChannelGapClosedForm:
    def test_mean_matches_analytic(self):
        # E[gap to a different-channel fault] = 1 / ((N-1) lam_channel);
        # ~17k counted runs at the default org pin the MC mean within ~2%.
        org = MemoryOrg()
        mc = channel_fault_gap_stats(44.0, org, trials=20_000, seed=0)
        analytic = mean_time_between_channel_faults_days(44.0, org)
        assert mc.mean_days == pytest.approx(analytic, rel=0.02)

    def test_wrapper_matches_analytic(self):
        assert mean_time_between_channel_faults_mc(
            100.0, trials=20_000, seed=1
        ) == pytest.approx(mean_time_between_channel_faults_days(100.0), rel=0.02)

    def test_single_channel_never_ends_a_run(self):
        # One channel: no fault ever lands in a *different* channel, so no
        # run completes and everything after the anchor is censored.
        stats = channel_fault_gap_stats(44.0, MemoryOrg(channels=1), trials=100, seed=0)
        assert stats.runs_counted == 0
        assert stats.censored_tail_events == 99
        assert stats.mean_days == 0.0
