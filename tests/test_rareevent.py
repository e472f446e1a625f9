"""Tests for the rare-event estimators (``repro.faults.rareevent``).

Three layers of guarantees:

* **Conventions** - :func:`weighted_percentile` reproduces numpy's
  ``linear`` (type-7) interpolation exactly on unit weights and on
  integer-count histograms, which pins the weighted estimators to
  :meth:`EolResult.percentile` on the plain-MC special case.
* **Unbiasedness** - the vectorized likelihood ratios match the per-trial
  log-pmf reference, importance weights average to one, and the oracle
  (:func:`oracle_compare`) keeps IS and stratified estimates within
  analytic CI bounds of plain MC.
* **Campaign semantics** - sharded runs merge bit-identically serial vs
  parallel and survive an armed chaos storm.
"""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from repro.faults.fit_rates import MemoryOrg
from repro.faults import montecarlo, rareevent
from repro.faults.montecarlo import _SAT_MODES, EolCapacitySim, _draw_chunk
from repro.faults.rareevent import (
    DEFAULT_MC_TILT,
    DEFAULT_STRATA,
    MAX_TALLY_POINTS,
    StratifiedEstimate,
    WeightedEstimate,
    WeightedTally,
    _is_log_weights,
    _is_log_weights_reference,
    _tilt_by_mode,
    estimate_from_dict,
    oracle_compare,
    run_estimate,
    run_is,
    run_plain,
    run_stratified,
    sharded_estimate,
    weighted_percentile,
)
from repro.experiments.reliability import FIG8_CHANNELS, figure8_tail

ORGS = [
    MemoryOrg(),
    MemoryOrg(channels=2, ranks_per_channel=1, banks_per_rank=2),
    MemoryOrg(channels=16),
]

QS = [0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0]


def _sim(salt: int, org: "MemoryOrg | None" = None, **kw) -> EolCapacitySim:
    return EolCapacitySim(
        org, seed=np.random.default_rng(np.random.SeedSequence((0, salt))), **kw
    )


class TestWeightedPercentile:
    def test_unit_weights_are_numpy_linear(self, rng):
        values = rng.normal(size=257)
        for q in QS:
            expected = float(np.percentile(values, q, method="linear"))
            assert weighted_percentile(values, None, q) == expected
            got = weighted_percentile(values, np.ones_like(values), q)
            assert got == pytest.approx(expected, rel=0, abs=1e-12)

    def test_integer_counts_equal_expanded_sample(self, rng):
        # The convention the module is built on: integer weights with
        # samples=sum(weights) reproduce np.percentile over the repeated
        # sample exactly - including the flat segments duplicates create.
        for case in range(40):
            k = int(rng.integers(2, 12))
            values = np.sort(rng.normal(size=k))
            counts = rng.integers(1, 9, size=k)
            expanded = np.repeat(values, counts)
            for q in QS:
                expected = float(np.percentile(expanded, q, method="linear"))
                got = weighted_percentile(
                    values, counts.astype(float), q, samples=int(counts.sum())
                )
                assert got == pytest.approx(expected, rel=0, abs=1e-12), (case, q)

    def test_monotone_in_q(self, rng):
        values = rng.normal(size=64)
        weights = rng.random(64) + 0.01
        got = [weighted_percentile(values, weights, q) for q in QS]
        assert got == sorted(got)

    def test_zero_weight_points_do_not_anchor(self):
        # A zero-weight outlier must not drag the interpolation grid.
        assert weighted_percentile(
            np.array([1.0, 2.0, 1e9]), np.array([1.0, 1.0, 0.0]), 100.0
        ) == pytest.approx(2.0)

    def test_single_point_and_degenerate_mass(self):
        assert weighted_percentile(np.array([3.0]), np.array([2.0]), 50.0) == 3.0
        # samples=1: the whole mass is one nominal sample, no span to
        # interpolate over.
        assert weighted_percentile(
            np.array([1.0, 5.0]), np.array([0.5, 0.5]), 50.0, samples=1
        ) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_percentile(np.array([]), None, 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([1.0]), 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([1.0, -0.5]), 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 50.0)


class TestLikelihoodRatios:
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: f"{o.channels}ch")
    @pytest.mark.parametrize("tilt", [1.0, 2.5, 6.0])
    def test_vectorized_matches_reference(self, org, tilt):
        sim = _sim(11, org)
        lam = sim._lambdas()
        tilts = _tilt_by_mode(org, tilt)
        lam_q = {m: tilts[m] * lam[m] for m in _SAT_MODES}
        draws = _draw_chunk(sim.rng, org, lam_q, 256)
        fast = _is_log_weights(draws, lam, tilts)
        slow = _is_log_weights_reference(draws, lam, tilts)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_unit_tilt_is_plain_mc(self):
        org = MemoryOrg()
        tilts = _tilt_by_mode(org, 1.0)
        assert all(t == 1.0 for t in tilts.values())
        sim = _sim(3, org)
        lam = sim._lambdas()
        draws = _draw_chunk(sim.rng, org, lam, 64)
        assert np.all(_is_log_weights(draws, lam, tilts) == 0.0)

    def test_blast_radius_ordering(self):
        # Heavier modes tilt harder; the two-bank modes tilt by exactly
        # the scalar knob.
        from repro.faults.fit_rates import FaultMode

        tilts = _tilt_by_mode(MemoryOrg(), 6.0)
        assert tilts[FaultMode.SINGLE_COLUMN] == 6.0
        assert tilts[FaultMode.SINGLE_BANK] == 6.0
        assert tilts[FaultMode.MULTI_BANK] > tilts[FaultMode.SINGLE_BANK]
        assert tilts[FaultMode.MULTI_RANK] > tilts[FaultMode.MULTI_BANK]

    def test_importance_weights_average_to_one(self):
        est = run_is(_sim(7), trials=20_000, tilt=4.0)
        t = est.tally
        mean_w = t.sum_w / t.n
        var_w = max(0.0, t.sum_w_sq / t.n - mean_w**2)
        se = (var_w / t.n) ** 0.5
        assert abs(mean_w - 1.0) <= 5 * se


class TestPlainSpecialCase:
    """Satellite: the weighted pipeline with unit weights IS plain MC."""

    def test_plain_run_matches_eol_result(self):
        trials = 30_000
        result = EolCapacitySim(seed=0).run(trials)
        est = run_plain(EolCapacitySim(seed=0), trials)
        assert est.mean == pytest.approx(result.mean, rel=0, abs=1e-15)
        for q in (50.0, 99.0, 99.9):
            assert est.percentile(q) == result.percentile(q)
        assert est.tail_probability(est.percentile(99.9)) == pytest.approx(
            float((result.fractions >= result.percentile(99.9)).mean())
        )
        assert est.ess == pytest.approx(trials)
        assert est.tally.weight_cv_sq == pytest.approx(0.0, abs=1e-12)


class TestWeightedTally:
    def test_merge_matches_bulk(self, rng):
        values = rng.random(999)
        weights = rng.random(999) + 0.1
        bulk = WeightedTally()
        bulk.add(values, weights)
        split = WeightedTally()
        for lo, hi in ((0, 100), (100, 101), (101, 999)):
            part = WeightedTally()
            part.add(values[lo:hi], weights[lo:hi])
            split.merge(part)
        assert split.n == bulk.n
        assert split.sum_w == pytest.approx(bulk.sum_w, rel=1e-12)
        assert split.mean == pytest.approx(bulk.mean, rel=1e-12)
        assert split.ess == pytest.approx(bulk.ess, rel=1e-12)
        assert split.percentile(99.0) == pytest.approx(bulk.percentile(99.0), rel=1e-12)

    def test_round_trips_through_json(self, rng):
        tally = WeightedTally()
        tally.add(rng.random(500), rng.random(500))
        back = WeightedTally.from_dict(json.loads(json.dumps(tally.to_dict())))
        assert back.n == tally.n
        assert back.mean == tally.mean
        assert back.se_mean == tally.se_mean
        assert back.ess == tally.ess
        assert back.percentile(99.9) == tally.percentile(99.9)

    def test_compaction_bounds_histogram(self, rng):
        tally = WeightedTally()
        tally.add(rng.normal(size=3 * MAX_TALLY_POINTS))
        assert tally.compacted > 0
        assert len(tally._hist) <= MAX_TALLY_POINTS
        # Compaction merges at weight-averaged midpoints: the mean survives.
        assert tally.mean == pytest.approx(tally.sum_wv / tally.n, rel=1e-12)
        assert tally.n == 3 * MAX_TALLY_POINTS

    @staticmethod
    def _compare_compaction(values, weights):
        """Heap compaction == the quadratic oracle: same items, same order."""
        uniq, inverse = np.unique(values, return_inverse=True)
        w = np.bincount(inverse, weights=weights)
        q = np.bincount(inverse, weights=weights * weights)
        hist = dict(zip(uniq.tolist(), zip(w.tolist(), q.tolist())))
        fast, ref = WeightedTally(), WeightedTally()
        fast._hist = {v: list(c) for v, c in hist.items()}
        ref._hist = {v: list(c) for v, c in hist.items()}
        fast._compact()
        ref._compact_reference()
        assert fast.compacted == ref.compacted > 0
        got, want = list(fast._hist.items()), list(ref._hist.items())
        assert got == want
        assert np.array([v for v, _ in got]).tobytes() == np.array([v for v, _ in want]).tobytes()

    @pytest.mark.parametrize("case", ["normal", "equal_gaps", "grid_ties", "zero_weights"])
    def test_compaction_matches_reference(self, case, rng, monkeypatch):
        from repro.faults import rareevent

        monkeypatch.setattr(rareevent, "MAX_TALLY_POINTS", 64)
        n = 300
        if case == "normal":
            values, weights = rng.normal(size=n), rng.random(n) + 0.1
        elif case == "equal_gaps":  # every neighbour gap ties at first
            values, weights = np.arange(n) * 0.5, np.ones(n)
        elif case == "grid_ties":  # repeated values on a coarse grid, uneven weights
            values, weights = np.round(rng.normal(size=4 * n), 2), rng.integers(1, 4, 4 * n) * 1.0
        else:  # zero-weight pairs merge at the plain midpoint
            values, weights = rng.random(n), rng.integers(0, 2, n) * 1.0
        self._compare_compaction(values, weights)

    def test_compaction_matches_reference_at_cap(self, rng):
        values = np.round(rng.normal(size=MAX_TALLY_POINTS + 500), 4)
        self._compare_compaction(values, np.ones_like(values))

    def test_scaled_preserves_values_and_ess(self, rng):
        tally = WeightedTally()
        tally.add(rng.random(100), rng.random(100) + 0.5)
        scaled = tally.scaled(3.0)
        assert scaled.mean == pytest.approx(3.0 * tally.mean, rel=1e-12)
        assert scaled.ess == pytest.approx(tally.ess, rel=1e-12)
        assert scaled.percentile(50.0) == pytest.approx(tally.percentile(50.0), rel=1e-12)


class TestStratified:
    def test_zero_stratum_is_analytic(self):
        est = run_stratified(_sim(5), trials=2_000)
        zero = est.strata[0]
        assert zero.k == 0 and zero.exact == 0.0 and zero.tally.n == 0
        assert sum(s.prob for s in est.strata) == pytest.approx(1.0, abs=1e-12)
        assert all(s.tally.n > 0 for s in est.strata if s.exact is None and s.prob > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_stratified(_sim(1), trials=100, strata=1)

    def test_merge_rejects_mismatched_strata(self):
        a = run_stratified(_sim(1), trials=500, strata=4)
        b = run_stratified(_sim(2), trials=500, strata=5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_round_trips_through_json(self):
        est = run_stratified(_sim(9), trials=1_000)
        back = estimate_from_dict(json.loads(json.dumps(est.to_dict())))
        assert isinstance(back, StratifiedEstimate)
        assert back.mean == est.mean
        assert back.se_mean == est.se_mean
        assert back.trials == est.trials
        assert back.percentile(99.9) == est.percentile(99.9)


def _sample_tail_counts_oracle(rng, lam_total, kmax, n):
    """The tail sampler over the whole 10,001-term table, with no stop."""
    pmf = [rareevent._poisson_pmf(k, lam_total) for k in range(kmax, kmax + 10_001)]
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    u = rng.random(n)
    return kmax + np.searchsorted(cdf, u, side="left").astype(np.int64)


def _exact_tail(lam: float, kmax: int) -> Decimal:
    """``P(K >= kmax)`` for ``K ~ Poisson(lam)`` in 50-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam_d = Decimal(lam)
        term = (-lam_d).exp()
        for k in range(1, kmax + 1):
            term = term * lam_d / k
        total, k = Decimal(0), kmax
        while term > total * Decimal("1e-40"):
            total += term
            k += 1
            term = term * lam_d / k
        return total


def _fig8_rates():
    """``figure8_tail``'s total Poisson rate per channel count."""
    out = []
    for n in FIG8_CHANNELS:
        lam = EolCapacitySim(MemoryOrg(channels=n), seed=0)._lambdas()
        out.append(sum(lam[m] for m in _SAT_MODES))
    return out


class TestTailSampler:
    """``_sample_tail_counts`` draws exactly what the unbounded table draws."""

    @staticmethod
    def _assert_same_draws(lam, kmax, n=2000):
        for seed in (0, 1, 7, 123):
            got = rareevent._sample_tail_counts(np.random.default_rng(seed), lam, kmax, n)
            ref = _sample_tail_counts_oracle(np.random.default_rng(seed), lam, kmax, n)
            assert np.array_equal(got, ref), (lam, kmax, seed)

    def test_fig8_rates_bit_identical(self):
        for lam in _fig8_rates():
            self._assert_same_draws(lam, DEFAULT_STRATA)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 3.0, 8.0])
    @pytest.mark.parametrize("kmax", [2, 4, 6, 10])
    def test_grid_bit_identical(self, lam, kmax):
        self._assert_same_draws(lam, kmax)

    @pytest.mark.parametrize(
        "lam,kmax",
        [pytest.param(lam, 6, id=f"fig8-{i}") for i, lam in enumerate(_fig8_rates())]
        + [(3.0, 2), (8.0, 10)],
    )
    def test_table_is_a_prefix(self, monkeypatch, lam, kmax):
        """The shorter table is a prefix of the unbounded one, and every
        entry it drops equals its last: the searched CDFs agree bit for bit."""
        search = np.searchsorted

        def cdf_of(sampler):
            seen = []

            def spy(cdf, u, side):
                seen.append(cdf)
                return search(cdf, u, side=side)

            with monkeypatch.context() as mp:
                mp.setattr(np, "searchsorted", spy)
                sampler(np.random.default_rng(0), lam, kmax, 1)
            return seen[0]

        got = cdf_of(rareevent._sample_tail_counts)
        ref = cdf_of(_sample_tail_counts_oracle)
        assert np.array_equal(got, ref[: got.size])
        assert np.all(ref[got.size :] == got[-1])

    def test_table_bounded_at_fig8_rates(self, monkeypatch):
        calls = []
        pmf = rareevent._poisson_pmf

        def spy(k, lam):
            calls.append(k)
            return pmf(k, lam)

        monkeypatch.setattr(rareevent, "_poisson_pmf", spy)
        for lam in _fig8_rates():
            calls.clear()
            rareevent._sample_tail_counts(np.random.default_rng(0), lam, DEFAULT_STRATA, 10)
            assert len(calls) < 200, lam


class TestTailWeight:
    """The ``K >= kmax`` stratum weight is the directly summed tail."""

    @pytest.mark.parametrize("lam", [0.0518, 0.414, *_fig8_rates()])
    def test_matches_direct_sum(self, lam):
        exact = _exact_tail(lam, DEFAULT_STRATA)
        got = rareevent._stratum_probs(lam, DEFAULT_STRATA)[-1]
        assert abs(Decimal(got) - exact) / exact <= Decimal("1e-12")


class TestOracle:
    """The unbiasedness oracle: weighted estimates agree with plain MC."""

    def test_is_and_strat_within_ci(self):
        threshold = run_plain(_sim(1), 40_000).percentile(99.9)
        report = oracle_compare(trials=30_000, threshold=threshold)
        assert report["ok"], report["zscores"]
        # Variance reduction is the point: IS must beat plain's tail SE.
        assert (
            report["estimates"]["is"]["se_tail"]
            < report["estimates"]["plain"]["se_tail"]
        )

    def test_disagreement_flips_ok(self):
        # A corrupted estimator (simulated via a tiny z bound) must be
        # reported, not silently averaged away.
        report = oracle_compare(trials=5_000, z=1e-9)
        assert not report["ok"]


class TestShardedCampaigns:
    def test_serial_equals_parallel_bitwise(self, monkeypatch):
        monkeypatch.setattr(rareevent, "DEFAULT_SHARDS", 3)
        monkeypatch.setattr(rareevent, "DEFAULT_MC_TILT", 4.0)
        kw = dict(mode="is", trials=6_000, seed=4)
        serial = sharded_estimate(jobs=1, **kw)
        par = sharded_estimate(jobs=2, **kw)
        assert serial.to_dict() == par.to_dict()
        assert serial.trials == 6_000 and serial.tilt == 4.0

    def test_stratified_shards_merge(self, monkeypatch):
        monkeypatch.setattr(rareevent, "DEFAULT_SHARDS", 2)
        out = sharded_estimate(mode="strat", trials=3_000, jobs=1)
        assert isinstance(out, StratifiedEstimate)
        assert out.trials > 0
        assert out.mode == "strat"

    def test_shards_merge_in_shard_order(self, monkeypatch):
        """The campaign is its shards' estimates merged in shard order."""
        monkeypatch.setattr(rareevent, "DEFAULT_SHARDS", 3)
        out = sharded_estimate(mode="is", trials=3_001, seed=5, jobs=1)
        org = MemoryOrg()
        dims = (org.channels, org.ranks_per_channel, org.chips_per_rank, org.banks_per_rank)
        merged = None
        for shard, trials in enumerate((1_001, 1_000, 1_000)):
            _, d = rareevent._shard_worker(
                *dims, "is", trials, 5, shard, DEFAULT_MC_TILT, DEFAULT_STRATA
            )
            est = estimate_from_dict(d)
            merged = est if merged is None else merged.merge(est)
        assert out.to_dict() == merged.to_dict()

    def test_chaos_storm_equals_serial(self, monkeypatch):
        """Armed chaos on the pool == the fault-free serial answer."""
        from repro.experiments import parallel
        from repro.util import chaos

        monkeypatch.setattr(rareevent, "DEFAULT_SHARDS", 3)
        kw = dict(mode="is", trials=3_000, seed=2)
        serial = sharded_estimate(jobs=1, **kw)

        monkeypatch.setattr(parallel, "DEFAULT_TASK_RETRIES", 2)
        chaos.arm("crash@1,corrupt@0")
        try:
            stormy = sharded_estimate(jobs=3, **kw)
        finally:
            chaos.arm(None)
        assert stormy.to_dict() == serial.to_dict()


def _count_run_tasks(monkeypatch) -> list:
    """Record the payloads of every ``parallel.run_tasks`` call."""
    from repro.experiments import parallel

    calls = []
    original = parallel.run_tasks

    def counting(worker, payloads, *args, **kwargs):
        calls.append(list(payloads))
        return original(worker, calls[-1], *args, **kwargs)

    monkeypatch.setattr(parallel, "run_tasks", counting)
    return calls


class TestPooledCampaigns:
    """The tilted coverage campaign and the fig8 tail fan out through the
    engine once per call and stay bit-identical to their serial runs."""

    @pytest.mark.parametrize("tilt, rate", [(8.0, 0.5), (1.0, 4.0)], ids=["tilted", "plain"])
    def test_coverage_equal_at_every_worker_count(self, tilt, rate, monkeypatch):
        from repro.ecc import Chipkill36
        from repro.faults.rareevent import run_is_coverage

        # 2,500 trials in chunks of 1,000 leave a short last chunk.
        kw = dict(trials=2_500, rate=rate, tilt=tilt, chunk_size=1_000, seed=3)
        serial = run_is_coverage(Chipkill36(), jobs=1, **kw)
        assert serial.tally.mean > 0  # some trials miscorrect
        calls = _count_run_tasks(monkeypatch)
        for jobs in (2, 3):
            pooled = run_is_coverage(Chipkill36(), jobs=jobs, **kw)
            assert pooled.to_dict() == serial.to_dict()
            # One task per slice: *jobs* slices of each of the three chunks.
            assert len(calls[-1]) == 3 * jobs
        assert len(calls) == 2

    def test_coverage_unrebuildable_scheme_stays_in_process(self, monkeypatch):
        from repro.ecc import Chipkill36
        from repro.faults.rareevent import run_is_coverage

        class LocalChipkill(Chipkill36):
            pass

        kw = dict(trials=1_500, rate=0.5, tilt=8.0, chunk_size=1_000, seed=3)
        reference = run_is_coverage(Chipkill36(), jobs=1, **kw)
        calls = _count_run_tasks(monkeypatch)
        local = run_is_coverage(LocalChipkill(), jobs=2, **kw)
        assert calls == []
        assert local.to_dict() == reference.to_dict()

    def test_figure8_tail_is_one_engine_campaign(self, monkeypatch):
        calls = _count_run_tasks(monkeypatch)
        rows = figure8_tail(trials=400, mode="is", seed=1, jobs=1)
        assert len(calls) == 1
        assert len(calls[0]) == len(FIG8_CHANNELS) * rareevent.DEFAULT_SHARDS
        for n, row in zip(FIG8_CHANNELS, rows):
            alone = sharded_estimate(MemoryOrg(channels=n), mode="is", trials=400, seed=1, jobs=1)
            assert (row.channels, row.trials, row.ess) == (n, alone.trials, alone.ess)
            assert row.p999_fraction == alone.percentile(99.9)

    def test_figure8_tail_pooled_equals_serial(self):
        kw = dict(trials=800, mode="strat", seed=2)
        assert figure8_tail(jobs=2, **kw) == figure8_tail(jobs=1, **kw)


class TestKnobs:
    """Rare-event settings: estimator mode, chunk size and tilt are call
    arguments checked where used."""

    def test_mc_chunk(self):
        assert montecarlo.resolve_chunk() == montecarlo.DEFAULT_CHUNK
        assert montecarlo.resolve_chunk(123) == 123
        with pytest.raises(ValueError):
            run_plain(_sim(3), trials=10, chunk_size=0)
        with pytest.raises(ValueError):
            EolCapacitySim(MemoryOrg()).run(trials=10, chunk_size=-1)

    def test_mc_vr(self):
        """The estimator mode is validated where used; the default is off."""
        for mode in ("off", "is", "strat"):
            assert run_estimate(_sim(13), mode, trials=100).mode == mode
        with pytest.raises(ValueError):
            run_estimate(_sim(13), "bogus", trials=100)
        with pytest.raises(ValueError):
            sharded_estimate(mode="bogus", trials=100, jobs=1)
        with pytest.raises(ValueError):
            figure8_tail(trials=100, mode="bogus", jobs=1)
        assert run_estimate(_sim(13), trials=100).mode == "off"
        assert sharded_estimate(trials=100, jobs=1).mode == "off"
        assert {row.mode for row in figure8_tail(trials=100, jobs=1)} == {"off"}

    def test_resolve_mode_auto(self):
        """There is no ``auto`` policy: every entry point rejects it."""
        with pytest.raises(ValueError):
            run_estimate(_sim(13), "auto", trials=100)
        with pytest.raises(ValueError):
            sharded_estimate(mode="auto", trials=100, jobs=1)
        with pytest.raises(ValueError):
            figure8_tail(trials=100, mode="auto", jobs=1)

    def test_env_mode_steers_run_estimate(self, monkeypatch):
        """Only the ``mode`` argument steers the estimator, not the environment."""
        monkeypatch.setenv("REPRO_MC_VR", "is")
        assert run_estimate(_sim(13), trials=1_000).mode == "off"
        est = run_estimate(_sim(13), "is", trials=1_000)
        assert isinstance(est, WeightedEstimate)
        assert est.mode == "is" and est.tilt > 1.0

    def test_mc_tilt(self):
        assert run_is(_sim(4), trials=50).tilt == DEFAULT_MC_TILT
        assert run_is(_sim(4), trials=50, tilt=2.0).tilt == 2.0
        with pytest.raises(ValueError):
            run_is(_sim(4), trials=50, tilt=0.5)
