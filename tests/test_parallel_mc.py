"""Process fan-out, caching, and trial-count plumbing of the MC campaigns.

Parallel runs must be bit-identical to serial ones (per-cell/per-trial
seeding makes results independent of scheduling), the fig8 histogram cache
must round-trip exactly, every checkpointed driver keeps its cache keys and
resumes only what is missing or invalid, and ``REPRO_MC_TRIALS`` must reach
every driver.
"""

import numpy as np
import pytest

import repro.experiments.evaluation as evaluation
from repro.ecc.chipkill import Chipkill36
from repro.ecc.lot_ecc import LotEcc5
from repro.experiments import parallel
from repro.experiments.collision import two_fault_collision_mc
from repro.experiments.coverage import coverage_study
from repro.experiments.reliability import figure8
from repro.faults.montecarlo import eol_fraction_by_channels
from repro.faults.rareevent import sharded_estimate
from repro.util.cachefile import load_json_cache, write_json_cache_atomic
from repro.util.envcfg import mc_trials


def _square(x):
    return x * x


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert list(parallel.run_tasks(_square, [(i,) for i in range(6)], jobs=1)) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_parallel_same_multiset(self):
        out = list(parallel.run_tasks(_square, [(i,) for i in range(6)], jobs=3))
        assert sorted(out) == [0, 1, 4, 9, 16, 25]

    def test_empty(self):
        assert list(parallel.run_tasks(_square, [], jobs=4)) == []


class TestFig8Parallel:
    def test_parallel_equals_serial(self):
        serial = eol_fraction_by_channels([2, 4, 8], trials=2000, seed=0, jobs=1)
        par = eol_fraction_by_channels([2, 4, 8], trials=2000, seed=0, jobs=3)
        assert sorted(serial) == sorted(par)
        for n in serial:
            assert np.array_equal(
                np.sort(serial[n].fractions), np.sort(par[n].fractions)
            )
            assert serial[n].mean == par[n].mean
            assert serial[n].percentile(99.9) == par[n].percentile(99.9)

    def test_figure8_driver(self):
        rows = figure8(trials=1000, seed=0, jobs=1)
        assert [r.channels for r in rows] == [2, 4, 8, 16]
        assert all(0.0 <= r.mean_fraction < 0.05 for r in rows)


class _CheckpointContract:
    """The resume contract every checkpointed Monte Carlo driver keeps.

    A subclass names the driver's cache file, the exact keys a tiny
    campaign writes (literal strings: a changed key format would orphan
    every cache on disk), one stored value the driver must reject, and a
    ``run`` returning a comparable digest of the campaign's result.
    """

    FILE: str
    KEYS: "list[str]"
    BAD: object

    def run(self):
        raise NotImplementedError

    def test_golden_keys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        self.run()
        assert list(load_json_cache(tmp_path / self.FILE)) == self.KEYS

    def test_complete_cache_never_calls_engine(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        first = self.run()

        def exploding(*a, **k):
            raise AssertionError("run_tasks called despite a complete cache")

        monkeypatch.setattr(parallel, "run_tasks", exploding)
        assert self.run() == first

    def test_invalid_entry_recomputed_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        first = self.run()
        path = tmp_path / self.FILE
        cache = load_json_cache(path)
        write_json_cache_atomic(path, {**cache, self.KEYS[0]: self.BAD}, merge=False)
        ran = []
        original = parallel.run_tasks

        def counting(fn, payloads, **k):
            ran.extend(payloads)
            return original(fn, payloads, **k)

        monkeypatch.setattr(parallel, "run_tasks", counting)
        assert self.run() == first
        assert len(ran) == 1
        assert load_json_cache(path) == cache  # the bad entry was rewritten


class TestFig8Cache(_CheckpointContract):
    FILE = "mc_fig8.json"
    KEYS = [
        "ch=2:trials=1500:seed=0:life=61320.0:chunk=65536",
        "ch=4:trials=1500:seed=0:life=61320.0:chunk=65536",
    ]
    BAD = {"values": [0.0]}  # no counts

    def run(self):
        res = eol_fraction_by_channels([2, 4], trials=1500, seed=0, jobs=1, use_cache=True)
        return {n: r.histogram() for n, r in res.items()}

    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        first = eol_fraction_by_channels([2, 4], trials=1500, seed=0, use_cache=True)
        assert (tmp_path / "mc_fig8.json").exists()
        # Second call must be served from the cache with identical stats.
        second = eol_fraction_by_channels([2, 4], trials=1500, seed=0, use_cache=True)
        for n in first:
            assert first[n].mean == second[n].mean
            assert first[n].percentile(99.9) == second[n].percentile(99.9)
            assert first[n].any_fault_fraction == second[n].any_fault_fraction

    def test_corrupt_cache_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        (tmp_path / "mc_fig8.json").write_text("{not json")
        res = eol_fraction_by_channels([2], trials=500, seed=0, use_cache=True)
        assert 2 in res
        # The corrupt file was replaced with a valid cache.
        assert load_json_cache(tmp_path / "mc_fig8.json")

    def test_distinct_settings_distinct_keys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        eol_fraction_by_channels([2], trials=400, seed=0, use_cache=True)
        eol_fraction_by_channels([2], trials=400, seed=1, use_cache=True)
        assert len(load_json_cache(tmp_path / "mc_fig8.json")) == 2


class TestCacheFile:
    def test_atomic_write_merges(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        write_json_cache_atomic(path, {"b": 2})
        assert load_json_cache(path) == {"a": 1, "b": 2}
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_atomic_write_replace_mode(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        write_json_cache_atomic(path, {"b": 2}, merge=False)
        assert load_json_cache(path) == {"b": 2}

    def test_non_dict_payload_treated_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2, 3]")
        assert load_json_cache(path) == {}

    def test_missing_file_treated_empty(self, tmp_path):
        assert load_json_cache(tmp_path / "absent.json") == {}


class TestCoverageCache(_CheckpointContract):
    FILE = "mc_coverage.json"
    KEYS = [
        "Chipkill36|single-chip kill|trials=40:seed=2:chunk=16384",
        "Chipkill36|double-chip kill|trials=40:seed=2:chunk=16384",
        "Chipkill36|8 scattered bit flips|trials=40:seed=2:chunk=16384",
    ]
    BAD = [40, 0]  # two of the three tallies

    def run(self):
        return coverage_study([Chipkill36()], trials=40, seed=2, jobs=1, use_cache=True)

    def test_round_trip_and_warm_cache(self, tmp_path, monkeypatch):
        import repro.experiments.coverage as coverage

        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        schemes = [Chipkill36()]
        first = coverage_study(schemes, trials=40, seed=2, jobs=1, use_cache=True)
        assert (tmp_path / "mc_coverage.json").exists()

        def boom(*a):
            raise AssertionError("simulated a cell despite a warm cache")

        monkeypatch.setattr(coverage, "_coverage_cell", boom)
        second = coverage_study(schemes, trials=40, seed=2, jobs=1, use_cache=True)
        key = lambda r: (r.scheme, r.pattern, r.corrected, r.detected_uncorrectable, r.silent_or_wrong)
        assert [key(r) for r in first] == [key(r) for r in second]

    def test_distinct_settings_distinct_keys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        coverage_study([Chipkill36()], trials=30, seed=0, jobs=1, use_cache=True)
        coverage_study([Chipkill36()], trials=30, seed=1, jobs=1, use_cache=True)
        cache = load_json_cache(tmp_path / "mc_coverage.json")
        assert len(cache) == 6  # 3 patterns x 2 seeds


class TestCollisionCache(_CheckpointContract):
    FILE = "mc_collision.json"
    KEYS = ["block=0-16:seed=0:geom=4x4x12x8", "block=16-32:seed=0:geom=4x4x12x8"]
    BAD = "3"  # a count must be an int

    def run(self):
        return two_fault_collision_mc(trials=32, seed=0, jobs=1, use_cache=True)

    def test_round_trip_and_warm_cache(self, tmp_path, monkeypatch):
        import repro.experiments.collision as collision

        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        first = two_fault_collision_mc(trials=32, seed=0, jobs=1, use_cache=True)
        assert (tmp_path / "mc_collision.json").exists()

        def boom(*a):
            raise AssertionError("simulated a block despite a warm cache")

        monkeypatch.setattr(collision, "_collision_block", boom)
        second = two_fault_collision_mc(trials=32, seed=0, jobs=1, use_cache=True)
        assert second.collisions == first.collisions
        assert second.trials == 32

    def test_partial_cache_recomputes_only_missing_blocks(self, tmp_path, monkeypatch):
        import repro.experiments.collision as collision

        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        full = two_fault_collision_mc(trials=32, seed=0, jobs=1, use_cache=True)
        cache_path = tmp_path / "mc_collision.json"
        cache = load_json_cache(cache_path)
        assert len(cache) == 2  # two 16-trial blocks
        # Drop one block and resume: only that block is recomputed.
        dropped_key, dropped_val = sorted(cache.items())[0]
        remaining = {k: v for k, v in cache.items() if k != dropped_key}
        write_json_cache_atomic(cache_path, remaining, merge=False)
        computed = []
        real_block = collision._collision_block

        def counting(*a):
            computed.append(a[:2])
            return real_block(*a)

        monkeypatch.setattr(collision, "_collision_block", counting)
        resumed = two_fault_collision_mc(trials=32, seed=0, jobs=1, use_cache=True)
        assert resumed.collisions == full.collisions
        assert len(computed) == 1
        assert load_json_cache(cache_path)[dropped_key] == dropped_val


class TestRareEventCache(_CheckpointContract):
    FILE = "mc_rareevent.json"
    KEYS = [
        f"org=8x4x9x8:life=61320.0:mode=is:trials=1000:seed=1:shard={s}:chunk=65536:tilt=6.0"
        for s in range(4)
    ]
    BAD = {"mean": 0.0}  # no estimate kind

    def run(self):
        out = sharded_estimate(mode="is", trials=4_000, shards=4, seed=1, jobs=1, use_cache=True)
        return out.estimate.to_dict(), out.shards_used


class TestCoverageParallel:
    def test_parallel_equals_serial(self):
        schemes = [Chipkill36(), LotEcc5()]
        serial = coverage_study(schemes, trials=60, seed=2, jobs=1)
        par = coverage_study(schemes, trials=60, seed=2, jobs=3)
        key = lambda r: (r.scheme, r.pattern, r.corrected, r.detected_uncorrectable, r.silent_or_wrong)
        assert [key(r) for r in serial] == [key(r) for r in par]


class TestCollisionParallel:
    def test_parallel_equals_serial(self):
        serial = two_fault_collision_mc(trials=48, seed=0, jobs=1)
        par = two_fault_collision_mc(trials=48, seed=0, jobs=4)
        assert serial.collisions == par.collisions
        assert serial.trials == par.trials == 48

    def test_published_count(self):
        """The "measured collision fraction 0.07" of
        ``results/collision_pessimism.txt``: 4 collisions in 60 trials."""
        assert two_fault_collision_mc(trials=60, seed=0, jobs=1).collisions == 4


class TestMcTrialsEnv:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_TRIALS", "123")
        assert mc_trials(77, 20000) == 77

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_TRIALS", "123")
        assert mc_trials(None, 20000) == 123

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MC_TRIALS", raising=False)
        assert mc_trials(None, 20000) == 20000

    @pytest.mark.parametrize("bad", ["0", "-5", "abc"])
    def test_invalid_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MC_TRIALS", bad)
        with pytest.raises(ValueError):
            mc_trials(None, 20000)

    def test_blank_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_TRIALS", "  ")
        assert mc_trials(None, 20000) == 20000

    def test_env_reaches_drivers(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_TRIALS", "300")
        eol = eol_fraction_by_channels([2], seed=0, jobs=1)
        assert eol[2].fractions.size == 300
        res = two_fault_collision_mc(seed=0, jobs=1)
        assert res.trials == 300
        cov = coverage_study([Chipkill36()], seed=0, jobs=1)
        assert all(r.trials == 300 for r in cov)
