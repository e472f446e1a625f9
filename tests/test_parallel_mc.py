"""Process fan-out and trial-count plumbing of the MC campaigns.

Parallel runs must be bit-identical to serial ones (per-cell/per-trial
seeding makes results independent of scheduling), the atomic cache write
merges with the disk copy, and ``REPRO_MC_TRIALS`` must reach every
driver.
"""

import numpy as np
import pytest

import repro.experiments.evaluation as evaluation
from repro.ecc.chipkill import Chipkill36
from repro.ecc.lot_ecc import LotEcc5
from repro.experiments import parallel
from repro.experiments.collision import two_fault_collision_mc
from repro.experiments.coverage import coverage_study
from repro.experiments.reliability import figure8, figure8_tail
from repro.faults.montecarlo import eol_fraction_by_channels
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


class TestCacheFile:
    def test_atomic_write_merges(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        write_json_cache_atomic(path, {"b": 2})
        assert load_json_cache(path) == {"a": 1, "b": 2}
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_non_dict_payload_treated_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2, 3]")
        assert load_json_cache(path) == {}

    def test_missing_file_treated_empty(self, tmp_path):
        assert load_json_cache(tmp_path / "absent.json") == {}


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


class TestNoMcCache:
    def test_drivers_write_nothing(self, tmp_path, monkeypatch):
        """The MC drivers rerun instead of caching: the cache dir stays empty."""
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        figure8(trials=200, seed=0, jobs=1)
        figure8_tail(trials=200, mode="strat", jobs=1)
        coverage_study([Chipkill36()], trials=20, seed=0, jobs=1)
        two_fault_collision_mc(trials=16, seed=0, jobs=1)
        assert list(tmp_path.iterdir()) == []


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
