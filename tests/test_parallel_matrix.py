"""Parallel sweep engine and evaluation-cache robustness tests.

The contract under test: a matrix swept with ``REPRO_JOBS=4`` worker
processes is *bit-identical* to the serial sweep, a warm cache performs
zero simulations and never reaches the engine, and corrupt or torn cache
files and malformed cells are regenerated instead of crashing the sweep.
"""

import json

import pytest

import repro.experiments.evaluation as ev
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.util.cachefile import load_json_cache, write_json_cache_atomic

TINY = Fidelity("tiny", scale=64, access_target=4000)
CELLS = dict(
    workloads=["streamcluster", "sjeng"],
    config_keys=["chipkill18", "lot_ecc5_ep"],
)


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert parallel.default_jobs() == 7

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel.default_jobs() >= 1

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError):
            parallel.default_jobs()


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self, tmp_path, monkeypatch):
        """2x2 sub-matrix: 4 worker processes vs in-process serial sweep."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        serial_cache = next((tmp_path / "serial").glob("*.json")).read_bytes()

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "par")
        monkeypatch.setenv("REPRO_JOBS", "4")
        par = evaluation_matrix("quad", fidelity=TINY, **CELLS)
        par_cache = next((tmp_path / "par").glob("*.json")).read_bytes()

        assert par == serial
        # Byte-identical files: the pool finishes cells in completion order,
        # but the checkpoint compacts them in task order.
        assert par_cache == serial_cache

    def test_run_cells_single_cell_stays_in_process(self, monkeypatch):
        """One cell never pays executor overhead, whatever the job count."""
        calls = []
        monkeypatch.setattr(
            parallel, "_run_cell", lambda *a: calls.append(a) or ("w", "k", {})
        )
        out = list(parallel.run_cells("quad", [("w", "k")], TINY, seed=0, jobs=8))
        assert out == [("w", "k", {})]
        assert len(calls) == 1


class TestCacheRobustness:
    KW = dict(fidelity=TINY, workloads=["streamcluster"], config_keys=["chipkill18"])

    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        first = evaluation_matrix("quad", **self.KW)

        def boom(*a, **k):
            raise AssertionError("reached the engine despite a warm cache")

        monkeypatch.setattr(parallel, "run_tasks", boom)
        assert evaluation_matrix("quad", **self.KW) == first

    def test_corrupt_cache_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        first = evaluation_matrix("quad", **self.KW)
        path = next(tmp_path.glob("*.json"))
        path.write_text('{"streamcluster|chipkill18": {"epi_nj":')  # torn write
        assert evaluation_matrix("quad", **self.KW) == first
        assert json.loads(path.read_text())  # rewritten as valid JSON

    def test_non_dict_cache_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        first = evaluation_matrix("quad", **self.KW)
        path = next(tmp_path.glob("*.json"))
        path.write_text("[1, 2, 3]")
        assert evaluation_matrix("quad", **self.KW) == first

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        evaluation_matrix("quad", **self.KW)
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1 and names[0].endswith(".json")

    def test_golden_keys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        evaluation_matrix("quad", **self.KW)
        path = tmp_path / "matrix-quad-tiny-s64-a4000-seed0-p3.json"
        assert list(load_json_cache(path)) == ["streamcluster|chipkill18"]

    @pytest.mark.parametrize(
        "malform",
        [
            lambda cell: {"ipc": 1.0},
            lambda cell: {**cell, "extra": 0},
            lambda cell: list(cell.values()),
        ],
        ids=["missing-fields", "extra-field", "not-a-dict"],
    )
    def test_malformed_cell_recomputed_alone(self, tmp_path, monkeypatch, malform):
        """A stored cell without exactly the CellResult fields is resimulated."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        kw = dict(self.KW, config_keys=["chipkill18", "lot_ecc5_ep"])
        first = evaluation_matrix("quad", **kw)
        path = next(tmp_path.glob("matrix-*.json"))
        cache = load_json_cache(path)
        key = "streamcluster|chipkill18"
        write_json_cache_atomic(path, {**cache, key: malform(cache[key])})
        ran = []
        original = parallel.run_tasks

        def counting(fn, payloads, **k):
            ran.extend(payloads)
            return original(fn, payloads, **k)

        monkeypatch.setattr(parallel, "run_tasks", counting)
        assert evaluation_matrix("quad", **kw) == first
        assert [p[1:3] for p in ran] == [("streamcluster", "chipkill18")]
        assert load_json_cache(path) == cache
