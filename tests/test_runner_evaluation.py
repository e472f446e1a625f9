"""Runner and evaluation-matrix plumbing tests (cheap, tiny sims)."""

import json

import pytest

from repro.ecc.catalog import QUAD_EQUIVALENT
from repro.experiments.ablation import xor_caching_ablation
from repro.experiments.evaluation import (
    FULL,
    QUICK,
    CellResult,
    Fidelity,
    bins,
    current_fidelity,
    evaluation_matrix,
    workload_order,
)
from repro.experiments.runner import RunSpec, adaptive_instructions, build_system, run
from repro.workloads import WORKLOADS_BY_NAME

TINY = Fidelity("tiny", scale=64, access_target=4000)


class TestAdaptiveBudget:
    def test_inverse_in_apki(self):
        sjeng = adaptive_instructions(WORKLOADS_BY_NAME["sjeng"])
        mcf = adaptive_instructions(WORKLOADS_BY_NAME["mcf"])
        assert sjeng > mcf

    def test_target_scaling(self):
        wl = WORKLOADS_BY_NAME["milc"]
        assert adaptive_instructions(wl, 20_000) * 2 == pytest.approx(
            adaptive_instructions(wl, 40_000), abs=2
        )

    def test_spec_resolution(self):
        wl = WORKLOADS_BY_NAME["milc"]
        spec = RunSpec(wl, QUAD_EQUIVALENT["chipkill18"])
        assert spec.resolved_warmup == adaptive_instructions(wl)
        explicit = RunSpec(wl, QUAD_EQUIVALENT["chipkill18"], warmup_instructions=123)
        assert explicit.resolved_warmup == 123


class TestCurrentFidelity:
    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "no"])
    def test_off_values_select_quick(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", raw)
        assert current_fidelity() is QUICK

    @pytest.mark.parametrize("raw", ["1", "true", "yes"])
    def test_on_values_select_full(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", raw)
        assert current_fidelity() is FULL

    def test_malformed_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "quick")
        with pytest.raises(ValueError):
            current_fidelity()


class TestBuildSystem:
    def test_geometry_from_config(self):
        spec = RunSpec(WORKLOADS_BY_NAME["milc"], QUAD_EQUIVALENT["lot_ecc5_ep"], scale=64)
        sys_ = build_system(spec)
        assert len(sys_.mem.channels) == 8
        assert sys_.mem.config.line_size == 64
        assert sys_.ecc_model.parity_channels == 8
        assert sys_.llc.n_sets * sys_.llc.assoc * 64 == (8 << 20) // 64

    def test_non_ep_config_plain_model(self):
        spec = RunSpec(WORKLOADS_BY_NAME["milc"], QUAD_EQUIVALENT["lot_ecc5"], scale=64)
        sys_ = build_system(spec)
        assert sys_.ecc_model.parity_channels is None

    def test_run_produces_metrics(self):
        spec = RunSpec(
            WORKLOADS_BY_NAME["milc"],
            QUAD_EQUIVALENT["chipkill18"],
            warmup_instructions=40_000,
            measure_instructions=40_000,
            scale=64,
        )
        res = run(spec)
        assert res.instructions > 0
        assert res.cycles > 0
        assert res.energy.total > 0
        assert 0 < res.ipc <= 16


class TestMatrixCache:
    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        import repro.experiments.evaluation as ev

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        kwargs = dict(
            fidelity=TINY,
            workloads=["streamcluster"],
            config_keys=["chipkill18"],
        )
        first = evaluation_matrix("quad", **kwargs)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        # Second call must be served from cache with identical values.
        second = evaluation_matrix("quad", **kwargs)
        assert first == second

    def test_cache_disabled(self, tmp_path, monkeypatch):
        import repro.experiments.evaluation as ev

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        evaluation_matrix(
            "quad",
            fidelity=TINY,
            workloads=["streamcluster"],
            config_keys=["chipkill18"],
            use_cache=False,
        )
        assert not list(tmp_path.glob("*.json"))

    def test_cell_result_json_stable(self):
        cell = CellResult(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)
        from dataclasses import asdict

        assert CellResult(**json.loads(json.dumps(asdict(cell)))) == cell


class TestBins:
    @pytest.fixture(scope="class")
    def matrix(self):
        return evaluation_matrix(
            "quad",
            fidelity=TINY,
            workloads=["sjeng", "mcf", "streamcluster", "milc"],
            config_keys=["chipkill36"],
            use_cache=False,
        )

    def test_order_is_by_bandwidth(self, matrix):
        order = workload_order(matrix)
        bws = [matrix[(w, "chipkill36")].bandwidth_gbps for w in order]
        assert bws == sorted(bws)

    def test_bins_split_evenly(self, matrix):
        b1, b2 = bins(matrix)
        assert len(b1) == len(b2) == 2
        assert set(b1) | set(b2) == {"sjeng", "mcf", "streamcluster", "milc"}

    def test_sjeng_in_low_bin(self, matrix):
        b1, _ = bins(matrix)
        assert "sjeng" in b1


class TestAblationPlumbing:
    def test_uncached_never_cheaper(self):
        res = xor_caching_ablation(
            WORKLOADS_BY_NAME["lbm"], QUAD_EQUIVALENT["lot_ecc5_ep"], scale=64
        )
        assert res.traffic_blowup >= 1.0
        assert res.uncached.counters.ecc_reads >= res.cached.counters.ecc_reads
