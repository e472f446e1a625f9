"""One simulation per distinct timing system.

Configurations that differ only in their chips (RAIM and 36-device
chipkill) are one timing system: the sweep runs it once and integrates
energy per configuration.  The contract under test: every member of a
group gets exactly the result of its own solo run, under both kernels,
only chip-only differences share a run, and the sweep and its manifest
count one simulation per group.
"""

import json

import pytest

import repro.experiments.evaluation as ev
from repro import obs
from repro.cpu import epochnative
from repro.cpu.system import SimSystem
from repro.ecc.catalog import SYSTEM_CLASSES
from repro.experiments import parallel
from repro.experiments.evaluation import CONFIG_KEYS, Fidelity, evaluation_matrix
from repro.experiments.runner import RunSpec, build_system, run_group, timing_key

TINY = Fidelity("tiny", scale=64, access_target=4000)
WORKLOADS = ["mcf", "sjeng"]


def _groups(system_class, workloads=WORKLOADS):
    cells = [(w, k) for w in workloads for k in CONFIG_KEYS]
    return parallel.cell_groups(system_class, cells, TINY, seed=0)


def _spec(system_class, wl_name, key):
    return parallel._cell_spec(system_class, wl_name, key, TINY.scale, TINY.access_target, 0)


@pytest.fixture(params=["event", "epoch"])
def kernel(request, monkeypatch):
    if request.param == "epoch" and not epochnative.available():
        pytest.skip("no compiler: the epoch kernel would run the event loop")
    monkeypatch.setenv("REPRO_SIM_KERNEL", request.param)
    return request.param


class TestGrouping:
    @pytest.mark.parametrize("system_class", sorted(SYSTEM_CLASSES))
    def test_only_raim_and_chipkill36_share(self, system_class):
        shared = {keys for _, keys in _groups(system_class) if len(keys) > 1}
        assert shared == {("chipkill36", "raim")}
        assert len(_groups(system_class)) == 7 * len(WORKLOADS)

    @pytest.mark.parametrize("system_class", sorted(SYSTEM_CLASSES))
    def test_same_geometry_other_ecc_traffic_stays_apart(self, system_class):
        """LOT-ECC9 and Multi-ECC build the same memory system but differ
        in their ECC-line traffic."""
        lot9, multi = (_spec(system_class, "mcf", k) for k in ("lot_ecc9", "multi_ecc"))
        assert build_system(lot9).mem.config == build_system(multi).mem.config
        assert timing_key(lot9) != timing_key(multi)

    def test_budget_and_seed_split_a_group(self):
        base = _spec("quad", "mcf", "raim")
        assert timing_key(base) == timing_key(_spec("quad", "mcf", "chipkill36"))
        for other in (
            RunSpec(base.workload, base.config, 1000, base.measure_instructions, 0, base.scale),
            RunSpec(base.workload, base.config, base.warmup_instructions, 1000, 0, base.scale),
            RunSpec(base.workload, base.config, base.warmup_instructions,
                    base.measure_instructions, 1, base.scale),
        ):
            assert timing_key(other) != timing_key(base)

    def test_mixed_group_rejected(self):
        specs = [_spec("quad", "mcf", k) for k in ("chipkill36", "lot_ecc5")]
        with pytest.raises(ValueError):
            run_group(specs)


class TestGroupEqualsSolo:
    @pytest.mark.parametrize("system_class", sorted(SYSTEM_CLASSES))
    def test_every_member_equals_its_solo_run(self, system_class, kernel):
        for wl_name, keys in _groups(system_class):
            if len(keys) == 1:
                continue
            specs = [_spec(system_class, wl_name, k) for k in keys]
            grouped = run_group(specs)
            for spec, res in zip(specs, grouped):
                solo = build_system(spec).run(spec.resolved_warmup, spec.resolved_measure)
                assert res == solo, (wl_name, spec.config.scheme_key)
            # Energy is each member's own, not the lead's.
            assert grouped[0].energy != grouped[1].energy

    def test_members_do_not_share_mutable_counters(self):
        a, b = run_group([_spec("quad", "mcf", k) for k in ("chipkill36", "raim")])
        assert a.counters == b.counters and a.counters is not b.counters


class TestSweepSharing:
    def test_one_workload_sweep_runs_seven_systems(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        runs = []
        real_run = SimSystem.run

        def counting(self, *args, **kwargs):
            runs.append(self)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(SimSystem, "run", counting)
        matrix = evaluation_matrix("quad", fidelity=TINY, jobs=1, workloads=["mcf"])
        assert len(matrix) == 8 and len(runs) == 7
        ck36, raim = matrix[("mcf", "chipkill36")], matrix[("mcf", "raim")]
        assert ck36.cycles == raim.cycles and ck36.epi_nj != raim.epi_nj

    def test_manifest_counts_simulations(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "cache")
        run_dir = tmp_path / "obs"
        obs.configure(run_dir)
        try:
            evaluation_matrix("dual", fidelity=TINY, jobs=1, workloads=WORKLOADS)
        finally:
            obs.disarm()
        matrix = json.loads((run_dir / obs.MANIFEST_FILE).read_text())["matrix"]
        assert matrix["missing_cells"] == 16 and matrix["simulations"] == 14
