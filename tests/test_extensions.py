"""Tests for the extension experiments: mixed ranks (VI-A), HPC stall MC
(VI-B), address-error campaign (VI-D), RAID5 strawman, and the CLI."""

import numpy as np
import pytest

from repro.ecc import LotEcc5, LotEcc5RS
from repro.ecc.catalog import QUAD_EQUIVALENT
from repro.experiments import detection
from repro.experiments.capacity import raid5_data_overhead
from repro.experiments.detection import address_error_campaign
from repro.experiments.mixed_ranks import mixed_rank_frontier
from repro.faults import hpc_stall_fraction, hpc_stall_mc
from repro.util.rng import make_rng
from repro.workloads import WORKLOADS_BY_NAME


class TestMixedRanks:
    @pytest.fixture(scope="class")
    def frontier(self):
        return mixed_rank_frontier(
            WORKLOADS_BY_NAME["streamcluster"],
            wide_config=QUAD_EQUIVALENT["lot_ecc5_ep"],
            narrow_config=QUAD_EQUIVALENT["chipkill18"],
            wide_shares=[0.0, 0.5, 1.0],
            scale=64,
        )

    def test_capacity_decreases_with_wide_share(self, frontier):
        caps = [p.relative_capacity for p in frontier]
        assert caps == sorted(caps, reverse=True)

    def test_all_narrow_has_full_capacity(self, frontier):
        assert frontier[0].relative_capacity == pytest.approx(1.0)

    def test_all_wide_quarter_capacity(self, frontier):
        """4x2Gb+1x1Gb = 9 Gbit per slot vs 18x2Gb = 36: 4x denser narrow."""
        assert frontier[-1].relative_capacity == pytest.approx(0.25)

    def test_hot_skew_concentrates_energy_savings(self, frontier):
        mid = frontier[1]
        assert mid.hot_hit_fraction == 1.0  # 50% ranks x 2.0 skew
        assert mid.epi_nj == pytest.approx(frontier[-1].epi_nj)


class TestHpcStallMc:
    def test_mc_matches_analytic(self):
        mc = hpc_stall_mc(trials=200, seed=3)
        assert mc.stall_fraction == pytest.approx(hpc_stall_fraction(), rel=0.1)

    def test_faster_nic_less_stall(self):
        slow = hpc_stall_mc(nic_gbps=1.0, trials=100, seed=1)
        fast = hpc_stall_mc(nic_gbps=10.0, trials=100, seed=1)
        assert fast.stall_fraction < slow.stall_fraction

    def test_deterministic(self):
        a = hpc_stall_mc(trials=50, seed=9)
        b = hpc_stall_mc(trials=50, seed=9)
        assert a.stall_hours == b.stall_hours


class TestAddressErrorCampaign:
    @pytest.fixture(scope="class")
    def results(self):
        return address_error_campaign(trials=60, seed=4)

    def test_plain_lot5_blind(self, results):
        plain = next(r for r in results if "RS" not in r.scheme)
        assert plain.detection_rate == 0.0

    def test_rs_variant_covers(self, results):
        rs = next(r for r in results if "RS" in r.scheme)
        assert rs.detection_rate == 1.0
        assert rs.correction_rate >= 0.95

    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_batch_equals_per_trial_oracle(self, seed):
        """The batched campaign's per-trial flags and counts are those of
        the per-trial functions on the same stream."""
        trials = 40
        results = address_error_campaign(trials=trials, seed=seed)
        for (scheme, chip_local, trial), row in zip(
            (
                (LotEcc5(), True, detection._address_error_trial_plain),
                (LotEcc5RS(), False, detection._address_error_trial_rs),
            ),
            results,
        ):
            rng = make_rng(seed)
            oracle = np.array([trial(scheme, rng) for _ in range(trials)]).T
            draws = detection._draw_trials(scheme, trials, make_rng(seed))
            batch = detection._address_error_batch(scheme, *draws, chip_local)
            assert np.array_equal(np.stack(batch), oracle)
            assert (row.detected, row.corrected) == tuple(int(v) for v in oracle.sum(axis=1))


class TestRaid5Strawman:
    def test_quad_channel_is_half(self):
        """Paper Section VII: naive RAID5 costs ~50% for a quad-channel."""
        assert raid5_data_overhead(4) - 0.125 == pytest.approx(1.125 / 3)

    def test_worse_than_ecc_parity(self):
        from repro.core import ECCParityScheme

        for n in (4, 8):
            assert raid5_data_overhead(n) > ECCParityScheme(LotEcc5(), n).capacity_overhead

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            raid5_data_overhead(1)


class TestCli:
    def run_cli(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_list(self, capsys):
        assert self.run_cli("list") == 0
        assert "table3" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert self.run_cli("table3", "--trials", "500") == 0
        out = capsys.readouterr().out
        assert "LOT-ECC5" in out and "16.5%" in out

    def test_fig18(self, capsys):
        assert self.run_cli("fig18") == 0
        assert "window" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert self.run_cli("fig2") == 0
        assert "MTBF" in capsys.readouterr().out

    def test_report(self, capsys):
        assert self.run_cli("report", "--channels", "4", "--trials", "500") == 0
        assert "21.88%" in capsys.readouterr().out


class TestNativeMixedChannel:
    def test_per_rank_power_models(self):
        from repro.dram.system import MemorySystem, MemorySystemConfig

        mem = MemorySystem(
            MemorySystemConfig(
                channels=2,
                ranks_per_channel=2,
                chip_widths=[16, 16, 16, 16, 8],
                rank_chip_widths=[[16, 16, 16, 16, 8], [4] * 18],
            )
        )
        assert len(mem._power_models) == 2
        # narrow 18-chip rank burns more per activate than the 5-chip rank
        from repro.dram.power import RankEnergyCounters

        c = RankEnergyCounters(activates=10, read_bursts=10)
        assert mem._power_models[1].integrate(c).dynamic > mem._power_models[0].integrate(c).dynamic

    def test_rank_widths_length_validated(self):
        from repro.dram.system import MemorySystem, MemorySystemConfig

        with pytest.raises(ValueError):
            MemorySystem(
                MemorySystemConfig(
                    channels=1, ranks_per_channel=3, chip_widths=[8] * 9,
                    rank_chip_widths=[[8] * 9],
                )
            )

    def test_hot_arena_routing(self):
        from repro.dram.mapping import AddressMapping
        from repro.workloads.generator import HOT_ARENA_BASE_LINE

        m = AddressMapping(channels=2, ranks_per_channel=4,
                           hot_arena_base_line=HOT_ARENA_BASE_LINE, hot_ranks=1)
        cold = m.map_line(123)
        hot = m.map_line(HOT_ARENA_BASE_LINE + 123)
        assert hot.rank == 0
        assert cold.rank >= 1
        # ECC-region lines stay with the cold ranks
        ecc = m.map_line((1 << 40) + 5)
        assert ecc.rank >= 1

    def test_hot_ranks_validated(self):
        from repro.dram.mapping import AddressMapping

        with pytest.raises(ValueError):
            AddressMapping(channels=2, ranks_per_channel=2,
                           hot_arena_base_line=100, hot_ranks=2)

    def test_hot_arena_traces(self):
        import itertools

        from repro.workloads import make_core_traces
        from repro.workloads.generator import HOT_ARENA_BASE_LINE

        wl = WORKLOADS_BY_NAME["hmmer"]  # hot_prob 0.6: plenty of hot jumps
        t = make_core_traces(wl, cores=1, seed=3, hot_arena=True)[0]
        addrs = [a for _, a, _ in itertools.islice(t, 4000)]
        hot = [a for a in addrs if a >= HOT_ARENA_BASE_LINE]
        cold = [a for a in addrs if a < HOT_ARENA_BASE_LINE]
        assert hot and cold  # traffic visits both arenas

    def test_native_sim_energy_falls_with_wide_share(self):
        from repro.experiments.mixed_ranks import mixed_channel_simulation

        wl = WORKLOADS_BY_NAME["streamcluster"]
        one = mixed_channel_simulation(wl, wide_ranks=1, scale=64)
        three = mixed_channel_simulation(wl, wide_ranks=3, scale=64)
        assert three.epi_nj < one.epi_nj
