"""Fault-model tests: FIT rates, analytics vs the paper's quoted numbers,
Monte Carlo, and injection."""

import numpy as np
import pytest

from repro.core.layout import Geometry
from repro.core.machine import Address, ECCParityMachine
from repro.ecc import LotEcc5
from repro.faults import (
    FIT_BY_MODE,
    SATURATING_FIT,
    SATURATING_MODES,
    TOTAL_FIT_DDR3,
    EolCapacitySim,
    FaultInjector,
    FaultMode,
    MemoryOrg,
    added_uncorrectable_interval_years,
    eol_fraction_by_channels,
    hpc_stall_fraction,
    mean_time_between_channel_faults_days,
    mean_time_between_channel_faults_mc,
    multi_channel_window_probability,
    undetectable_error_interval_years,
)
from repro.faults.rareevent import run_plain


class TestFitRates:
    def test_total_is_44(self):
        assert sum(FIT_BY_MODE.values()) == pytest.approx(TOTAL_FIT_DDR3)

    def test_all_modes_present(self):
        assert set(FIT_BY_MODE) == set(FaultMode)

    def test_bit_faults_dominate(self):
        assert FIT_BY_MODE[FaultMode.SINGLE_BIT] == max(FIT_BY_MODE.values())

    def test_saturating_modes(self):
        assert FaultMode.SINGLE_BANK in SATURATING_MODES
        assert FaultMode.SINGLE_ROW not in SATURATING_MODES
        assert SATURATING_FIT == pytest.approx(
            sum(FIT_BY_MODE[m] for m in SATURATING_MODES)
        )

    def test_org_counts(self):
        org = MemoryOrg()
        assert org.chips_per_channel == 36
        assert org.total_chips == 288
        assert org.total_banks == 256

    def test_rates(self):
        org = MemoryOrg()
        assert org.system_fault_rate_per_hour(44.0) == pytest.approx(288 * 44e-9)


class TestAnalyticsVsPaper:
    """Anchors from the paper's text."""

    def test_fig18_paper_point(self):
        """8h window, 100 FIT/chip -> ~0.0002 over seven years."""
        p = multi_channel_window_probability(8.0, 100.0)
        assert p == pytest.approx(2.0e-4, rel=0.25)

    def test_vi_c_added_ue_interval(self):
        """~35,000 years between added uncorrectable errors."""
        years = added_uncorrectable_interval_years(8.0, 100.0)
        assert 25_000 < years < 55_000

    def test_vi_b_stall_fraction(self):
        """Paper: 0.35% system stall; we land in the same regime."""
        assert hpc_stall_fraction() == pytest.approx(0.0035, rel=0.5)

    def test_vi_d_undetectable_interval(self):
        """Paper: once per ~300,000 years; same order of magnitude."""
        years = undetectable_error_interval_years()
        assert 50_000 < years < 1_000_000

    def test_fig2_inverse_in_fit(self):
        a = mean_time_between_channel_faults_days(10)
        b = mean_time_between_channel_faults_days(100)
        assert a == pytest.approx(10 * b)

    def test_fig2_mc_agrees_with_analytic(self):
        mc = mean_time_between_channel_faults_mc(44.0, trials=40000, seed=1)
        an = mean_time_between_channel_faults_days(44.0)
        assert mc == pytest.approx(an, rel=0.1)

    def test_window_probability_monotone_in_window(self):
        ps = [multi_channel_window_probability(w, 100.0) for w in (1, 8, 24, 168)]
        assert ps == sorted(ps)

    def test_window_probability_monotone_in_fit(self):
        ps = [multi_channel_window_probability(8.0, f) for f in (25, 50, 100)]
        assert ps == sorted(ps)


class TestMonteCarlo:
    def test_fig8_magnitude(self):
        """Average EOL materialized fraction is sub-percent (paper ~0.4%)."""
        res = run_plain(EolCapacitySim(MemoryOrg(channels=8), seed=0), 8000)
        assert 0.0005 < res.mean < 0.01

    def test_p999_exceeds_mean(self):
        res = run_plain(EolCapacitySim(MemoryOrg(channels=8), seed=0), 8000)
        assert res.percentile(99.9) > res.mean

    def test_by_channels_keys(self):
        out = eol_fraction_by_channels([2, 4], trials=2000)
        assert set(out) == {2, 4}

    def test_deterministic(self):
        a = run_plain(EolCapacitySim(seed=5), 3000).mean
        b = run_plain(EolCapacitySim(seed=5), 3000).mean
        assert a == b

    def test_more_channels_more_systems_with_faults(self):
        out = eol_fraction_by_channels([2, 16], trials=8000, seed=2)
        # The smallest nonzero fraction is one bank pair.
        any_fault = {
            n: est.tail_probability(2 / MemoryOrg(channels=n).total_banks)
            for n, est in out.items()
        }
        assert any_fault[16] > any_fault[2]


class TestInjector:
    @pytest.fixture
    def machine(self):
        g = Geometry(channels=4, banks=4, rows_per_bank=12, lines_per_row=8)
        return ECCParityMachine(LotEcc5(), g, seed=0)

    def test_row_fault_confined_to_row(self, machine):
        inj = FaultInjector(machine, seed=1)
        rec = inj.inject(FaultMode.SINGLE_ROW, location=(0, 0, 1))
        (f,) = rec.faults
        assert f.rows[1] - f.rows[0] == 1
        assert f.lines == (0, machine.geom.lines_per_row)

    def test_bank_fault_covers_bank(self, machine):
        inj = FaultInjector(machine, seed=1)
        rec = inj.inject(FaultMode.SINGLE_BANK, location=(2, 3, 0))
        (f,) = rec.faults
        assert f.rows == (0, machine.geom.rows_per_bank)

    def test_column_fault_spans_rows_single_line(self, machine):
        inj = FaultInjector(machine, seed=1)
        rec = inj.inject(FaultMode.SINGLE_COLUMN, location=(1, 1, 2))
        (f,) = rec.faults
        assert f.rows == (0, machine.geom.rows_per_bank)
        assert f.lines[1] - f.lines[0] == 1

    def test_multi_bank_two_banks(self, machine):
        inj = FaultInjector(machine, seed=1)
        rec = inj.inject(FaultMode.MULTI_BANK, location=(0, 1, 0))
        assert len({f.bank for f in rec.faults}) == 2

    def test_injected_errors_are_correctable(self, machine):
        inj = FaultInjector(machine, seed=3)
        inj.inject(FaultMode.SINGLE_ROW, location=(0, 0, 1))
        # find a corrupted line and read it
        machine.scrub()
        assert machine.stats.uncorrectable == 0
        assert machine.stats.corrected > 0

    def test_bank_fault_materializes_after_scrub(self, machine):
        inj = FaultInjector(machine, seed=3)
        inj.inject(FaultMode.SINGLE_BANK, location=(0, 0, 1))
        machine.scrub()
        assert (0, 0) in machine.health.faulty_pairs

    def test_random_injection_uses_distribution(self, machine):
        inj = FaultInjector(machine, seed=4)
        rec = inj.inject_random()
        assert rec.mode in set(FaultMode)
        assert inj.injected == [rec]
