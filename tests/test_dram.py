"""DRAM substrate tests: timing, power model, channel scheduling, mapping."""

import dataclasses
import heapq
import random

import pytest

from repro.dram import (
    CHIP_POWER,
    AddressMapping,
    Channel,
    DDR3Timing,
    EnergyBreakdown,
    MemorySystem,
    MemorySystemConfig,
    MemRequest,
    RankEnergyCounters,
    RankPowerModel,
    chip_power_for_width,
)


class TestTiming:
    def test_trc_consistency(self):
        t = DDR3Timing()
        assert t.trc == t.tras + t.trp

    def test_read_latency(self):
        t = DDR3Timing()
        assert t.read_latency == t.trcd + t.tcl + t.tburst

    def test_bank_occupancy_floors_at_trc(self):
        t = DDR3Timing()
        assert t.bank_busy_read >= t.trc
        assert t.bank_busy_write >= t.trc

    def test_write_occupancy_exceeds_read(self):
        t = DDR3Timing()
        assert t.bank_busy_write > t.bank_busy_read


class TestChipPower:
    def test_known_widths(self):
        for w in (4, 8, 16):
            assert chip_power_for_width(w).width == w

    def test_unknown_width_rejected(self):
        with pytest.raises(ValueError):
            chip_power_for_width(32)

    def test_wider_chips_burn_more_burst_current(self):
        assert CHIP_POWER[16].idd4r > CHIP_POWER[4].idd4r

    def test_powerdown_below_standby(self):
        for p in CHIP_POWER.values():
            assert p.idd2p < p.idd2n < p.idd3n


class TestPowerModel:
    def make(self, widths):
        return RankPowerModel(widths, DDR3Timing(), 64)

    def test_zero_counters_zero_energy(self):
        e = self.make([8] * 9).integrate(RankEnergyCounters())
        assert e.total == 0

    def test_activate_energy_positive(self):
        e = self.make([8] * 9).integrate(RankEnergyCounters(activates=1))
        assert e.activate > 0 and e.read == 0 and e.write == 0

    def test_energy_scales_with_chip_count(self):
        c = RankEnergyCounters(activates=100, read_bursts=100)
        e36 = self.make([4] * 36).integrate(c)
        e18 = self.make([4] * 18).integrate(c)
        assert e36.dynamic == pytest.approx(2 * e18.dynamic)

    def test_lot5_rank_cheaper_than_ck36(self):
        """The paper's first-order energy claim: 5-chip ranks beat 36-chip."""
        c = RankEnergyCounters(activates=1, read_bursts=1)
        e5 = self.make([16, 16, 16, 16, 8]).integrate(c)
        e36 = self.make([4] * 36).integrate(c)
        # ck36 moves 128B vs 64B, so compare per 64B: still a big win.
        assert e5.dynamic < e36.dynamic / 2

    def test_background_states_ordered(self):
        m = self.make([8] * 9)
        act = m.integrate(RankEnergyCounters(cycles_active=1000)).background
        stby = m.integrate(RankEnergyCounters(cycles_precharge_standby=1000)).background
        pd = m.integrate(RankEnergyCounters(cycles_powerdown=1000)).background
        assert act > stby > pd > 0

    def test_write_burst_pricier_than_read(self):
        m = self.make([8] * 9)
        r = m.integrate(RankEnergyCounters(read_bursts=10)).read
        w = m.integrate(RankEnergyCounters(write_bursts=10)).write
        assert w > r

    def test_refresh_charged_on_residency(self):
        e = self.make([8] * 9).integrate(RankEnergyCounters(cycles_powerdown=10000))
        assert e.refresh > 0

    def test_breakdown_addition(self):
        m = self.make([8] * 9)
        a = m.integrate(RankEnergyCounters(activates=5))
        b = m.integrate(RankEnergyCounters(read_bursts=5))
        s = a + b
        assert s.activate == a.activate and s.read == b.read
        assert s.total == pytest.approx(a.total + b.total)


def integrate_unmemoized(model, counters):
    """RankPowerModel.integrate as it read before the coefficient memo:
    every primitive evaluated per chip per call."""
    t = model.timing
    out = EnergyBreakdown()
    ns = t.tck_ns
    for p in model._chips:
        out.activate += counters.activates * model._act_energy_chip(p)
        out.read += counters.read_bursts * model._burst_energy_chip(p, write=False)
        out.write += counters.write_bursts * model._burst_energy_chip(p, write=True)
        total_cycles = (
            counters.cycles_active + counters.cycles_precharge_standby + counters.cycles_powerdown
        )
        out.refresh += model._refresh_power_chip(p) * total_cycles * ns * 1e-3
        out.background += (
            p.idd3n * counters.cycles_active
            + p.idd2n * counters.cycles_precharge_standby
            + p.idd2p * counters.cycles_powerdown
        ) * p.vdd * ns * 1e-3
    return out


class _Captured(Exception):
    pass


def built_power_models():
    """Every rank power model the experiments build: each catalog scheme's
    chip widths, and each rank of the mixed-rank channel of Section VI-A."""
    from repro.ecc.catalog import SYSTEM_CLASSES
    from repro.experiments import mixed_ranks
    from repro.workloads.profiles import WORKLOADS_BY_NAME

    widths = {
        tuple(cfg.make_scheme().chip_widths())
        for configs in SYSTEM_CLASSES.values()
        for cfg in configs.values()
    }
    models = [RankPowerModel(list(w)) for w in sorted(widths)]
    mems = []

    class Capture:
        def __init__(self, mem, *args, **kwargs):
            mems.append(mem)
            raise _Captured

    real = mixed_ranks.SimSystem
    mixed_ranks.SimSystem = Capture
    try:
        with pytest.raises(_Captured):
            mixed_ranks.mixed_channel_simulation(WORKLOADS_BY_NAME["mcf"])
    finally:
        mixed_ranks.SimSystem = real
    (mem,) = mems
    assert mem.config.rank_chip_widths is not None
    models += mem._power_models
    return models


class TestPowerCoefficientMemo:
    """integrate reads per-chip coefficients memoized per (widths, timing)."""

    @pytest.fixture(scope="class")
    def models(self):
        return built_power_models()

    def test_coefficients_equal_primitives(self, models):
        assert {w for m in models for w in m.chip_widths} == set(CHIP_POWER)
        for m in models:
            assert len(m._coeffs) == len(m._chips)
            for (act, rd, wr, ref, *_), p in zip(m._coeffs, m._chips):
                assert act == m._act_energy_chip(p)
                assert rd == m._burst_energy_chip(p, write=False)
                assert wr == m._burst_energy_chip(p, write=True)
                assert ref == m._refresh_power_chip(p)

    def test_memo_shared_across_models(self, models):
        for m in models:
            again = RankPowerModel(list(m.chip_widths), m.timing, m.line_bytes)
            assert again._coeffs is m._coeffs
        slow = DDR3Timing(tck_ns=1.25)
        assert RankPowerModel([4] * 18, slow)._coeffs != RankPowerModel([4] * 18)._coeffs

    def test_integrate_equals_unmemoized_loop(self, models):
        rng = random.Random(0xE7)
        for m in models:
            for _ in range(50):
                c = RankEnergyCounters(
                    activates=rng.randrange(10**7),
                    read_bursts=rng.randrange(10**7),
                    write_bursts=rng.randrange(10**7),
                    cycles_active=rng.choice([rng.randrange(10**9), rng.random() * 1e9]),
                    cycles_precharge_standby=rng.randrange(10**9),
                    cycles_powerdown=float(rng.randrange(10**9)),
                )
                got = dataclasses.astuple(m.integrate(c))
                assert got == dataclasses.astuple(integrate_unmemoized(m, c))


def drain(channel, last_arrival):
    """Run a channel until its queue is empty; returns completed requests."""
    done = []
    t = 0
    guard = 0
    while channel.pending and guard < 100000:
        guard += 1
        completed, nxt = channel.advance(t)
        done.extend(completed)
        t = nxt if nxt is not None else t + 1
    return done


class TestChannel:
    def test_single_read_latency(self):
        ch = Channel(ranks=1)
        t = ch.timing
        ch.enqueue(MemRequest(rank=0, bank=0, row=0, is_write=False, arrive=0))
        (req,), _ = ch.advance(0)
        assert req.issue == 0
        assert req.complete == t.trcd + t.tcl + t.tburst

    def test_same_bank_serialized(self):
        ch = Channel(ranks=1)
        for i in range(2):
            ch.enqueue(MemRequest(rank=0, bank=0, row=i, is_write=False, arrive=0))
        done = drain(ch, 0)
        assert done[1].issue - done[0].issue >= ch.timing.bank_busy_read

    def test_different_banks_pipeline(self):
        ch = Channel(ranks=1)
        for b in range(2):
            ch.enqueue(MemRequest(rank=0, bank=b, row=0, is_write=False, arrive=0))
        done = drain(ch, 0)
        gap = done[1].issue - done[0].issue
        assert gap < ch.timing.bank_busy_read  # overlapped
        assert gap >= ch.timing.trrd

    def test_tfaw_enforced(self):
        ch = Channel(ranks=1)
        for b in range(5):
            ch.enqueue(MemRequest(rank=0, bank=b, row=0, is_write=False, arrive=0))
        done = drain(ch, 0)
        issues = sorted(r.issue for r in done)
        assert issues[4] - issues[0] >= ch.timing.tfaw

    def test_data_bus_serializes_bursts(self):
        ch = Channel(ranks=2)
        for r in range(2):
            ch.enqueue(MemRequest(rank=r, bank=0, row=0, is_write=False, arrive=0))
        done = drain(ch, 0)
        ends = sorted(r.complete for r in done)
        assert ends[1] - ends[0] >= ch.timing.tburst

    def test_demand_prioritized_over_background(self):
        ch = Channel(ranks=1)
        ch.enqueue(MemRequest(rank=0, bank=0, row=0, is_write=True, arrive=0))
        ch.enqueue(MemRequest(rank=0, bank=1, row=0, is_write=False, arrive=0, demand=True))
        (first,), _ = ch.advance(0)
        assert first.demand and not first.is_write

    def test_background_reads_deferred(self):
        """ECC-state RMW reads must not outrank demand fills."""
        ch = Channel(ranks=1)
        ch.enqueue(MemRequest(rank=0, bank=0, row=0, is_write=False, arrive=0))  # bg read
        ch.enqueue(MemRequest(rank=0, bank=1, row=0, is_write=False, arrive=1, demand=True))
        (first,), _ = ch.advance(2)
        assert first.demand

    def test_write_drain_mode(self):
        ch = Channel(ranks=1)
        for i in range(ch.WRITE_DRAIN):
            ch.enqueue(MemRequest(rank=0, bank=i % 8, row=0, is_write=True, arrive=0))
        ch.enqueue(MemRequest(rank=0, bank=0, row=1, is_write=False, arrive=0, demand=True))
        (first,), _ = ch.advance(0)
        assert first.is_write  # backlog at threshold forces draining

    def test_most_pending_groups_rows(self):
        ch = Channel(ranks=1)
        ch.enqueue(MemRequest(rank=0, bank=0, row=1, is_write=False, arrive=0))
        for _ in range(3):
            ch.enqueue(MemRequest(rank=0, bank=1, row=9, is_write=False, arrive=1))
        (first,), _ = ch.advance(2)
        assert first.row == 9  # the 3-deep row wins over the older single

    def test_counters_accumulate(self):
        ch = Channel(ranks=1)
        for b in range(4):
            ch.enqueue(MemRequest(rank=0, bank=b, row=0, is_write=(b % 2 == 0), arrive=0))
        drain(ch, 0)
        c = ch.ranks[0].counters
        assert c.activates == 4 and c.read_bursts == 2 and c.write_bursts == 2

    def test_powerdown_residency_accrues(self):
        ch = Channel(ranks=1)
        ch.enqueue(MemRequest(rank=0, bank=0, row=0, is_write=False, arrive=0))
        drain(ch, 0)
        ch.finalize(10000)
        c = ch.ranks[0].counters
        assert c.cycles_powerdown > 0
        assert c.cycles_active > 0
        total = c.cycles_active + c.cycles_precharge_standby + c.cycles_powerdown
        assert total == 10000

    def test_queue_overflow_raises(self):
        ch = Channel(ranks=1)
        ch.queue = [MemRequest(0, 0, 0, False, 0)] * ch.QUEUE_DEPTH
        with pytest.raises(RuntimeError):
            ch.enqueue(MemRequest(0, 0, 0, False, 0))


class TestMapping:
    def test_pages_interleave_channels(self):
        m = AddressMapping(channels=4, ranks_per_channel=2)
        coords = [m.map_line(p * m.lines_per_page) for p in range(8)]
        assert [c.channel for c in coords] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_lines_spread_across_banks(self):
        m = AddressMapping(channels=2, ranks_per_channel=1)
        coords = [m.map_line(i) for i in range(8)]
        banks = {(c.rank, c.bank) for c in coords}
        assert len(banks) == 8

    def test_row_is_page_in_channel(self):
        m = AddressMapping(channels=2, ranks_per_channel=1)
        a = m.map_line(0)
        b = m.map_line(2 * m.lines_per_page)  # two pages later: same channel
        assert a.channel == b.channel and b.row == a.row + 1

    def test_128b_lines(self):
        m = AddressMapping(channels=2, ranks_per_channel=1, line_size=128)
        assert m.lines_per_page == 32

    def test_byte_mapping(self):
        m = AddressMapping(channels=2, ranks_per_channel=1)
        assert m.map_bytes(0) == m.map_line(0)
        assert m.map_bytes(64) == m.map_line(1)


class TestMemorySystem:
    def make(self):
        return MemorySystem(
            MemorySystemConfig(channels=2, ranks_per_channel=1, chip_widths=[8] * 9)
        )

    def test_accesses_counted_in_64b_units(self):
        mem = self.make()
        mem.enqueue(0, False, 0, None)
        assert mem.accesses_64b == 1
        mem128 = MemorySystem(
            MemorySystemConfig(channels=2, ranks_per_channel=1, chip_widths=[4] * 36, line_size=128)
        )
        mem128.enqueue(0, False, 0, None)
        assert mem128.accesses_64b == 2

    def test_energy_since_baseline(self):
        mem = self.make()
        heap_time = 0
        for i in range(50):
            ch = mem.enqueue(i * 3, False, heap_time, None)
            done, nxt = mem.advance_channel(ch, heap_time)
            heap_time += 5
        snap = mem.snapshot_counters(heap_time)
        # more work after the snapshot
        for i in range(50):
            ch = mem.enqueue(i * 7 + 1, True, heap_time, None)
            mem.advance_channel(ch, heap_time)
            heap_time += 5
        mem.finalize(heap_time + 200)
        net = mem.energy_since(snap)
        gross = mem.energy_since(None)
        assert 0 < net.total < gross.total

    def test_pending_tracks_queue(self):
        mem = self.make()
        mem.enqueue(0, False, 0, None)
        assert mem.pending() == 1
        mem.advance_channel(0, 0)
        mem.advance_channel(1, 0)
        assert mem.pending() == 0


class TestMappingPolicies:
    def test_sequential_policy_one_bank_per_page(self):
        m = AddressMapping(channels=2, ranks_per_channel=2, policy="sequential")
        coords = [m.map_line(i) for i in range(m.lines_per_page)]
        assert len({(c.rank, c.bank) for c in coords}) == 1

    def test_sequential_rotates_across_pages(self):
        m = AddressMapping(channels=2, ranks_per_channel=2, policy="sequential")
        a = m.map_line(0)
        b = m.map_line(2 * m.lines_per_page)  # next page, same channel
        assert (a.rank, a.bank) != (b.rank, b.bank)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AddressMapping(channels=2, ranks_per_channel=1, policy="bogus")

    def test_interleave_is_default(self):
        m = AddressMapping(channels=2, ranks_per_channel=1)
        assert m.policy == "interleave"


class TestRefresh:
    def test_refresh_blocks_banks(self):
        """A request landing on a refresh deadline waits out tRFC."""
        ch = Channel(ranks=1)
        t = ch.timing
        deadline = ch.ranks[0].next_refresh
        ch.enqueue(MemRequest(rank=0, bank=0, row=0, is_write=False, arrive=deadline))
        (req,), _ = ch.advance(deadline + 1)
        assert req.issue >= deadline + t.trfc

    def test_refreshes_counted(self):
        ch = Channel(ranks=1)
        t = ch.timing
        ch.advance(3 * t.trefi + 10)
        assert ch.ranks[0].refreshes == 3

    def test_ranks_staggered(self):
        ch = Channel(ranks=4)
        deadlines = [r.next_refresh for r in ch.ranks]
        assert len(set(deadlines)) == 4

    def test_throughput_dip_is_bounded(self):
        """Refresh costs roughly tRFC per tREFI, no more."""
        # A short tREFI lets a few hundred requests cross several refreshes
        # (the channel scans its whole queue for every request it starts).
        t = dataclasses.replace(DDR3Timing(), trefi=700)

        def span_with(first_deadline):
            ch = Channel(ranks=1, timing=t)
            ch.ranks[0].next_refresh = first_deadline
            for i in range(300):
                ch.enqueue(MemRequest(rank=0, bank=i % 8, row=0, is_write=False, arrive=0))
            done = drain(ch, 0)
            return max(r.complete for r in done), ch.ranks[0].refreshes

        base, _ = span_with(1 << 40)  # refresh effectively disabled
        with_ref, n_ref = span_with(1000)
        assert n_ref >= 1
        overhead = with_ref - base
        assert 0 <= overhead <= (n_ref + 1) * t.trfc
