"""Property tests holding the batched machine hot paths equal to their
per-line references: scrub vs ``_scrub_reference``, ``read_lines`` vs
``_read_internal(addr, count_errors=False)`` address by address, and the
vectorized parity rebuild invariant."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.layout import Geometry
from repro.core.machine import Address, ECCParityMachine
from repro.ecc.lot_ecc import LotEcc5, LotEcc9
from repro.faults.fit_rates import FIT_BY_MODE, FaultMode
from repro.faults.injector import FaultInjector


def _geometry():
    return Geometry(channels=4, banks=4, rows_per_bank=12, lines_per_row=8)


def _faulted_machine(scheme_cls, seed=7):
    """A machine with a mixed fault load (deterministic at *seed*)."""
    m = ECCParityMachine(scheme_cls(), _geometry(), seed=seed)
    inj = FaultInjector(m, seed=seed + 100)
    inj.inject(FaultMode.SINGLE_BANK, location=(0, 1, 2))
    inj.inject(FaultMode.SINGLE_ROW, location=(1, 2, 0))
    inj.inject(FaultMode.SINGLE_COLUMN, location=(2, 3, 1))
    inj.inject(FaultMode.SINGLE_WORD, location=(3, 0, 3), transient=True)
    return m


def _collision_machine(seed: int, scheme_cls=LotEcc5) -> ECCParityMachine:
    """Two field faults in distinct channels of one bank, drawn like
    ``experiments/collision.py::_collision_trial`` (which lets the banks
    differ): parity groups of that bank can hold two corrupted members."""
    g = _geometry()
    rng = np.random.default_rng(seed)
    m = ECCParityMachine(scheme_cls(), g, seed=1000 + seed)
    inj = FaultInjector(m, seed=2000 + seed)
    modes = list(FIT_BY_MODE)
    weights = np.array([FIT_BY_MODE[mode] for mode in modes])
    bank = int(rng.integers(g.banks))
    for chan in rng.choice(g.channels, size=2, replace=False):
        mode = modes[int(rng.choice(len(modes), p=weights / weights.sum()))]
        inj.inject(mode, location=(int(chan), bank, int(rng.integers(m.scheme.data_chips))))
    return m


def _assert_machines_equal(a: ECCParityMachine, b: ECCParityMachine):
    assert asdict(a.stats) == asdict(b.stats)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.detection, b.detection)
    assert np.array_equal(a.parity, b.parity)
    assert a.excluded == b.excluded
    assert a.health._faulty_pairs == b.health._faulty_pairs
    assert a.health._retired_pages == b.health._retired_pages
    assert a.health._counters == b.health._counters
    assert sorted(a.materialized) == sorted(b.materialized)
    for key in a.materialized:
        assert np.array_equal(a.materialized[key], b.materialized[key])


class TestScrubMatchesReference:
    @pytest.mark.parametrize("scheme_cls", [LotEcc5, LotEcc9])
    @pytest.mark.parametrize("repair", [False, True])
    def test_two_passes_identical(self, scheme_cls, repair):
        fast = _faulted_machine(scheme_cls)
        ref = _faulted_machine(scheme_cls)
        # Two passes: the first drives retirement/materialization, the
        # second exercises the materialized faulty-bank batch path.
        for _ in range(2):
            assert fast.scrub(repair=repair) == ref._scrub_reference(repair=repair)
            _assert_machines_equal(fast, ref)

    def test_clean_machine_scrubs_nothing(self):
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=1)
        assert m.scrub() == 0
        assert m.stats.detected_errors == 0


class TestScrubRepairSemantics:
    """Repair semantics on a materialized (faulty) bank pair.

    Outside a faulty pair, any counted error immediately retires its page
    and its parity sharers, which masks the heal/re-assert distinction; on
    a faulty pair ``record_error`` is a no-op, so repaired lines stay in
    play and the two fault kinds behave observably differently.
    """

    def _machine_with_faulty_pair(self):
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=3)
        m.health._faulty_pairs.add((1, 0))
        m._materialize_pair(1, 0)
        return m

    def test_transients_heal_permanently(self):
        m = self._machine_with_faulty_pair()
        FaultInjector(m, seed=5).inject(
            FaultMode.SINGLE_ROW, location=(1, 0, 2), transient=True
        )
        assert m.scrub(repair=True) > 0
        assert m.scrub(repair=True) == 0  # healed: nothing left to find
        # Repaired content is the pre-fault content.
        assert np.array_equal(m.data[1, 0], m.golden[1, 0])

    def test_permanents_reassert_after_repair(self):
        m = self._machine_with_faulty_pair()
        FaultInjector(m, seed=5).inject(FaultMode.SINGLE_ROW, location=(1, 0, 2))
        first = m.scrub(repair=True)
        assert first > 0
        # The device is still broken: the repaired region re-corrupts at the
        # end of the pass, so the next scrub finds the same lines dirty.
        second = m.scrub(repair=True)
        assert second == first

    def test_repair_stats_match_reference(self):
        fast = _faulted_machine(LotEcc5, seed=21)
        ref = _faulted_machine(LotEcc5, seed=21)
        fast.scrub(repair=True)
        ref._scrub_reference(repair=True)
        _assert_machines_equal(fast, ref)


class TestReadLinesMatchesSequentialRead:
    """``read_lines`` accounts no errors, so its oracle is
    ``_read_internal(addr, count_errors=False)`` run address by address."""

    def _all_addresses(self, g):
        return [
            Address(c, b, r, l)
            for c in range(g.channels)
            for b in range(g.banks)
            for r in range(g.rows_per_bank)
            for l in range(g.lines_per_row)
        ]

    def _assert_matches_oracle(self, batched, oracle, addrs):
        res = batched.read_lines(addrs)
        for i, addr in enumerate(addrs):
            oracle.stats.app_reads += 1  # what read() adds around the oracle
            r = oracle._read_internal(addr, count_errors=False)
            assert res.ok[i] == (r.data is not None)
            if r.data is not None:
                assert np.array_equal(res.data[i], r.data)
            else:
                assert not res.data[i].any()
            assert res.detected[i] == r.detected
            assert res.corrected[i] == r.corrected
            assert res.uncorrectable[i] == r.uncorrectable
        _assert_machines_equal(batched, oracle)
        return res

    @staticmethod
    def _dirty(m, addrs):
        chips = m.scheme.split_to_chips
        return [a for a in addrs if m.scheme.detect_line(chips(m.data[a]), m.detection[a]).error]

    @pytest.mark.parametrize("scheme_cls", [LotEcc5, LotEcc9])
    def test_batched_equals_sequential(self, scheme_cls):
        """Permanent faults in three banks: the dirty lines fall into more
        than one erasure set, so more than one ``correct_lines`` call runs."""
        batched = _faulted_machine(scheme_cls, seed=13)
        oracle = _faulted_machine(scheme_cls, seed=13)
        addrs = self._all_addresses(batched.geom)
        dirty = self._dirty(batched, addrs)
        assert len({frozenset(batched._known_bad_chips(a.channel, a.bank)) for a in dirty}) >= 3
        res = self._assert_matches_oracle(batched, oracle, addrs)
        assert res.corrected.sum() > 0

    @pytest.mark.parametrize("scheme_cls", [LotEcc5, LotEcc9])
    def test_materialized_pairs_equal_oracle(self, scheme_cls):
        """After a counting scrub has materialized the faulted bank pairs,
        their dirty lines read the stored ECC lines (step B) and the other
        channels' step C skips the excluded members."""
        batched = _faulted_machine(scheme_cls, seed=13)
        oracle = _faulted_machine(scheme_cls, seed=13)
        batched.scrub()
        oracle.scrub()
        assert batched.materialized
        addrs = self._all_addresses(batched.geom)
        dirty = self._dirty(batched, addrs)
        assert any(batched.health.is_faulty(a.channel, a.bank) for a in dirty)
        # Transient faults elsewhere keep some step-C reads in the batch.
        for m in (batched, oracle):
            inj = FaultInjector(m, seed=40)
            inj.inject(FaultMode.SINGLE_ROW, location=(3, 1, 0), transient=True)
        rebuilt = batched.stats.parity_reconstructions
        res = self._assert_matches_oracle(batched, oracle, addrs)
        assert batched.stats.parity_reconstructions > rebuilt and res.corrected.any()

    @pytest.mark.parametrize("scheme_cls", [LotEcc5, LotEcc9])
    def test_excluded_banks_equal_oracle(self, scheme_cls):
        """A dirty line of an excluded bank that is not faulty has no parity
        group and fails; lines of other channels skip an excluded member."""
        batched = _faulted_machine(scheme_cls, seed=13)
        oracle = _faulted_machine(scheme_cls, seed=13)
        for m in (batched, oracle):
            m.excluded.update({(1, 2), (3, 2)})
            m._rebuild_all_parity()
            inj = FaultInjector(m, seed=41)
            inj.inject(FaultMode.SINGLE_BANK, location=(2, 2, 1), transient=True)
        addrs = self._all_addresses(batched.geom)
        res = self._assert_matches_oracle(batched, oracle, addrs)
        bank12 = [i for i, a in enumerate(addrs) if (a.channel, a.bank) == (1, 2)]
        assert res.detected[bank12].any() and not res.ok[bank12][res.detected[bank12]].any()
        bank22 = [i for i, a in enumerate(addrs) if (a.channel, a.bank) == (2, 2)]
        assert res.corrected[bank22].any()

    @pytest.mark.parametrize("scheme_cls", [LotEcc5, LotEcc9])
    def test_two_fault_collisions_equal_sequential(self, scheme_cls):
        """Collision machines: dirty lines whose parity group holds a second
        corrupted member must fail exactly as sequential reads fail, after
        the same count of member reads."""
        collided = 0
        for seed in range(12):
            batched = _collision_machine(seed, scheme_cls)
            oracle = _collision_machine(seed, scheme_cls)
            addrs = self._all_addresses(batched.geom)
            np.random.default_rng(seed).shuffle(addrs)
            # Half the memory: some corrupted group members lie outside
            # the batch, so member dirtiness must come from their own bits.
            addrs = addrs[: len(addrs) // 2]
            res = self._assert_matches_oracle(batched, oracle, addrs)
            collided += bool(res.uncorrectable.any())
        assert collided >= 2  # the collision path really ran

    def test_empty_batch(self):
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=0)
        res = m.read_lines([])
        assert res.data.shape == (0, m.scheme.line_size)
        assert m.stats.app_reads == 0

    def test_array_batch_equals_address_list(self):
        a = _faulted_machine(LotEcc5, seed=13)
        b = _faulted_machine(LotEcc5, seed=13)
        addrs = self._all_addresses(a.geom)
        ra, rb = a.read_lines(addrs), b.read_lines(np.array(addrs))
        assert np.array_equal(ra.data, rb.data) and np.array_equal(ra.ok, rb.ok)
        _assert_machines_equal(a, b)

    def test_count_errors_false_leaves_health_alone(self):
        """``read_lines`` counts no errors: no page retires, no pair turns faulty."""
        m = _faulted_machine(LotEcc5, seed=13)
        addrs = self._all_addresses(m.geom)
        assert m.read_lines(addrs).detected.any()
        assert not m.health._faulty_pairs
        assert not m.health._retired_pages


class TestVectorizedParityRebuild:
    def test_fresh_machine_parity_consistent(self):
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=2)
        assert m.audit_parity() == 0

    def test_rebuild_is_idempotent(self):
        m = ECCParityMachine(LotEcc9(), _geometry(), seed=2)
        before = m.parity.copy()
        m._rebuild_all_parity()
        assert np.array_equal(m.parity, before)

    def test_rebuild_with_exclusions_consistent(self):
        # Excluding a pair switches _rebuild_all_parity to the per-bank path
        # and drops the pair's rows from every group; the audit (which skips
        # excluded banks the same way) must still see zero inconsistencies.
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=2)
        m.excluded.update({(1, 0), (1, 1)})
        m._rebuild_all_parity()
        assert m.audit_parity() == 0

    def test_single_bank_rebuild_matches_full(self):
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=4)
        # Perturb one bank's parity, rebuild just that bank, compare with a
        # freshly built machine.
        pristine = m.parity.copy()
        m.parity[:, 2] ^= 0xFF
        m._rebuild_parity_bank(2)
        assert np.array_equal(m.parity, pristine)

    def test_writes_keep_parity_consistent(self):
        m = ECCParityMachine(LotEcc5(), _geometry(), seed=6)
        rng = np.random.default_rng(0)
        for _ in range(16):
            addr = Address(
                int(rng.integers(m.geom.channels)),
                int(rng.integers(m.geom.banks)),
                int(rng.integers(m.geom.rows_per_bank)),
                int(rng.integers(m.geom.lines_per_row)),
            )
            m.write(addr, rng.integers(0, 256, m.scheme.line_size, dtype=np.uint8))
        assert m.audit_parity() == 0
