"""Bit-true functional model of a multi-channel memory with ECC Parity.

The machine owns real byte arrays for every data line, its detection bits,
the ECC parity region, and any materialized ECC lines.  It executes the
complete protocol of the paper:

* reads with bank-health lookup (step A1), ECC-line reads for faulty banks
  (step B), and parity-based reconstruction of correction bits (step C);
* writes with health lookup (A2), ECC-line updates (D) and parity
  read-modify-writes per Equation 1 (E);
* periodic scrubbing, per-bank-pair error counting, page retirement, and
  materialization of actual correction bits for faulty bank pairs with
  parity recalculation (Section III-B/III-C).

Faults are injected by :mod:`repro.faults.injector`, which corrupts the
stored arrays exactly as a failing DRAM device would; nothing in the read
path peeks at ground truth, so measured coverage is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.health import BankHealthTable
from repro.core.layout import Geometry, MaterializedLayout, ParityLayout
from repro.ecc.base import ECCScheme
from repro.util.rng import make_rng


class Address(NamedTuple):
    """Physical location of one cache line."""

    channel: int
    bank: int
    row: int
    line: int


@dataclass
class MachineStats:
    """Event counters exposed for tests and experiments."""

    app_reads: int = 0
    app_writes: int = 0
    mem_reads: int = 0  # includes overhead accesses (parity, ECC lines, members)
    mem_writes: int = 0
    detected_errors: int = 0
    corrected: int = 0
    uncorrectable: int = 0
    parity_reconstructions: int = 0  # step C events
    ecc_line_reads: int = 0  # step B events
    ecc_line_writes: int = 0  # step D events
    parity_updates: int = 0  # step E events
    scrubs: int = 0
    scrub_lines_checked: int = 0


@dataclass
class ReadResult:
    """What a read returns: corrected data (or None) plus event flags."""

    data: "np.ndarray | None"
    detected: bool = False
    corrected: bool = False
    uncorrectable: bool = False
    used_parity_reconstruction: bool = False
    used_ecc_line: bool = False


@dataclass
class BatchReadResult:
    """Per-line outcome arrays of a batched read (see :meth:`read_lines`)."""

    data: np.ndarray  #: (T, line_size) corrected data; zeros where not ``ok``
    ok: np.ndarray  #: (T,) bool - data row is valid
    detected: np.ndarray  #: (T,) bool - an error was detected
    corrected: np.ndarray  #: (T,) bool - the error was corrected
    uncorrectable: np.ndarray  #: (T,) bool - correction failed


@dataclass
class PermanentFault:
    """A device fault that keeps corrupting its region until it is excluded.

    ``chip`` is the failing data-chip index; the corruption pattern is a
    deterministic XOR mask derived from *seed*, re-applied after any repair
    (that is what makes it "permanent").
    """

    channel: int
    bank: int
    rows: "tuple[int, int]"  # [start, stop) row range
    lines: "tuple[int, int]"  # [start, stop) line range within each row
    chip: int
    seed: int = 0


class ECCParityMachine:
    """A functional N-channel memory protected by ECC Parity over *scheme*."""

    def __init__(
        self,
        scheme: ECCScheme,
        geometry: Geometry,
        seed: "int | None" = 0,
        threshold: int = 4,
    ):
        self.scheme = scheme
        self.geom = geometry
        self.layout = ParityLayout(geometry)
        self.health = BankHealthTable(geometry, threshold=threshold)
        self.stats = MachineStats()
        rng = make_rng(seed)

        c, b, r, l = geometry.channels, geometry.banks, geometry.rows_per_bank, geometry.lines_per_row
        self.data = rng.integers(0, 256, (c, b, r, l, scheme.line_size), dtype=np.uint8)
        self.detection = scheme.compute_detection(self.data)
        #: Pristine copy for test verification only - never read by the protocol.
        self.golden = self.data.copy()

        corr_bytes = scheme.correction_bytes_per_line
        self.parity = np.zeros((c, b, self.layout.blocks_per_bank, l, corr_bytes), dtype=np.uint8)
        #: (channel, bank) pairs whose content is excluded from parity groups.
        self.excluded: "set[tuple[int, int]]" = set()
        #: Materialized ECC lines per faulty bank: (channel, bank) -> (rows, lines, corr).
        self.materialized: "dict[tuple[int, int], np.ndarray]" = {}
        self.permanent_faults: "list[PermanentFault]" = []
        self._rebuild_all_parity()

    # -- parity construction -----------------------------------------------------------

    def _member_rows(self, parity_channel: int, channel: int) -> slice:
        """Rows of *channel* whose parity lives in *parity_channel* (fixed stride)."""
        n = self.geom.channels
        rel = (channel - parity_channel - 1) % n
        return slice(rel, self.geom.rows_per_bank, n - 1)

    def _rebuild_parity_bank(self, bank: int) -> None:
        """Recompute every parity group of *bank* (all parity channels).

        One batched correction pass over the bank's data in every channel,
        then pure XOR folds: after reshaping the rows axis to ``(blocks,
        n-1)``, slot ``(c - p - 1) % n`` of the ``n-1`` axis holds exactly
        the member rows of channel *c* whose parity lives in channel *p*
        (the stride :meth:`_member_rows` walks), so no per-(parity, channel)
        re-encoding is needed.
        """
        n = self.geom.channels
        corr = self.scheme.compute_correction(self.data[:, bank])
        corr = corr.reshape(n, self.layout.blocks_per_bank, n - 1, *corr.shape[2:])
        for p in range(n):
            acc = np.zeros_like(self.parity[p, bank])
            for c in range(n):
                if c == p or (c, bank) in self.excluded:
                    continue
                acc ^= corr[c, :, (c - p - 1) % n]
            self.parity[p, bank] = acc

    def _rebuild_all_parity(self) -> None:
        """Recompute every parity group of the machine.

        With no excluded banks (the common case - initialization and any
        point before the first materialization) this is a single correction
        pass over the *entire* data array plus XOR folds; otherwise fall
        back to the per-bank rebuild, which honours per-bank exclusions.
        """
        if self.excluded:
            for bank in range(self.geom.banks):
                self._rebuild_parity_bank(bank)
            return
        n, banks = self.geom.channels, self.geom.banks
        corr = self.scheme.compute_correction(self.data)
        corr = corr.reshape(n, banks, self.layout.blocks_per_bank, n - 1, *corr.shape[3:])
        for p in range(n):
            acc = np.zeros_like(self.parity[p])
            for c in range(n):
                if c != p:
                    acc ^= corr[c, :, :, (c - p - 1) % n]
            self.parity[p] = acc

    # -- fault application ---------------------------------------------------------------

    def _validate_fault(self, fault: PermanentFault) -> None:
        g = self.geom
        if not (0 <= fault.channel < g.channels):
            raise ValueError(f"fault channel {fault.channel} out of range")
        if not (0 <= fault.bank < g.banks):
            raise ValueError(f"fault bank {fault.bank} out of range")
        r0, r1 = fault.rows
        l0, l1 = fault.lines
        if not (0 <= r0 < r1 <= g.rows_per_bank):
            raise ValueError(f"fault rows {fault.rows} invalid for {g.rows_per_bank} rows")
        if not (0 <= l0 < l1 <= g.lines_per_row):
            raise ValueError(f"fault lines {fault.lines} invalid for {g.lines_per_row} lines")
        if not (0 <= fault.chip < self.scheme.data_chips):
            raise ValueError(f"fault chip {fault.chip} out of range for {self.scheme.name}")

    def add_permanent_fault(self, fault: PermanentFault) -> None:
        """Register a device fault and corrupt the affected region."""
        self._validate_fault(fault)
        self.permanent_faults.append(fault)
        self._apply_fault(fault)

    def _fault_mask(self, fault: PermanentFault, n_lines: int) -> np.ndarray:
        """Deterministic nonzero XOR masks for the faulty chip's bytes."""
        rng = make_rng(hash((fault.seed, fault.channel, fault.bank, fault.chip)) & 0x7FFFFFFF)
        mask = rng.integers(1, 256, (n_lines, self.scheme.chip_bytes), dtype=np.uint8)
        return mask

    def _apply_fault(self, fault: PermanentFault) -> None:
        r0, r1 = fault.rows
        l0, l1 = fault.lines
        region = self.data[fault.channel, fault.bank, r0:r1, l0:l1]
        lead = region.shape[:2]
        chips = self.scheme.split_to_chips(region.reshape(-1, self.scheme.line_size))
        mask = self._fault_mask(fault, chips.shape[0])
        chips[:, fault.chip, :] ^= mask
        self.data[fault.channel, fault.bank, r0:r1, l0:l1] = self.scheme.merge_from_chips(
            chips
        ).reshape(*lead, self.scheme.line_size)

    def add_transient_fault(self, fault: PermanentFault) -> None:
        """Corrupt a region once, without registering it for re-application.

        Models transient upsets (the majority of field bit faults): a
        scrub-with-repair pass heals them permanently.
        """
        self._validate_fault(fault)
        self._apply_fault(fault)

    def reapply_permanent_faults(self) -> None:
        """Re-corrupt every registered fault region (after a repair attempt)."""
        for fault in self.permanent_faults:
            self._apply_fault(fault)

    # -- read path (Figure 6, left) ----------------------------------------------------------

    def read(self, addr: Address) -> ReadResult:
        """Application read: detect on the fly, correct if needed."""
        self.stats.app_reads += 1
        return self._read_internal(addr)

    def _read_internal(self, addr: Address, count_errors: bool = True) -> ReadResult:
        c, b, r, l = addr
        self.stats.mem_reads += 1
        faulty = self.health.is_faulty(c, b)  # step A1 (on-chip SRAM lookup)
        if faulty:
            self.stats.mem_reads += 1  # step B: ECC line read in parallel
            self.stats.ecc_line_reads += 1

        line = self.data[c, b, r, l]
        det = self.detection[c, b, r, l]
        chips = self.scheme.split_to_chips(line)
        if not self.scheme.detect_line(chips, det).error:
            return ReadResult(data=line.copy())

        self.stats.detected_errors += 1
        known = self._known_bad_chips(c, b)
        if faulty:
            corr = self.materialized[(c, b)][r, l]
            used_parity = False
        else:
            corr = self._reconstruct_correction(addr)  # step C
            used_parity = True
            if corr is None:
                self.stats.uncorrectable += 1
                return ReadResult(data=None, detected=True, uncorrectable=True)

        res = self.scheme.correct_line(chips, det, corr, erasures=known or None)
        if count_errors:
            self._account_error(c, b, r)
        if res.data is None:
            self.stats.uncorrectable += 1
            return ReadResult(
                data=None,
                detected=True,
                uncorrectable=True,
                used_parity_reconstruction=used_parity,
                used_ecc_line=faulty,
            )
        self.stats.corrected += 1
        return ReadResult(
            data=res.data,
            detected=True,
            corrected=True,
            used_parity_reconstruction=used_parity,
            used_ecc_line=faulty,
        )

    def _known_bad_chips(self, channel: int, bank: int) -> "set[int]":
        """Data chips with a registered permanent fault covering this bank."""
        return {
            f.chip
            for f in self.permanent_faults
            if f.channel == channel and f.bank == bank and f.chip < self.scheme.data_chips
        }

    def _reconstruct_correction(self, addr: Address) -> "np.ndarray | None":
        """Step C: rebuild a line's correction bits from its parity group.

        Costs ``N - 1`` extra memory accesses: the parity line plus the
        ``N - 2`` other member lines, whose correction bits are recomputed
        on the fly.  Fails if any other member also has a detected error
        (fault collision across channels) or if this bank was excluded.
        """
        c, b, r, l = addr
        if (c, b) in self.excluded:
            return None
        loc = self.layout.location_of(c, b, r)
        self.stats.parity_reconstructions += 1
        self.stats.mem_reads += 1  # the parity line
        acc = self.parity[loc.parity_channel, b, loc.group_slot, l].copy()
        for mc, mrow in loc.members:
            if mc == c and mrow == r:
                continue
            if (mc, b) in self.excluded:
                continue  # removed from parity construction at materialization
            self.stats.mem_reads += 1
            mline = self.data[mc, b, mrow, l]
            mdet = self.detection[mc, b, mrow, l]
            if self.scheme.detect_line(self.scheme.split_to_chips(mline), mdet).error:
                return None  # a second channel is faulty at the same location
            acc ^= self.scheme.compute_correction(mline)
        return acc

    # -- write path (Figure 6, right) ----------------------------------------------------------

    def write(self, addr: Address, new_data: np.ndarray) -> None:
        """Application write-back: update data, detection, and parity/ECC lines."""
        c, b, r, l = addr
        new_data = np.asarray(new_data, dtype=np.uint8)
        if new_data.shape != (self.scheme.line_size,):
            raise ValueError(f"expected a {self.scheme.line_size}-byte line")
        self.stats.app_writes += 1
        self.stats.mem_writes += 1
        faulty = self.health.is_faulty(c, b)  # step A2

        if faulty:
            # Step D: write the actual correction bits to the ECC line.
            self.materialized[(c, b)][r, l] = self.scheme.compute_correction(new_data)
            self.stats.mem_writes += 1
            self.stats.ecc_line_writes += 1
        elif (c, b) not in self.excluded:
            # Step E: ECCP_new = ECCP_old ^ ECC_old ^ ECC_new.  The old value
            # must be clean for the parity to stay consistent; correct it
            # first if the stored copy carries an error.
            old = self._clean_old_value(addr)
            if old is not None:
                loc = self.layout.location_of(c, b, r)
                self.stats.mem_reads += 1  # read parity line
                self.stats.mem_writes += 1  # write parity line
                self.stats.parity_updates += 1
                delta = self.scheme.compute_correction(old) ^ self.scheme.compute_correction(
                    new_data
                )
                self.parity[loc.parity_channel, b, loc.group_slot, l] ^= delta
            # If the old value was unrecoverable the group parity is stale for
            # this line; the subsequent health actions (retire/materialize)
            # are what bound the damage, as in the paper.

        self.data[c, b, r, l] = new_data
        self.detection[c, b, r, l] = self.scheme.compute_detection(new_data)
        self.golden[c, b, r, l] = new_data

    def write_raw(self, addr: Address, new_data: np.ndarray) -> None:
        """Write data + detection bits WITHOUT touching parity/ECC state.

        For use by an external controller (:mod:`repro.core.llc_controller`)
        that manages parity updates itself via compacted XOR deltas; calling
        this directly otherwise leaves the parity stale.
        """
        c, b, r, l = addr
        new_data = np.asarray(new_data, dtype=np.uint8)
        if new_data.shape != (self.scheme.line_size,):
            raise ValueError(f"expected a {self.scheme.line_size}-byte line")
        self.stats.mem_writes += 1
        self.data[c, b, r, l] = new_data
        self.detection[c, b, r, l] = self.scheme.compute_detection(new_data)
        self.golden[c, b, r, l] = new_data

    def apply_parity_delta(
        self, parity_channel: int, bank: int, block: int, line: int, delta: np.ndarray
    ) -> None:
        """Read-modify-write one parity line with an accumulated XOR delta.

        The memory-side half of the XOR-cacheline technique: Equation 1
        applied once for any number of compacted line updates.
        """
        self.stats.mem_reads += 1  # read the parity line
        self.stats.mem_writes += 1  # write it back
        self.stats.parity_updates += 1
        self.parity[parity_channel, bank, block, line] ^= np.asarray(delta, dtype=np.uint8)

    def _clean_old_value(self, addr: Address) -> "np.ndarray | None":
        """The stored old line, corrected if necessary (internal RMW read)."""
        c, b, r, l = addr
        line = self.data[c, b, r, l]
        det = self.detection[c, b, r, l]
        chips = self.scheme.split_to_chips(line)
        if not self.scheme.detect_line(chips, det).error:
            self.stats.mem_reads += 1  # step E's read of the old dirty-line value
            return line
        res = self._read_internal(addr)
        return res.data

    # -- error accounting / reactions (Section III-C) ------------------------------------------

    def _account_error(self, channel: int, bank: int, row: int) -> None:
        if self.health.is_retired(channel, bank, row):
            return
        action = self.health.record_error(channel, bank, row)
        if action == "counted":
            self._retire_with_parity_sharers(channel, bank, row)
        elif action == "materialize":
            self._materialize_pair(channel, bank)

    def _retire_with_parity_sharers(self, channel: int, bank: int, row: int) -> None:
        """Retire the faulty page and every page sharing its ECC parities."""
        loc = self.layout.location_of(channel, bank, row)
        self.health.retire_page(channel, bank, row)
        for mc, mrow in loc.members:
            self.health.retire_page(mc, bank, mrow)

    def _materialize_pair(self, channel: int, bank: int) -> None:
        """Store actual correction bits for both banks of a faulty pair.

        Order matters: ECC lines are computed *before* the parity groups are
        recalculated, because reconstructing the faulty lines' correction
        bits needs the old parities.  Clean lines are encoded in one batch;
        only lines with detected errors take the per-line reconstruction
        path.
        """
        pair_banks = (bank & ~1, (bank & ~1) | 1)
        for pb in pair_banks:
            if (channel, pb) in self.materialized:
                continue
            bank_data = self.data[channel, pb]  # (rows, lines, line_size)
            ecc = self.scheme.compute_correction(bank_data).copy()
            computed_det = self.scheme.compute_detection(bank_data)
            dirty = np.any(computed_det != self.detection[channel, pb], axis=-1)
            for r, l in np.argwhere(dirty):
                ecc[r, l] = self._true_correction_bits(Address(channel, pb, int(r), int(l)))
            self.materialized[(channel, pb)] = ecc
        # Remove the pair's content from parity construction and recompute.
        for pb in pair_banks:
            self.excluded.add((channel, pb))
            self._rebuild_parity_bank(pb)

    def _true_correction_bits(self, addr: Address) -> np.ndarray:
        """Correction bits of a line's *pre-fault* content.

        Clean lines: recompute directly.  Dirty lines: reconstruct from the
        parity group, falling back to the (possibly wrong) direct
        computation only when reconstruction fails - the same residual risk
        the paper accepts for multi-channel collisions.
        """
        c, b, r, l = addr
        line = self.data[c, b, r, l]
        det = self.detection[c, b, r, l]
        if not self.scheme.detect_line(self.scheme.split_to_chips(line), det).error:
            return self.scheme.compute_correction(line)
        rebuilt = self._reconstruct_correction(addr)
        if rebuilt is not None:
            return rebuilt
        return self.scheme.compute_correction(line)

    # -- batched reads -----------------------------------------------------------------------

    def read_lines(self, addrs) -> BatchReadResult:
        """Batched application read that accounts no errors.

        The recoverability read of the collision sweep: every line's
        outcome and the summed stats equal :meth:`_read_internal` with
        ``count_errors=False`` run address by address (plus ``app_reads``),
        which remains the oracle.  Nothing is counted against the health
        table, so health is frozen for the whole batch and every dirty line
        corrects at once:

        * detection runs as one array program over all requested lines;
        * a dirty line of a faulty bank reads its materialized ECC line
          (step B);
        * every other dirty line rebuilds its correction bits in one
          vectorized step C (:meth:`_reconstruct_corrections`);
        * one :meth:`ECCScheme.correct_lines` call per distinct erasure set
          (:meth:`_known_bad_chips`) corrects them all.

        *addrs* is a sequence of :class:`Address` or a ``(T, 4)`` integer
        array of ``(channel, bank, row, line)``.
        """
        idx = np.asarray(addrs, dtype=np.intp).reshape(-1, 4)
        total = idx.shape[0]
        cs, bs, rs, ls = idx.T
        pairs = self.health.faulty_pairs
        faulty = self._bank_grid((c, b) for c, p in pairs for b in (2 * p, 2 * p + 1))[cs, bs]  # A1
        n_faulty = int(faulty.sum())
        self.stats.app_reads += total
        self.stats.mem_reads += total + n_faulty  # step B: ECC line read in parallel
        self.stats.ecc_line_reads += n_faulty
        lines = self.data[cs, bs, rs, ls]
        stored = self.detection[cs, bs, rs, ls]
        dirty = np.any(self.scheme.compute_detection(lines) != stored, axis=-1)
        data = lines.copy()
        data[dirty] = 0
        ok = ~dirty
        didx = np.flatnonzero(dirty)
        self.stats.detected_errors += didx.size
        dc, db, dr, dl = cs[didx], bs[didx], rs[didx], ls[didx]
        dfaulty = faulty[didx]
        corr = np.zeros((didx.size, self.scheme.correction_bytes_per_line), np.uint8)
        for c, b in set(zip(dc[dfaulty].tolist(), db[dfaulty].tolist())):
            sel = dfaulty & (dc == c) & (db == b)
            corr[sel] = self.materialized[(c, b)][dr[sel], dl[sel]]
        # A line of an excluded (but not faulty) bank has no parity group.
        usable = dfaulty.copy()
        rebuild = np.flatnonzero(~dfaulty & ~self._bank_grid(self.excluded)[dc, db])
        corr[rebuild], usable[rebuild] = self._reconstruct_corrections(
            dc[rebuild], db[rebuild], dr[rebuild], dl[rebuild]
        )
        fix = np.flatnonzero(usable)
        bank_of = dc[fix] * self.geom.banks + db[fix]
        by_erasures: "dict[frozenset, list[int]]" = {}
        for key in np.unique(bank_of).tolist():
            known = frozenset(self._known_bad_chips(*divmod(key, self.geom.banks)))
            by_erasures.setdefault(known, []).append(key)
        for known, keys in by_erasures.items():
            sel = fix[np.isin(bank_of, keys)]
            res = self.scheme.correct_lines(
                self.scheme.split_to_chips(lines[didx[sel]]),
                stored[didx[sel]],
                corr[sel],
                erasures=set(known) or None,
            )
            data[didx[sel]] = res.data
            ok[didx[sel]] = res.ok
        n_ok = int(ok[didx].sum())
        self.stats.corrected += n_ok
        self.stats.uncorrectable += didx.size - n_ok
        return BatchReadResult(data, ok, dirty, dirty & ok, dirty & ~ok)

    def _bank_grid(self, pairs) -> np.ndarray:
        """(channels, banks) bool grid, set at each (channel, bank) of *pairs*."""
        grid = np.zeros((self.geom.channels, self.geom.banks), dtype=bool)
        for channel, bank in pairs:
            grid[channel, bank] = True
        return grid

    def _reconstruct_corrections(self, cs, bs, rs, ls) -> "tuple[np.ndarray, np.ndarray]":
        """Step C for a batch of dirty lines of non-excluded banks.

        Returns ``(corr, ok)``: each line's parity line XOR the correction
        bits of its group's other non-excluded members, and False where
        such a member fails detection too (a second channel faulty at the
        same location).  Stats equal :meth:`_reconstruct_correction` per
        line, which reads members by ascending channel and stops at the
        first dirty one; :meth:`ParityLayout.member_grid` lists them
        rotated, so the reads are counted up to the lowest dirty channel.
        """
        n = self.geom.channels
        mc, mr = self.layout.member_grid(cs, rs)  # (D, N-1)
        mb, ml = bs[:, None], ls[:, None]
        other = (mc != cs[:, None]) & ~self._bank_grid(self.excluded)[mc, mb]
        members = self.data[mc, mb, mr, ml]
        bad = other & np.any(
            self.scheme.compute_detection(members) != self.detection[mc, mb, mr, ml], axis=-1
        )
        first_bad = np.where(bad, mc, n).min(axis=1)
        self.stats.parity_reconstructions += cs.size
        self.stats.mem_reads += cs.size + int((other & (mc <= first_bad[:, None])).sum())
        parity_channel, block = self.layout.group_of(cs, rs)
        corr = self.parity[parity_channel, bs, block, ls]
        bits = self.scheme.compute_correction(members)
        bits[~other] = 0
        corr ^= np.bitwise_xor.reduce(bits, axis=1)
        return corr, ~bad.any(axis=1)

    # -- scrubbing --------------------------------------------------------------------------

    def scrub(self, repair: bool = False) -> int:
        """One full scrub pass; returns the number of lines with detected errors.

        Detection is vectorized over the whole memory (recompute detection
        bits, compare); each dirty line in a non-retired page then takes the
        normal correction path with error accounting, which drives page
        retirement and bank-pair materialization exactly as field faults
        would (Section III-C).

        The per-line work reuses the scrub's own detection pass as a *live
        mismatch map* instead of re-deriving detection state line by line:
        a line (or a parity-group member) is dirty iff its map entry is
        set, because reads never mutate data and the only mid-pass writes
        are repairs, which clear their entry.  This halves the per-dirty-
        line codec work versus :meth:`_scrub_reference` while producing
        identical stats, data, and health transitions (property-tested).

        With ``repair=True``, correctable lines are written back corrected -
        which permanently heals transient upsets; permanent faults re-assert
        themselves via :meth:`reapply_permanent_faults` at the end of the
        pass, as a failed device would.
        """
        self.stats.scrubs += 1
        computed = self.scheme.compute_detection(self.data)
        mismatch = np.any(computed != self.detection, axis=-1)
        self.stats.scrub_lines_checked += int(mismatch.size)
        dirty = 0
        coords = np.argwhere(mismatch)
        i = 0
        while i < len(coords):
            c, b, r, l = (int(v) for v in coords[i])
            if self.health.is_retired(c, b, r):
                i += 1
                continue
            if self.health.is_faulty(c, b):
                # Maximal run of dirty lines in this already-materialized
                # bank (argwhere is lexicographic, so they are consecutive).
                # Error accounting is a no-op for a faulty pair and repairs
                # inside an excluded bank cannot affect any other line, so
                # the whole run corrects as one batched codec call.
                j = i
                run = []
                while j < len(coords) and coords[j][0] == c and coords[j][1] == b:
                    if not self.health.is_retired(c, b, int(coords[j][2])):
                        run.append(j)
                    j += 1
                dirty += len(run)
                self._scrub_faulty_bank_run(c, b, coords[run], repair, mismatch)
                i = j
                continue
            i += 1
            dirty += 1
            addr = Address(c, b, r, l)
            res = self._correct_known_dirty(addr, mismatch)
            if repair and res.data is not None and res.corrected:
                # Restoring the pre-fault bytes keeps the parity groups
                # consistent (they were computed from exactly this data).
                self.stats.mem_writes += 1
                self.data[addr] = res.data
                self.detection[addr] = self.scheme.compute_detection(res.data)
                mismatch[addr] = False  # repaired: clean for later members
        if repair:
            self.reapply_permanent_faults()
        return dirty

    def _scrub_faulty_bank_run(
        self, channel: int, bank: int, coords: np.ndarray, repair: bool, mismatch: np.ndarray
    ) -> None:
        """Correct a run of dirty lines of one materialized bank in batch.

        Behaviourally identical to taking each line through
        :meth:`_correct_known_dirty`: the bank is faulty, so every line
        reads its materialized ECC line (steps A1/B), ``record_error``
        returns ``"faulty"`` without mutating anything, and correction uses
        the stored bits - all independent per line, hence batchable.
        """
        k = len(coords)
        rows, lns = coords[:, 2], coords[:, 3]
        self.stats.mem_reads += 2 * k
        self.stats.ecc_line_reads += k
        self.stats.detected_errors += k
        known = self._known_bad_chips(channel, bank)
        lines = self.data[channel, bank, rows, lns]
        chips = self.scheme.split_to_chips(lines)
        det = self.detection[channel, bank, rows, lns]
        corr = self.materialized[(channel, bank)][rows, lns]
        res = self.scheme.correct_lines(chips, det, corr, erasures=known or None)
        n_ok = int(res.ok.sum())
        self.stats.corrected += n_ok
        self.stats.uncorrectable += k - n_ok
        if repair and n_ok:
            good = res.ok
            self.stats.mem_writes += n_ok
            self.data[channel, bank, rows[good], lns[good]] = res.data[good]
            self.detection[channel, bank, rows[good], lns[good]] = self.scheme.compute_detection(
                res.data[good]
            )
            mismatch[channel, bank, rows[good], lns[good]] = False

    def _scrub_reference(self, repair: bool = False) -> int:
        """The original per-line scrub, retained as the property-test oracle.

        Must stay behaviourally identical to :meth:`scrub` (same return
        value, same stats, same data/health mutations); every dirty line
        re-derives its own and its parity members' detection state through
        :meth:`_read_internal`.
        """
        self.stats.scrubs += 1
        computed = self.scheme.compute_detection(self.data)
        mismatch = np.any(computed != self.detection, axis=-1)
        self.stats.scrub_lines_checked += int(mismatch.size)
        dirty = 0
        for c, b, r, l in np.argwhere(mismatch):
            addr = Address(int(c), int(b), int(r), int(l))
            if self.health.is_retired(addr.channel, addr.bank, addr.row):
                continue
            dirty += 1
            res = self._read_internal(addr)
            if repair and res.data is not None and res.corrected:
                # Restoring the pre-fault bytes keeps the parity groups
                # consistent (they were computed from exactly this data).
                self.stats.mem_writes += 1
                self.data[addr] = res.data
                self.detection[addr] = self.scheme.compute_detection(res.data)
        if repair:
            self.reapply_permanent_faults()
        return dirty

    def _correct_known_dirty(self, addr: Address, mismatch: np.ndarray) -> ReadResult:
        """The scrub's :meth:`_read_internal` for a line already known dirty.

        *mismatch* is the scrub pass's live detection map; it stands in for
        every ``detect_line`` recomputation (the line's own and each parity
        member's), which is exact because ``detect_line(...).error`` is
        defined as stored-vs-recomputed detection inequality for every
        scheme.  Stats and error accounting happen in the same order as the
        reference path, so retirement and materialization fire line by line.
        """
        c, b, r, l = addr
        self.stats.mem_reads += 1
        faulty = self.health.is_faulty(c, b)  # step A1
        if faulty:
            self.stats.mem_reads += 1  # step B
            self.stats.ecc_line_reads += 1
        line = self.data[c, b, r, l]
        det = self.detection[c, b, r, l]
        chips = self.scheme.split_to_chips(line)

        self.stats.detected_errors += 1
        known = self._known_bad_chips(c, b)
        if faulty:
            corr = self.materialized[(c, b)][r, l]
            used_parity = False
        else:
            corr = self._reconstruct_correction_cached(addr, mismatch)  # step C
            used_parity = True
            if corr is None:
                self.stats.uncorrectable += 1
                return ReadResult(data=None, detected=True, uncorrectable=True)

        res = self.scheme.correct_line(chips, det, corr, erasures=known or None)
        self._account_error(c, b, r)
        if res.data is None:
            self.stats.uncorrectable += 1
            return ReadResult(
                data=None,
                detected=True,
                uncorrectable=True,
                used_parity_reconstruction=used_parity,
                used_ecc_line=faulty,
            )
        self.stats.corrected += 1
        return ReadResult(
            data=res.data,
            detected=True,
            corrected=True,
            used_parity_reconstruction=used_parity,
            used_ecc_line=faulty,
        )

    def _reconstruct_correction_cached(
        self, addr: Address, mismatch: np.ndarray
    ) -> "np.ndarray | None":
        """Step C with member dirtiness read from the live mismatch map."""
        c, b, r, l = addr
        if (c, b) in self.excluded:
            return None
        loc = self.layout.location_of(c, b, r)
        self.stats.parity_reconstructions += 1
        self.stats.mem_reads += 1  # the parity line
        acc = self.parity[loc.parity_channel, b, loc.group_slot, l].copy()
        for mc, mrow in loc.members:
            if mc == c and mrow == r:
                continue
            if (mc, b) in self.excluded:
                continue  # removed from parity construction at materialization
            self.stats.mem_reads += 1
            if mismatch[mc, b, mrow, l]:
                return None  # a second channel is faulty at the same location
            acc ^= self.scheme.compute_correction(self.data[mc, b, mrow, l])
        return acc

    # -- verification helpers (tests only) -----------------------------------------------------

    def audit_parity(self) -> int:
        """Count parity groups inconsistent with the stored data.

        For every (parity channel, bank, block), recompute the XOR of the
        member lines' correction bits (skipping excluded banks) and compare
        with the stored parity.  Zero on a healthy machine and after any
        sequence of writes; nonzero entries correspond to regions corrupted
        by injected faults (whose reconstruction is exactly what flags
        them).  This is the core invariant of the design.
        """
        bad = 0
        n = self.geom.channels
        for p in range(n):
            for b in range(self.geom.banks):
                acc = np.zeros_like(self.parity[p, b])
                for c in range(n):
                    if c == p or (c, b) in self.excluded:
                        continue
                    rows = self.data[c, b, self._member_rows(p, c)]
                    acc ^= self.scheme.compute_correction(rows)
                bad += int(np.any(acc != self.parity[p, b], axis=(-1, -2)).sum())
        return bad

    def readable_and_correct(self, addr: Address) -> bool:
        """Does a read return the golden value? (no stats side effects kept)"""
        res = self._read_internal(addr, count_errors=False)
        return res.data is not None and np.array_equal(res.data, self.golden[addr])

    @property
    def effective_capacity_loss_rows(self) -> int:
        """Rows consumed by materialized ECC lines (2R per faulty bank's rows)."""
        return sum(
            MaterializedLayout.ecc_rows_needed(self.geom.rows_per_bank, self.scheme.correction_ratio)
            for _ in self.materialized
        )
