"""Last-level cache model with ECC-aware line kinds.

An 8 MB, 16-way, write-back, write-allocate LLC (Table I) whose lines carry
a *kind*: ordinary data, an ECC line (LOT-ECC's GEC lines), or a XOR line
(the delta-compacting cachelines of Multi-ECC and ECC Parity, Section
III-D).  ECC-related lines share the insertion and replacement policy with
data lines, exactly as the paper models them (Section IV-C); what differs is
their fill/eviction traffic, which the simulation layer charges per kind.

Implementation note: this class is the oracle the compiled epoch core
(:mod:`repro.cpu.epochnative`) is held to, and the model every Python run
uses.  In the interpreter a flat dict (address -> flat slot index) with
flat Python lists for tag/LRU/dirty/kind state is an order of magnitude
faster than per-set NumPy compares, whose per-call overhead dwarfs
16-element work, so ``access`` resolves the dominant case, a hit, from
one dict probe (no set arithmetic, no victim scan, no allocation).  The
dict is this model's choice, not part of the semantics: the compiled core
keeps no map and scans the set's filled ways for the tag, keeping the
first least-recently-used way as the victim in the same pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LineKind(enum.IntEnum):
    """What a cached line holds (drives eviction traffic)."""

    DATA = 0
    ECC = 1  #: actual ECC correction bits (LOT-ECC GEC lines); evict = 1 write
    XOR = 2  #: compacted parity delta; evict = 1 read + 1 write


@dataclass
class Eviction:
    """A victim pushed out by an insertion."""

    addr: int
    kind: LineKind
    dirty: bool


@dataclass
class LLCStats:
    hits: int = 0
    misses: int = 0
    evictions_dirty: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class LLC:
    """Set-associative write-back cache over line-granularity addresses."""

    def __init__(self, size_bytes: int = 8 << 20, assoc: int = 16, line_size: int = 64):
        self.line_size = line_size
        self.assoc = assoc
        self.n_sets = size_bytes // (assoc * line_size)
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("set count must be a power of two")
        slots = self.n_sets * assoc
        self._set_mask = self.n_sets - 1
        # Flat slot-indexed state (slot = set * assoc + way): one indexing
        # level instead of two on every touch.
        self._tags = [-1] * slots
        self._lru = [0] * slots
        self._dirty = [False] * slots
        self._kind: "list[LineKind]" = [LineKind.DATA] * slots
        self._where: "dict[int, int]" = {}  # addr -> flat slot index
        # Ways fill strictly left to right (victims reuse their slot), so a
        # set's occupancy count locates the next free way without scanning.
        self._fill = [0] * self.n_sets
        self._clock = 0
        self._hits = 0
        self._misses = 0
        self._evictions_dirty = 0
        #: Pristine copies of the flat arrays, built lazily on first reset
        #: so repeated resets slice-assign instead of reallocating.
        self._reset_templates: "tuple | None" = None
        #: Set by a run of the compiled core that started from this cache:
        #: the slot state then lives in the core until it is read back
        #: (``repro.cpu.epochnative.readback``) or the cache is reset.
        self._native = None

    def reset(self) -> None:
        """Return to the post-construction state, reusing the flat arrays.

        Lets an evaluation-matrix cell recycle one LLC across the
        ``SimSystem`` instances it builds instead of reallocating the
        slot arrays per config.  Any access leaves a line in ``_where``,
        so an empty map means the slot lists are still pristine and only
        the counters reset (a compiled-core run counts but leaves the
        lists as it found them).
        """
        if self._where:
            tmpl = self._reset_templates
            if tmpl is None:
                slots = self.n_sets * self.assoc
                tmpl = self._reset_templates = (
                    [-1] * slots,
                    [0] * slots,
                    [False] * slots,
                    [LineKind.DATA] * slots,
                    [0] * self.n_sets,
                )
            self._tags[:] = tmpl[0]
            self._lru[:] = tmpl[1]
            self._dirty[:] = tmpl[2]
            self._kind[:] = tmpl[3]
            self._fill[:] = tmpl[4]
            self._where.clear()
        self._native = None
        self._clock = 0
        self._hits = 0
        self._misses = 0
        self._evictions_dirty = 0

    @property
    def stats(self) -> LLCStats:
        """Counter snapshot (kept as plain ints internally for hot-path speed)."""
        return LLCStats(
            hits=self._hits, misses=self._misses, evictions_dirty=self._evictions_dirty
        )

    def probe(self, line_addr: int) -> bool:
        """Presence check without any state change."""
        return line_addr in self._where

    def access(
        self,
        line_addr: int,
        kind: LineKind = LineKind.DATA,
        make_dirty: bool = False,
    ) -> "tuple[bool, Eviction | None]":
        """Reference a line; allocate on miss.

        Returns ``(hit, eviction)``; *eviction* is the displaced line (only
        meaningful traffic-wise when dirty, but always reported).
        """
        slot = self._where.get(line_addr)
        if slot is not None:
            # Hit fast path: the dict probe resolves the slot directly.
            self._clock = clock = self._clock + 1
            self._lru[slot] = clock
            if make_dirty:
                self._dirty[slot] = True
            self._hits += 1
            return True, None

        self._clock = clock = self._clock + 1
        self._misses += 1
        assoc = self.assoc
        s = line_addr & self._set_mask
        base = s * assoc
        tags = self._tags
        evicted = None
        filled = self._fill[s]
        if filled < assoc:  # free way available: no victim scan, no eviction
            victim = base + filled
            self._fill[s] = filled + 1
        else:
            lru = self._lru
            victim = base
            best = lru[base]
            for i in range(base + 1, base + assoc):
                v = lru[i]
                if v < best:
                    best = v
                    victim = i
            old = tags[victim]
            evicted = Eviction(addr=old, kind=self._kind[victim], dirty=self._dirty[victim])
            if evicted.dirty:
                self._evictions_dirty += 1
            del self._where[old]
        tags[victim] = line_addr
        self._lru[victim] = clock
        self._dirty[victim] = make_dirty
        self._kind[victim] = kind
        self._where[line_addr] = victim
        return False, evicted

    def flush_dirty(self) -> "list[Eviction]":
        """Drain every dirty line (end-of-run accounting helper)."""
        out = []
        dirty = self._dirty
        for slot in range(len(dirty)):
            if dirty[slot]:
                out.append(Eviction(addr=self._tags[slot], kind=self._kind[slot], dirty=True))
                dirty[slot] = False
        return out
