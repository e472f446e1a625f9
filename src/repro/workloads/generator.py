"""Reference-stream generators for the synthetic workloads.

Produces an infinite stream of ``(instruction_gap, line_address, is_write)``
tuples per core.  Addresses follow a run-and-jump model: sequential runs of
geometric mean length ``seq_run`` (spatial locality), with jumps landing in
a small hot region with probability ``hot_prob`` (temporal locality) or
uniformly in the footprint otherwise.  Gaps are geometric with mean
``1000 / apki`` instructions.

SPEC workloads are multiprogrammed: each of the 8 instances gets a disjoint
address-space slice (and the paper's 10M-instruction skews are emulated by
independent RNG streams).  PARSEC workloads are multithreaded: all cores
share one footprint and one hot region, so they genuinely share LLC lines.

Items come from read-only blocks of NumPy draws, 4096 per core at a time.
Each block is drawn once and scanned once (the run-and-jump recurrence
resolved to absolute addresses) when its first reader reaches it.  A
reference stream depends only on the workload, seed, scale and core count,
so the blocks of integer-seeded streams sit in a one-entry per-process
memo that every later stream with the same key replays: the eight
configurations of a sweep workload draw its trace once.  The memo holds
one workload's blocks; ``parallel.run_cells`` drops it when a sweep starts
and when it ends.
"""

from __future__ import annotations

import numbers
from typing import Iterator

import numpy as np

from repro.util.rng import make_rng
from repro.workloads.profiles import WorkloadProfile

#: Line-address stride between multiprogrammed instances (1 TiB apart).
INSTANCE_STRIDE_LINES = (1 << 40) // 64

#: Line-address base of the shared hot arena used for Section VI-A hot-page
#: placement experiments: above every instance's footprint, below the ECC
#: region (1 << 40 lines).
HOT_ARENA_BASE_LINE = 1 << 38


#: Items per block: one batch of NumPy draws per core.
BLOCK_ITEMS = 4096

#: Blocks one memoized per-core source may draw while the memo still holds
#: its first block (16 x 4096 items, about 2.8 MB per core).  A paper cell
#: draws two or three blocks per core; a run that goes past the cap lets
#: the memo go, so its streams again keep only the blocks they still need.
MAX_SHARED_BLOCKS = 16

#: The one memo entry: ``(key, sources, roots)`` of the last integer-seeded
#: :func:`make_core_traces` call (see :func:`drop_shared_blocks`).
_SHARED: "tuple[tuple, list[_BlockSource], list[_Block]] | None" = None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Block:
    """One block of one core's stream, shared read-only by every stream of
    its key: the raw draws ``__next__`` walks, the ``take_batch`` scan as
    absolute addresses (before the line-size division), and the
    run-and-jump state ``(pos, region_base, region_span)`` after its last
    item.  ``next`` links the following block once some stream drew it."""

    __slots__ = ("gaps", "writes", "jumps", "hot", "targets_hot", "targets_all",
                 "addrs", "end", "next", "_lines")

    def __init__(self, draws: "tuple[np.ndarray, ...]", addrs: np.ndarray, end: "tuple[int, int, int]"):
        (self.gaps, self.writes, self.jumps, self.hot,
         self.targets_hot, self.targets_all) = (_frozen(a) for a in draws)
        self.addrs = _frozen(addrs)
        self.end = end
        self.next: "_Block | None" = None
        self._lines: "dict[int, np.ndarray]" = {}

    def lines(self, lpb: int) -> np.ndarray:
        """Block-granular addresses for *lpb* 64 B lines per LLC block."""
        if lpb == 1:
            return self.addrs
        got = self._lines.get(lpb)
        if got is None:
            got = self._lines[lpb] = _frozen(self.addrs // lpb)
        return got


class _BlockSource:
    """Draws one core's blocks, in order, from that core's generator.

    It holds only the last block drawn (the tail), never the first, so
    blocks no stream and no memo entry can reach are freed.
    """

    def __init__(self, profile: WorkloadProfile, rng: np.random.Generator, base_line: int,
                 footprint_scale: float, hot_base: "int | None"):
        footprint = max(int(profile.footprint_lines / footprint_scale), 64)
        self.footprint = footprint
        self.hot_lines = max(int(footprint * profile.hot_frac), 16)
        mean_gap = 1000.0 / profile.apki
        self._p_gap = min(1.0, 1.0 / mean_gap)
        self._write_frac = profile.write_frac
        self._p_jump = 1.0 / profile.seq_run
        self._hot_prob = profile.hot_prob
        self.base = base_line
        self.hot_base = hot_base
        self._rng = rng
        self._drawn = 0
        empty = np.zeros(0, dtype=np.int64)
        #: Sentinel before block 0: its ``end`` is the stream's start state.
        self.tail = _Block((empty,) * 6, empty, (int(rng.integers(0, footprint)), base_line, footprint))

    def draw(self) -> _Block:
        """Draw the block after the tail, link it and make it the tail."""
        rng = self._rng
        batch = BLOCK_ITEMS
        draws = (
            rng.geometric(self._p_gap, size=batch),
            rng.random(size=batch) < self._write_frac,
            rng.random(size=batch) < self._p_jump,
            rng.random(size=batch) < self._hot_prob,
            rng.integers(0, self.hot_lines, size=batch),
            rng.integers(0, self.footprint, size=batch),
        )
        blk = _Block(draws, *self._scan(*draws[2:], self.tail.end))
        self.tail.next = blk
        self.tail = blk
        self._drawn += 1
        if self._drawn > MAX_SHARED_BLOCKS and _SHARED is not None and any(s is self for s in _SHARED[1]):
            drop_shared_blocks()
        return blk

    def _scan(self, jump, hot, targets_hot, targets_all, carry):
        """Resolve the position recurrence over a whole block.

        ``pos+1 mod span`` between jumps is a segmented ramp, so each
        segment (the carry-in state, then one per jump) is resolved with
        whole-array arithmetic.  Returns ``(addrs, end_state)``.
        """
        n = len(jump)
        jpos = np.flatnonzero(jump)
        is_hot = hot[jpos]
        jstart = np.where(is_hot, targets_hot[jpos], targets_all[jpos])
        if self.hot_base is not None:
            jbase = np.where(is_hot, self.hot_base, self.base)
            jspan = np.where(is_hot, self.hot_lines, self.footprint)
        else:
            jbase = np.full(len(jpos), self.base, dtype=np.int64)
            jspan = np.full(len(jpos), self.footprint, dtype=np.int64)
        # Segment 0 carries the pre-block position (its "jump" sits at -1,
        # so the first non-jump item advances the carry position by one).
        pos0, base0, span0 = carry
        starts = np.concatenate(([pos0], jstart)).astype(np.int64)
        bases = np.concatenate(([base0], jbase)).astype(np.int64)
        spans = np.concatenate(([span0], jspan)).astype(np.int64)
        seg_at = np.concatenate(([-1], jpos)).astype(np.int64)
        seg = np.cumsum(jump)
        offset = np.arange(n, dtype=np.int64) - seg_at[seg]
        pos = (starts[seg] + offset) % spans[seg]
        last = int(seg[-1])
        return bases[seg] + pos, (int(pos[-1]), int(bases[last]), int(spans[last]))


class TraceStream:
    """Reference stream: iterator of ``(gap, line_addr, is_write)`` forever.

    The per-item protocol (``next()``) serves the event-driven simulation
    kernel and is the reference: a state machine over the block's raw
    draws.  :meth:`take_batch` hands the epoch-batched kernel the remainder
    of the current block as whole arrays, read from the block's stored
    segmented scan.  Both paths walk the same blocks in the same order and
    produce identical items, so a simulation is bit-identical regardless
    of which kernel (or mix) pulls the trace.

    Streams of one key share their blocks (see :func:`make_core_traces`);
    each stream keeps its own position, so two live streams consume
    independently.

    When the source has a *hot_base*, the hot region lives at that separate
    address (an OS that segregated hot pages); sequential runs continue
    inside whichever region the last jump landed in.
    """

    def __init__(self, source: _BlockSource, root: _Block, lines_per_llc_block: int):
        self._src = source
        self._blk = root
        self._footprint = source.footprint
        self._hot_lines = source.hot_lines
        self._base = source.base
        self._hot_base = source.hot_base
        self._lpb = lines_per_llc_block
        self._pos, self._region_base, self._region_span = root.end
        self._i = 0
        self._n = 0

    def _draw(self) -> None:
        """Move to the next block, drawing it when no stream has yet."""
        blk = self._blk.next
        if blk is None:
            blk = self._src.draw()
        self._blk = blk
        self._gaps = blk.gaps
        self._writes = blk.writes
        self._jumps = blk.jumps
        self._hot = blk.hot
        self._targets_hot = blk.targets_hot
        self._targets_all = blk.targets_all
        self._i = 0
        self._n = len(blk.gaps)

    def __iter__(self) -> "TraceStream":
        return self

    def __next__(self) -> "tuple[int, int, bool]":
        if self._i >= self._n:
            self._draw()
        i = self._i
        self._i = i + 1
        pos = self._pos
        if self._jumps[i]:
            hot_sep = self._hot_base is not None
            if self._hot[i]:
                pos = int(self._targets_hot[i])
                self._region_base = self._hot_base if hot_sep else self._base
                self._region_span = self._hot_lines if hot_sep else self._footprint
            else:
                pos = int(self._targets_all[i])
                self._region_base = self._base
                self._region_span = self._footprint
        else:
            pos += 1
            if pos >= self._region_span:
                pos = 0
        self._pos = pos
        # Addresses are LLC-block granular: with 128B blocks two adjacent
        # 64B references coalesce, which is the large-line spatial benefit.
        line = (self._region_base + pos) // self._lpb
        return int(self._gaps[i]), int(line), bool(self._writes[i])

    def take_batch(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Consume the rest of the current block as ``(gaps, lines, writes)``.

        Moves to the next block when the current one is exhausted; returns
        read-only int64/int64/bool views covering exactly the items
        ``next()`` would have produced.  Nothing is computed here: the
        block's scan ran once, when the block was drawn.
        """
        if self._i >= self._n:
            self._draw()
        i0 = self._i
        self._i = self._n
        blk = self._blk
        self._pos, self._region_base, self._region_span = blk.end
        return blk.gaps[i0:], blk.lines(self._lpb)[i0:], blk.writes[i0:]


def drop_shared_blocks() -> None:
    """Forget the memo entry; live streams keep the blocks they reach.

    :func:`repro.experiments.parallel.run_cells` calls this when a sweep
    starts and when it ends, so no sweep reads blocks drawn before it.
    """
    global _SHARED
    _SHARED = None


def make_core_traces(
    profile: WorkloadProfile,
    cores: int = 8,
    llc_block_bytes: int = 64,
    seed: "int | None" = 0,
    footprint_scale: float = 1.0,
    hot_arena: bool = False,
) -> "list[Iterator]":
    """Build one reference stream per core for *profile*.

    ``llc_block_bytes`` is the memory-system line size (64 or 128); the
    generator emits block-granular addresses so the LLC model sees coalesced
    references for large-line systems.  ``footprint_scale`` shrinks working
    sets in lockstep with a shrunken LLC (the standard cache-scaling trick
    that keeps miss rates while cutting warm-up cost).

    For an integer *seed* the per-core blocks are memoized (one entry per
    process): a later call with the same ``(profile, seed,
    footprint_scale, cores, hot_arena)`` replays the blocks already
    drawn, and whichever stream first runs past them draws the next from
    the shared generator.  No draw depends on the line size, so the eight
    configurations of a sweep workload share one set of blocks and the
    streams stay bit-identical to private ones.  ``seed=None`` (or a
    Generator) never shares.
    """
    global _SHARED
    lines_per_block = max(1, llc_block_bytes // 64)
    key = (profile, seed, footprint_scale, cores, hot_arena)
    shareable = isinstance(seed, numbers.Integral)
    if shareable and _SHARED is not None and _SHARED[0] == key:
        _, sources, roots = _SHARED
    else:
        parent = make_rng(seed)
        children = parent.spawn(cores)
        footprint = max(int(profile.footprint_lines / footprint_scale), 64)
        hot_span = max(int(footprint * profile.hot_frac), 16)
        sources = []
        for cid in range(cores):
            if profile.suite == "parsec":
                base = 0  # shared address space
                hot_base = HOT_ARENA_BASE_LINE if hot_arena else None
            else:
                base = cid * INSTANCE_STRIDE_LINES
                hot_base = HOT_ARENA_BASE_LINE + cid * hot_span if hot_arena else None
            sources.append(_BlockSource(profile, children[cid], base, footprint_scale, hot_base))
        roots = [src.tail for src in sources]
        if shareable:
            _SHARED = (key, sources, roots)
    return [TraceStream(src, root, lines_per_block) for src, root in zip(sources, roots)]
