"""Trace-driven multi-core timing simulation (the GEM5 stand-in).

Eight cores replay memory-reference traces through the shared LLC and the
DDR3 memory system.  Loads that miss block their core until the line
returns; stores post through a bounded write buffer; dirty evictions write
back and trigger the scheme's ECC-state updates (ECC lines, XOR lines) with
the exact fill/eviction traffic rules of Section IV-C.

The model deliberately omits core microarchitecture below the LLC-access
stream: every metric the paper reports (memory EPI, accesses per
instruction, relative performance) is a function of the LLC-filtered
request stream and the DRAM system's response to it.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from repro import obs
from repro.obs import trace
from repro.cpu.degraded import DegradedMode
from repro.util import envcfg
from repro.cpu.ecc_traffic import EccTrafficModel
from repro.cpu.llc import LLC, Eviction, LineKind
from repro.dram.power import EnergyBreakdown
from repro.dram.system import MemorySystem
from repro.ecc.base import EccTraffic

#: A trace element: (instruction gap since last access, line address, is_write).
TraceItem = "tuple[int, int, bool]"

#: Memory-request tag codes.  Requests carry ``code | (core_id << TAG_SHIFT)``
#: as a single small int: the completion handler and the counter dispatch in
#: the enqueue hot path decode it with one mask/shift instead of the old
#: per-request ``isinstance(tag, tuple)`` + string compares.
TAG_SHIFT = 4
TAG_FILL = 1  #: blocking demand fill; completion wakes the stalled core
TAG_POSTFILL = 2  #: write-allocate fill posted through the write buffer
TAG_POSTLOAD = 3  #: non-blocking load fill within the MLP window
TAG_WB = 4  #: dirty data write-back
TAG_ECCWB = 5  #: LOT-ECC GEC-line eviction write
TAG_ECCRMW = 6  #: parity/XOR-line read-modify-write half
TAG_ECCFILL = 7  #: ECC-line (or step-E old-data) memory read
TAG_SCRUB = 8  #: patrol-scrub read

_TAG_MASK = (1 << TAG_SHIFT) - 1

#: Tags whose requests are latency-critical demand traffic in the channel
#: scheduler (everything else is deferrable background work).
_DEMAND_TAGS = frozenset({TAG_FILL, TAG_POSTFILL})

#: Event kinds for the simulation heap (ints compare faster than strings).
EV_CORE = 0
EV_ACCESS = 1
EV_BURST = 2
EV_SCRUB = 3
EV_CHAN = 4


@dataclass(frozen=True)
class ScrubConfig:
    """Hardware scrubber traffic: one patrol read every *interval* cycles.

    The scrubber sweeps *region_lines* round-robin; patrol reads bypass the
    LLC (scrubbers do not install lines) and travel as background requests.
    The paper's Section VI-C trades scrub rate against the multi-channel
    fault window; this adds the bandwidth/energy side of that trade.
    """

    interval_cycles: int
    region_lines: int


@dataclass
class CoreState:
    """Per-core progress and blocking state."""

    cid: int
    trace: Iterator
    instructions: int = 0
    outstanding_posted: int = 0
    outstanding_loads: int = 0
    waiting: bool = False
    done: bool = False
    #: The reference scheduled to issue at the pending "access" event.
    pending: "tuple[int, bool] | None" = None


@dataclass
class AccessCounters:
    """Memory-request tallies by category (64B-access units tracked in DRAM)."""

    data_reads: int = 0
    data_writes: int = 0
    ecc_reads: int = 0
    ecc_writes: int = 0

    @property
    def total(self) -> int:
        return self.data_reads + self.data_writes + self.ecc_reads + self.ecc_writes


@dataclass
class SimResult:
    """Measured-phase outcome of one simulation run."""

    instructions: int
    cycles: int
    energy: EnergyBreakdown
    accesses_64b: int
    counters: AccessCounters
    llc_hits: int
    llc_misses: int

    # Derived metrics guard their denominators: a zero-instruction run (a
    # warmup-only budget, or a trace shorter than the warm-up) yields 0.0
    # for every rate instead of raising or reporting the warm-up residue
    # as if it were one instruction's worth.

    @property
    def epi_nj(self) -> float:
        """Memory energy per instruction, nJ."""
        return self.energy.total / self.instructions if self.instructions else 0.0

    @property
    def dynamic_epi_nj(self) -> float:
        return self.energy.dynamic / self.instructions if self.instructions else 0.0

    @property
    def background_epi_nj(self) -> float:
        if not self.instructions:
            return 0.0
        return (self.energy.background + self.energy.refresh) / self.instructions

    @property
    def accesses_per_instruction(self) -> float:
        """Fig. 16's metric: 64B accesses per instruction."""
        return self.accesses_64b / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def bandwidth_gbps(self) -> float:
        """Measured data bandwidth in GB/s (1 cycle = 1 ns)."""
        return self.accesses_64b * 64 / self.cycles if self.cycles else 0.0


class SimSystem:
    """Co-simulation of cores, LLC, ECC-state traffic, and DRAM."""

    HIT_LATENCY = 10  # L2 latency, Table I
    IPC = 2.0  # issue width, Table I
    POSTED_CAP = 8  # per-core write-buffer entries

    def __init__(
        self,
        mem: MemorySystem,
        traces: "list[Iterator]",
        ecc_model: EccTrafficModel,
        llc: "LLC | None" = None,
        degraded: "DegradedMode | None" = None,
        scrub: "ScrubConfig | None" = None,
        load_mlp: int = 1,
    ):
        #: Outstanding load misses each core may overlap.  1 models a
        #: blocking core (the default); >1 approximates the ROB/LSQ-driven
        #: memory-level parallelism of the paper's out-of-order cores
        #: (Table I: 32-entry load queue) - the core only stalls when its
        #: miss window fills.
        self.load_mlp = load_mlp
        self.mem = mem
        self.llc = llc or LLC(line_size=mem.config.line_size)
        self.ecc_model = ecc_model
        self.degraded = degraded
        self.scrub = scrub
        self._scrub_cursor = 0
        self.scrub_reads = 0
        self.cores = [CoreState(cid=i, trace=t) for i, t in enumerate(traces)]
        self.counters = AccessCounters()
        self._heap: "list[tuple[int, int, int, int]]" = []
        self._seq = 0
        self.now = 0
        #: Optional IPC timeline: (window_cycles, [instructions per window]).
        self.ipc_window: "int | None" = None
        self._window_instr: "list[int]" = []
        #: One-shot background bursts: (cycle, n_reads, n_writes, base_addr).
        self._bursts: "list[tuple[int, int, int, int]]" = []
        #: Set by a run of the compiled core until its full state is read
        #: back (``epochnative.readback``); the object model is stale then.
        self._native = None
        #: Set by :meth:`run`, which refuses a second call.
        self._ran = False
        #: Rank energy counters at the start of the measured phase, set by
        #: :meth:`run` (``[channel][rank]``, as ``MemorySystem.energy_since``
        #: takes them): with the final counters, what a configuration that
        #: differs only in chips needs to integrate its own energy.
        self.energy_baseline: "list | None" = None

    def schedule_burst(self, cycle: int, reads: int, writes: int, base_addr: int = 0) -> None:
        """Inject a one-shot background traffic burst at *cycle*.

        Models maintenance storms such as materializing a bank pair's ECC
        correction bits (Section III-B: read every line of the pair, write
        the ECC lines) without simulating the bytes.
        """
        self._bursts.append((cycle, reads, writes, base_addr))

    # -- event helpers -----------------------------------------------------------------

    def _push(self, time: int, kind: int, payload: int) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    @property
    def events_scheduled(self) -> int:
        """Total events pushed onto the simulation heap (throughput metric)."""
        return self._seq

    def _enqueue_mem(self, line_addr: int, is_write: bool, tag: int) -> None:
        code = tag & _TAG_MASK
        ch = self.mem.enqueue(
            line_addr, is_write, self.now, tag, demand=code in _DEMAND_TAGS
        )
        counters = self.counters
        if is_write:
            if code == TAG_ECCWB or code == TAG_ECCRMW:
                counters.ecc_writes += 1
            else:
                counters.data_writes += 1
        else:
            if code == TAG_ECCFILL or code == TAG_ECCRMW:
                counters.ecc_reads += 1
            else:
                counters.data_reads += 1
        self._push(self.now, EV_CHAN, ch)

    # -- write-back / ECC-state cascade ----------------------------------------------------

    def _handle_eviction_list(self, evictions: "list[Eviction]") -> None:
        for ev in evictions:
            self._handle_eviction(ev)

    def _handle_eviction(self, ev: "Eviction | None") -> None:
        """Process an LLC victim, cascading through ECC-state insertions."""
        stack = [ev] if ev is not None else []
        guard = 0
        while stack:
            guard += 1
            if guard > 64:  # a cascade this deep indicates a modelling bug
                raise RuntimeError("runaway eviction cascade")
            victim = stack.pop()
            if not victim.dirty:
                continue
            if victim.kind == LineKind.DATA:
                self._enqueue_mem(victim.addr, True, TAG_WB)
                if self._bank_faulty(victim.addr):
                    # Step D: update the materialized ECC line instead of
                    # the parity/ECC state.
                    stack.extend(self._touch_materialized(victim.addr, dirty=True))
                else:
                    stack.extend(self._update_ecc_state(victim.addr))
            elif victim.kind == LineKind.ECC:
                # LOT-ECC GEC line: recomputable from the written data, so
                # eviction costs exactly one memory write (Section IV-C).
                self._enqueue_mem(victim.addr, True, TAG_ECCWB)
            else:  # XOR line: apply the compacted delta to the parity line
                self._enqueue_mem(victim.addr, False, TAG_ECCRMW)
                self._enqueue_mem(victim.addr, True, TAG_ECCRMW)

    def _update_ecc_state(self, data_addr: int) -> "list[Eviction]":
        """Touch the ECC/XOR cacheline covering a written-back data line.

        Misses insert without a memory fill: ECC lines are recomputed from
        the data, XOR lines start as a zero delta.  With the Section III-D
        caching disabled, the update instead hits memory immediately.
        """
        if self.ecc_model.kind == EccTraffic.INLINE:
            return []
        addr = self.ecc_model.ecc_addr(data_addr)
        if not self.ecc_model.cache_ecc_lines:
            if self.ecc_model.kind == EccTraffic.XOR_LINE:
                # Unoptimized step E: read old line value, then RMW the
                # parity line (3 additional accesses, Section III-C).
                self._enqueue_mem(data_addr, False, TAG_ECCFILL)
            self._enqueue_mem(addr, False, TAG_ECCRMW)
            self._enqueue_mem(addr, True, TAG_ECCRMW)
            return []
        kind = LineKind.ECC if self.ecc_model.kind == EccTraffic.ECC_LINE else LineKind.XOR
        _, ev = self.llc.access(addr, kind=kind, make_dirty=True)
        return [ev] if ev is not None else []

    # -- degraded-mode paths (faulty bank pairs, Section III-B) ----------------------------

    def _bank_faulty(self, line_addr: int) -> bool:
        """Step A1/A2 bank-health lookup for the timing plane."""
        if self.degraded is None:
            return False
        c = self.mem.mapping.map_line(line_addr)
        return self.degraded.is_faulty(c.channel, c.rank, c.bank)

    def _touch_materialized(self, line_addr: int, dirty: bool) -> "list[Eviction]":
        """Access the materialized-ECC line for a faulty-bank data line.

        Unlike parity XOR lines, correction bits must be fetched from
        memory on an LLC miss (they cannot be recomputed locally for
        reads, and partial updates need the rest of the line).
        """
        addr = self.degraded.ecc_addr(line_addr)
        hit, ev = self.llc.access(addr, kind=LineKind.ECC, make_dirty=dirty)
        if not hit:
            self._enqueue_mem(addr, False, TAG_ECCFILL)
        return [ev] if ev is not None else []

    # -- core stepping --------------------------------------------------------------------

    def _step_core(self, core: CoreState) -> None:
        """Draw the core's next reference and schedule its LLC access.

        The instruction gap executes first (gap / IPC cycles); the access
        itself is handled at the scheduled "access" event so that memory
        requests enter the queue at the right cycle.
        """
        try:
            gap, addr, is_write = next(core.trace)
        except StopIteration:
            core.done = True
            return
        core.instructions += gap
        self.total_instructions += gap
        if self.ipc_window:
            idx = self.now // self.ipc_window
            while len(self._window_instr) <= idx:
                self._window_instr.append(0)
            self._window_instr[idx] += gap
        t_access = self.now + max(1, math.ceil(gap / self.IPC))
        core.pending = (addr, is_write)
        self._push(t_access, EV_ACCESS, core.cid)

    def _issue_access(self, core: CoreState) -> None:
        """Perform the scheduled LLC access at the current time."""
        addr, is_write = core.pending
        core.pending = None
        hit, ev = self.llc.access(addr, LineKind.DATA, make_dirty=is_write)
        if ev is not None:
            self._handle_eviction(ev)
        if hit:
            self._push(self.now + self.HIT_LATENCY, EV_CORE, core.cid)
            return
        if self._bank_faulty(addr):
            # Step B: the ECC line is read alongside every memory read to a
            # faulty bank (LLC-cached, so sharers hit on chip).
            self._handle_eviction_list(self._touch_materialized(addr, dirty=False))
        if is_write and core.outstanding_posted < self.POSTED_CAP:
            # Write-allocate fill posted through the write buffer.
            core.outstanding_posted += 1
            self._enqueue_mem(addr, False, TAG_POSTFILL | core.cid << TAG_SHIFT)
            self._push(self.now + self.HIT_LATENCY, EV_CORE, core.cid)
        elif not is_write and core.outstanding_loads + 1 < self.load_mlp:
            # Non-blocking load: overlap within the core's miss window.
            core.outstanding_loads += 1
            self._enqueue_mem(addr, False, TAG_POSTLOAD | core.cid << TAG_SHIFT)
            self._push(self.now + self.HIT_LATENCY, EV_CORE, core.cid)
        else:
            core.waiting = True
            self._enqueue_mem(addr, False, TAG_FILL | core.cid << TAG_SHIFT)

    # -- main loop ----------------------------------------------------------------------------

    def run(
        self,
        warmup_instructions: int,
        measure_instructions: int,
        kernel: "str | None" = None,
    ) -> SimResult:
        """Simulate until the instruction budget is spent; return measured stats.

        *kernel* selects the execution engine: ``"epoch"`` (the compiled
        kernel in :mod:`repro.cpu.epochnative`, the default) or
        ``"event"`` (the event-driven reference loop).  Unset, the
        ``REPRO_SIM_KERNEL`` knob decides.  The two implementations are
        bit-identical; the epoch kernel falls back to the reference loop
        when no compiler is available or the system is outside its scope
        (``epochnative.eligible``: e.g. a populated event heap from an
        interrupted run).

        A system runs once: a second call raises :class:`RuntimeError`
        whichever kernels the two calls ask for, because neither kernel
        can resume a finished run.  Build a new system to run again.
        """
        if self._ran:
            raise RuntimeError("SimSystem.run() is single-shot; build a new system to run again")
        self._ran = True
        kernel = envcfg.sim_kernel(kernel)
        with trace.span("sim.run", "sim", kernel=kernel):
            if kernel == "epoch":
                from repro.cpu import epochnative  # lazy: epochnative imports this module

                if epochnative.eligible(self) and epochnative.available():
                    with trace.span("sim.epoch", "sim"):
                        return epochnative.run_native(
                            self, warmup_instructions, measure_instructions
                        )
            return self._run_reference(warmup_instructions, measure_instructions)

    def _run_reference(self, warmup_instructions: int, measure_instructions: int) -> SimResult:
        """The event-driven oracle loop (``REPRO_SIM_KERNEL=event``).

        With ``REPRO_OBS`` armed, one ``sim.run`` event (events/sec,
        LLC hit/miss, channel fast-pick rate) is emitted per run — the
        gate is checked once here, so the event loop itself carries no
        telemetry cost.
        """
        obs_armed = obs.enabled()
        wall0 = perf_counter() if obs_armed else 0.0
        seq0 = self._seq
        self.total_instructions = 0
        target = warmup_instructions + measure_instructions
        for core in self.cores:
            self._push(0, EV_CORE, core.cid)
        if self.scrub is not None:
            self._push(self.scrub.interval_cycles, EV_SCRUB, 0)
        for i, (cycle, _, _, _) in enumerate(self._bursts):
            self._push(cycle, EV_BURST, i)

        snap = None
        snap_state = None
        end_state = None

        heap = self._heap
        heappop = heapq.heappop
        cores = self.cores
        channels = self.mem.channels
        while heap:
            time, _, kind, payload = heappop(heap)
            # Events are never scheduled in the past (every producer pushes at
            # >= self.now), so heap pops are monotone and `now` needs no max().
            assert time >= self.now, "non-monotonic event pop"
            self.now = time

            if snap is None and self.total_instructions >= warmup_instructions:
                snap = self.mem.snapshot_counters(time)
                snap_state = self._state_snapshot()

            if self.total_instructions >= target:
                end_state = self._state_snapshot()
                break

            # Dispatch most-frequent kind first: channel wakeups outnumber
            # every other event class roughly two to one.
            if kind == EV_CHAN:
                done, nxt = channels[payload].advance(time)
                for req in done:
                    self._on_complete(req)
                if nxt is not None:
                    self._push(nxt, EV_CHAN, payload)
            elif kind == EV_CORE:
                core = cores[payload]
                if not core.done:
                    self._step_core(core)
            elif kind == EV_ACCESS:
                self._issue_access(cores[payload])
            elif kind == EV_BURST:
                _, reads, writes, base = self._bursts[payload]
                for i in range(reads):
                    self._enqueue_mem(base + i, False, TAG_SCRUB)
                for i in range(writes):
                    self._enqueue_mem(base + i, True, TAG_WB)
            elif kind == EV_SCRUB:
                # Stop patrolling once every core has retired its trace, or
                # the self-rescheduling event would keep the heap alive.
                if not all(c.done for c in self.cores):
                    addr = self._scrub_cursor % self.scrub.region_lines
                    self._scrub_cursor += 1
                    self.scrub_reads += 1
                    self._enqueue_mem(addr, False, TAG_SCRUB)
                    self._push(self.now + self.scrub.interval_cycles, EV_SCRUB, 0)

        if snap is None:  # trace shorter than warm-up: measure everything
            snap = self.mem.snapshot_counters(0)
            snap_state = dict(instructions=0, cycles=0, accesses=0, hits=0, misses=0,
                              counters=AccessCounters())
        if end_state is None:
            end_state = self._state_snapshot()

        self.mem.finalize(self.now)
        self.energy_baseline = snap
        energy = self.mem.energy_since(snap)
        if obs_armed:
            self._emit_run_telemetry(perf_counter() - wall0, self._seq - seq0)
        c0, c1 = snap_state["counters"], end_state["counters"]
        return SimResult(
            instructions=end_state["instructions"] - snap_state["instructions"],
            cycles=end_state["cycles"] - snap_state["cycles"],
            energy=energy,
            accesses_64b=end_state["accesses"] - snap_state["accesses"],
            counters=AccessCounters(
                data_reads=c1.data_reads - c0.data_reads,
                data_writes=c1.data_writes - c0.data_writes,
                ecc_reads=c1.ecc_reads - c0.ecc_reads,
                ecc_writes=c1.ecc_writes - c0.ecc_writes,
            ),
            llc_hits=end_state["hits"] - snap_state["hits"],
            llc_misses=end_state["misses"] - snap_state["misses"],
        )

    def _emit_run_telemetry(self, wall_s: float, events: int) -> None:
        """One ``sim.run`` event per completed run."""
        issued = sum(ch.issued_requests for ch in self.mem.channels)
        fast = sum(ch.fast_picks for ch in self.mem.channels)
        events_per_sec = round(events / wall_s, 1) if wall_s > 0 else None
        stats = self.llc.stats
        obs.emit(
            "sim.run",
            instructions=self.total_instructions,
            cycles=self.now,
            events_scheduled=events,
            events_per_sec=events_per_sec,
            llc_hits=stats.hits,
            llc_misses=stats.misses,
            issued_requests=issued,
            fast_picks=fast,
            fast_pick_rate=round(fast / issued, 4) if issued else None,
            wall_s=round(wall_s, 6),
        )

    def _state_snapshot(self) -> dict:
        return dict(
            instructions=self.total_instructions,
            cycles=self.now,
            accesses=self.mem.accesses_64b,
            hits=self.llc.stats.hits,
            misses=self.llc.stats.misses,
            counters=copy.copy(self.counters),
        )

    def _on_complete(self, req) -> None:
        tag = req.tag
        if type(tag) is not int:  # foreign requests (direct MemorySystem users)
            return
        code = tag & _TAG_MASK
        if code == TAG_FILL:
            core = self.cores[tag >> TAG_SHIFT]
            core.waiting = False
            self._push(req.complete + 1, EV_CORE, core.cid)
        elif code == TAG_POSTFILL:
            self.cores[tag >> TAG_SHIFT].outstanding_posted -= 1
        elif code == TAG_POSTLOAD:
            self.cores[tag >> TAG_SHIFT].outstanding_loads -= 1
