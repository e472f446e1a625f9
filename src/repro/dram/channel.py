"""Event-driven model of one DDR3 memory channel under close-page policy.

The controller keeps a single request queue per channel and issues one
request per scheduling step (the command/data bus serializes issue anyway at
one BL8 burst per ``tBURST``), while bank occupancy, tRRD/tFAW activation
windows, write-to-read turnaround, and rank power-down wakeups pipeline
across banks and ranks.  Scheduling follows DRAMsim's ``Most_Pending``
policy: among issuable requests, pick the one whose (rank, bank, row) has
the most queued requests, oldest first on ties; reads outrank writes until
the write backlog crosses a drain threshold.

Per-rank energy counters (activates, bursts, state residency including
CKE-low power-down sleep) are accumulated incrementally so the power model
can integrate them after the run.

.. warning:: The scheduling rules in this module (earliest-start timing,
   Most_Pending pick order, write-drain hysteresis, refresh accounting)
   have two implementations: this module (driven by the event-loop
   oracle) and the compiled epoch kernel in ``repro.cpu.epochnative``,
   held to *bit-identical* results by ``tests/test_epoch_kernel.py``.
   Any change here must be replicated in the C core or the identity
   tests will fail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.power import RankEnergyCounters
from repro.dram.timing import DDR3Timing


@dataclass(slots=True)
class MemRequest:
    """One line-sized memory request as seen by the channel."""

    rank: int
    bank: int
    row: int
    is_write: bool
    arrive: int
    tag: object = None  #: opaque cookie returned to the caller on completion
    #: True for latency-critical demand fills; write-backs and ECC-state
    #: read-modify-writes are background traffic the scheduler defers.
    demand: bool = False
    issue: int = -1
    complete: int = -1


@dataclass
class _RankState:
    """Bank readiness plus activation-window and residency bookkeeping."""

    banks: int
    timing: DDR3Timing
    bank_ready: "list[int]" = field(init=False)
    act_times: deque = field(default_factory=lambda: deque(maxlen=4))
    busy_until: int = 0
    accounted_to: int = 0
    next_refresh: int = 0
    refreshes: int = 0
    counters: RankEnergyCounters = field(default_factory=RankEnergyCounters)

    def __post_init__(self):
        self.bank_ready = [0] * self.banks


class Channel:
    """One logical memory channel: queue, scheduler, banks, power counters."""

    #: Idle cycles after which an all-precharged rank drops CKE (sleep).
    POWERDOWN_DELAY = 15
    #: Background-drain watermarks: start draining write-backs/ECC RMWs when
    #: the backlog reaches HIGH, return to serving demand at LOW.  The
    #: hysteresis bounds demand-read starvation to short drain bursts.
    WRITE_DRAIN = 16
    WRITE_DRAIN_LOW = 4
    #: Queue capacity.  Sized well above the worst-case in-flight population
    #: (blocking loads + posted stores + write-back cascades) because the
    #: cores self-throttle through read latency; ``can_accept`` still lets
    #: callers apply explicit backpressure if they want a tighter bound.
    QUEUE_DEPTH = 4096

    def __init__(self, ranks: int, banks_per_rank: int = 8, timing: "DDR3Timing | None" = None):
        self.timing = timing or DDR3Timing()
        self.ranks = [_RankState(banks_per_rank, self.timing) for _ in range(ranks)]
        # Stagger refresh deadlines across ranks so they do not all block at once.
        for i, r in enumerate(self.ranks):
            r.next_refresh = (i + 1) * self.timing.trefi // max(1, len(self.ranks))
        self.queue: "list[MemRequest]" = []
        self.bus_free = 0
        self.last_was_write = False
        self.issued_requests = 0
        #: Issues taken through the single-entry-queue fast path in
        #: :meth:`_pick`; with :data:`issued_requests` this gives the
        #: telemetry plane's channel-pick fast-path rate.
        self.fast_picks = 0
        self._draining = False
        # Incremental scheduler state, maintained on enqueue/pop so each
        # issue decision avoids the O(queue) rebuild of the pending map and
        # class census that dominated the profile.
        self._pending_counts: "dict[tuple[int, int, int], int]" = {}
        self._demand_count = 0
        self._background_count = 0
        # Earliest refresh deadline hint; 0 forces the first _service_refresh
        # through the slow path, which syncs it (and absorbs any deadline a
        # test mutated before the run started).
        self._refresh_due = 0

    def _service_refresh(self, now: int) -> None:
        """Execute due auto-refreshes: all banks of the rank block for tRFC.

        Refreshes are processed when their deadline passes the current
        scheduling time; a request already issued with a future start may
        overlap the next deadline slightly (documented approximation).
        The earliest deadline across ranks is tracked in ``_refresh_due``
        so the no-refresh-due common case is a single compare.
        """
        if now < self._refresh_due:
            return
        t = self.timing
        for r in self.ranks:
            while r.next_refresh <= now:
                start = max(r.next_refresh, 0)
                end = start + t.trfc
                ready = r.bank_ready
                for b in range(len(ready)):
                    if ready[b] < end:
                        ready[b] = end
                self._account_rank(r, start)
                if end > r.busy_until:
                    r.busy_until = end
                r.refreshes += 1
                r.next_refresh += t.trefi
        self._refresh_due = min(r.next_refresh for r in self.ranks)

    # -- queue interface ---------------------------------------------------------------

    def can_accept(self) -> bool:
        return len(self.queue) < self.QUEUE_DEPTH

    def enqueue(self, req: MemRequest) -> None:
        queue = self.queue
        if len(queue) >= self.QUEUE_DEPTH:
            raise RuntimeError("channel queue overflow; caller must respect can_accept()")
        queue.append(req)
        key = (req.rank, req.bank, req.row)
        counts = self._pending_counts
        counts[key] = counts.get(key, 0) + 1
        if req.demand:
            self._demand_count += 1
        else:
            self._background_count += 1

    def _pop_index(self, idx: int) -> MemRequest:
        """Remove queue[idx], keeping the incremental scheduler state in sync."""
        req = self.queue.pop(idx)
        key = (req.rank, req.bank, req.row)
        counts = self._pending_counts
        n = counts[key] - 1
        if n:
            counts[key] = n
        else:
            del counts[key]
        if req.demand:
            self._demand_count -= 1
        else:
            self._background_count -= 1
        return req

    @property
    def pending(self) -> int:
        return len(self.queue)

    # -- residency accounting ------------------------------------------------------------

    def _account_rank(self, r: _RankState, upto: int) -> None:
        """Advance rank residency counters to cycle *upto*."""
        t0 = r.accounted_to
        if upto <= t0:
            return
        busy = r.busy_until
        active_end = busy if busy < upto else upto
        if active_end > t0:
            r.counters.cycles_active += active_end - t0
        idle_start = t0 if t0 > busy else busy
        if upto > idle_start:
            pd_point = busy + self.POWERDOWN_DELAY
            standby_end = idle_start if idle_start > pd_point else pd_point
            if standby_end > upto:
                standby_end = upto
            if standby_end > idle_start:
                r.counters.cycles_precharge_standby += standby_end - idle_start
            if upto > standby_end:
                r.counters.cycles_powerdown += upto - standby_end
        r.accounted_to = upto

    def finalize(self, end_cycle: int) -> None:
        """Account residency through the end of the simulation."""
        for r in self.ranks:
            self._account_rank(r, end_cycle)

    def energy_counters(self) -> "list[RankEnergyCounters]":
        return [r.counters for r in self.ranks]

    # -- scheduling ---------------------------------------------------------------------

    def _earliest_start(self, req: MemRequest, now: int) -> int:
        """Earliest cycle the ACT for *req* could issue.

        Called once per issuable candidate per scheduling step - the
        innermost loop of the whole timing plane - so comparisons are
        written out instead of chaining ``max()`` calls.
        """
        t = self.timing
        r = self.ranks[req.rank]
        is_write = req.is_write
        start = r.bank_ready[req.bank]
        if now > start:
            start = now
        act_times = r.act_times
        if act_times:
            v = act_times[-1] + t.trrd
            if v > start:
                start = v
            if len(act_times) == 4:
                v = act_times[0] + t.tfaw
                if v > start:
                    start = v
        # Data-bus slot: data appears trcd + tcl/tcwl after ACT.  Turnaround
        # gaps apply only on direction changes (write->read pays tWTR,
        # read->write the small rank turnaround), so batched writes stream
        # back to back.
        if is_write:
            v = self.bus_free + (0 if self.last_was_write else t.trtrs) - t.trcd - t.tcwl
        else:
            v = self.bus_free + (t.twtr if self.last_was_write else 0) - t.trcd - t.tcl
        if v > start:
            start = v
        # Power-down exit: if the rank has dropped CKE by `start`, add tXP.
        if start >= r.busy_until + self.POWERDOWN_DELAY:
            start += t.txp
        return start

    def _pick(self, now: int) -> "tuple[int, MemRequest] | None":
        """Most-Pending choice: (start_cycle, request) or None if queue empty.

        Uses the incrementally-maintained pending map and demand/background
        census (see :meth:`enqueue` / :meth:`_pop_index`); the slow
        rebuild-from-scratch version survives as :meth:`_pick_reference` and
        the two are property-tested to pick identical sequences.
        """
        queue = self.queue
        if not queue:
            return None
        if len(queue) == 1:
            # Fast path for the common near-empty queue.
            q = self._pop_index(0)
            self._draining = not q.demand
            self.fast_picks += 1
            return self._earliest_start(q, now), q
        background = self._background_count
        demand = self._demand_count
        # Demand fills outrank background traffic (write-backs and ECC-state
        # RMWs).  Background drains in *batches* - entered on a full backlog
        # or an idle read queue, exited at the low watermark - so writes
        # stream back to back instead of interleaving a bus-turnaround
        # penalty into every demand read.
        if background == 0:
            self._draining = False
        elif background >= self.WRITE_DRAIN or demand == 0:
            self._draining = True
        elif background <= self.WRITE_DRAIN_LOW and demand > 0:
            self._draining = False
        want_demand = not (self._draining and background > 0)
        # The serviced class is never empty: drain mode implies queued
        # background work, non-drain mode implies a queued demand request.
        # Readiness comes first - issuing a request whose bank frees far in
        # the future would reserve the data bus and head-of-line-block ready
        # work - then Most-Pending row grouping, then age.
        pending = self._pending_counts
        earliest = self._earliest_start
        best = None
        for idx, q in enumerate(queue):
            if q.demand != want_demand:
                continue
            start = earliest(q, now)
            key = (start, -pending[(q.rank, q.bank, q.row)], q.arrive, idx)
            if best is None or key < best[0]:
                best = (key, start, idx)
        _, start, idx = best
        return start, self._pop_index(idx)

    def _pick_reference(self, now: int) -> "tuple[int, MemRequest] | None":
        """Reference Most-Pending implementation, O(queue) rebuild per call.

        This is the original scheduler kept verbatim as ground truth for the
        incremental :meth:`_pick`: it recomputes the class census and the
        per-(rank, bank, row) pending map from the queue on every decision.
        Pops still route through :meth:`_pop_index` so the incremental
        bookkeeping stays consistent when tests interleave the two.
        """
        if not self.queue:
            return None
        if len(self.queue) == 1:
            q = self._pop_index(0)
            self._draining = not q.demand
            self.fast_picks += 1
            return self._earliest_start(q, now), q
        background = sum(1 for q in self.queue if not q.demand)
        demand = len(self.queue) - background
        if background == 0:
            self._draining = False
        elif background >= self.WRITE_DRAIN or demand == 0:
            self._draining = True
        elif background <= self.WRITE_DRAIN_LOW and demand > 0:
            self._draining = False
        drain_background = self._draining and background > 0
        pending: "dict[tuple[int, int, int], int]" = {}
        for q in self.queue:
            key = (q.rank, q.bank, q.row)
            pending[key] = pending.get(key, 0) + 1
        best = None
        for idx, q in enumerate(self.queue):
            if q.demand != (not drain_background):
                continue
            start = self._earliest_start(q, now)
            key = (start, -pending[(q.rank, q.bank, q.row)], q.arrive, idx)
            if best is None or key < best[0]:
                best = (key, start, idx)
        _, start, idx = best
        return start, self._pop_index(idx)

    def advance(self, now: int) -> "tuple[list[MemRequest], int | None]":
        """Issue at most one request at/after *now*.

        Returns (completed-issue list, next wakeup cycle or None).  The
        caller re-invokes at the returned cycle to keep the pipeline fed.
        """
        self._service_refresh(now)
        if not self.queue:  # idle wakeup: half of all advance calls
            return [], None
        picked = self._pick(now)
        if picked is None:
            return [], None
        start, req = picked
        t = self.timing
        r = self.ranks[req.rank]
        is_write = req.is_write

        self._account_rank(r, start)
        data_start = start + t.trcd + (t.tcwl if is_write else t.tcl)
        data_end = data_start + t.tburst
        busy_end = start + (t.bank_busy_write if is_write else t.bank_busy_read)
        r.bank_ready[req.bank] = busy_end
        r.act_times.append(start)
        if busy_end > r.busy_until:
            r.busy_until = busy_end
        self.bus_free = data_end

        r.counters.activates += 1
        if is_write:
            r.counters.write_bursts += 1
        else:
            r.counters.read_bursts += 1
        self.last_was_write = is_write

        req.issue = start
        req.complete = data_end
        self.issued_requests += 1
        # Next issue decision once the bus slot is claimed.
        next_wakeup = max(start + 1, self.bus_free - (t.trcd + t.tcl))
        return [req], next_wakeup
