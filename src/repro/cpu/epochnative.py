"""Compiled epoch kernel: the fast implementation of the timing simulator.

The event-driven loop in :meth:`repro.cpu.system.SimSystem._run_reference`
is the semantic definition of the simulator and costs a few microseconds
per event in the interpreter.  This module re-executes exactly the same
discrete-event semantics in C, compiled with :mod:`cffi` through
:class:`repro.util.native.NativeCore`, over flat int64 NumPy state: the
LLC slot arrays, per-bank timing, queue entries, and energy counters.
That state stays resident per process, one set per system geometry; each
run resets it in C and copies in only the Python-side state that is not
fresh, so a sweep's cells stage nothing.  A run writes back only what
drivers, telemetry and the power model read (time, counters, per-rank
energy counters finalized through the last cycle); the rest of the
post-run state - LLC slots, channel queues, bank timing, core state -
reaches the object model only through :func:`readback`, which the
identity tests call and ``SimSystem.run`` calls before a second run.

Scope: every configuration the paper's experiments build - patrol scrubbing,
degraded (faulty-bank) mode, uncached ECC/XOR lines, one-shot bursts, and
per-window IPC tracking included.  :func:`eligible` rejects only shapes
no experiment builds: more than :data:`MAX_CORES` cores, 32 or more banks per
rank, a mapping whose geometry differs from the memory system, and a
system whose channel queues or event heap are already populated.  Those,
and every run on a host without a compiler, take the event loop.
``tests/test_epoch_kernel.py`` pins this core against the oracle on full
post-run state.

Build model: the C source below is compiled once per source hash into
``src/repro/cpu/_native/`` (gitignored) and memoized process-wide.

Identity-critical conventions shared with the reference loop:

* events pop in the reference heap's ``(time, seq)`` order, with ``seq``
  incremented at exactly the reference push sites.  The queue is a timing
  wheel of 4096 one-cycle FIFO buckets ahead of the current cycle, plus a
  ``(time, seq)`` overflow heap for events pushed further ahead (scrub
  ticks, bursts).  An overflow event moves into its bucket as soon as the
  wheel reaches it, before any handler at the new cycle runs, so every
  bucket fills in push order and FIFO order within a cycle is seq order;
* the LLC keeps no address map: an access scans the filled ways of the
  line's set for its tag and, in the same pass, keeps the first way with
  the smallest LRU stamp as the victim - the oracle's rule.  The oracle's
  address -> slot dict is rebuilt from the slot arrays by :func:`readback`;
* DRAM decode is recomputed arithmetically per address (positive int64
  division matches Python floor division);
* pending-request counts are recounted from the queue at pick time,
  which equals the reference's incremental pending map for every key.

Trace iterators are prefetched in chunks, so after an early stop (the
instruction target hit) a shared iterator may have advanced further than
the reference would have.  Nothing reads a trace iterator after ``run()``.
"""

from __future__ import annotations

import mmap
import os
from collections import deque
from itertools import islice
from time import perf_counter

import numpy as np

from repro import obs
from repro.cpu.degraded import MATERIALIZED_BASE
from repro.cpu.ecc_traffic import ECC_REGION_BASE
from repro.cpu.llc import LineKind
from repro.cpu.system import EV_BURST, EV_CORE, EV_SCRUB, AccessCounters, SimResult
from repro.dram.channel import MemRequest
from repro.dram.power import RankEnergyCounters
from repro.ecc.base import EccTraffic
from repro.util.native import NativeCore
from repro.workloads.generator import TraceStream

#: Max cores the native loop supports (fixed-size trace-buffer slots).
MAX_CORES = 64

#: Event-queue capacity: live events in the wheel and the overflow heap
#: together.  They are bounded by a few per core plus queue occupancy and
#: in-flight channel wakeups - observed peaks are in the hundreds;
#: overflow raises rather than truncates.
HEAP_CAP = 1 << 17

#: Queue entries carry a packed (rank, bank, row) key:
#: ``(rank << 5 | bank) << 44 | row``.  Rows stay far below 2**44 (the
#: largest mapped region base is 1 << 41) and banks below 32.
_PK_ROW_BITS = 44
_PK_BANK_BITS = 5

_STRUCT = """
typedef struct {
    /* geometry */
    int64_t C, R, B, MB, n_ranks, n_cores;
    int64_t lpp, map_channels, map_ranks, seq_policy;
    int64_t hot_base, hot_ranks;
    /* timing */
    int64_t trcd, tcl, tcwl, tburst, trrd, tfaw, twtr, trtrs, txp;
    int64_t trfc, trefi, bb_read, bb_write, trcd_tcl, PD;
    int64_t WRITE_DRAIN, WRITE_DRAIN_LOW, QUEUE_DEPTH;
    int64_t HIT, POSTED_CAP, load_mlp, units_64b;
    /* ecc: mode 0=inline (no state), 1=parity formula, 2=simple */
    int64_t ecc_mode, ecc_insert_kind, ecc_uncached;
    int64_t eb, lpp_e, ppc, gpp, pc1, cov;
    /* llc flat state */
    int64_t set_mask, assoc, n_sets;
    int64_t *l_tags; int64_t *l_lru; uint8_t *l_dirty; uint8_t *l_kind;
    int64_t *l_fill;
    int64_t clock, hits, misses, evictions_dirty;
    /* per global-rank state */
    int64_t *bank_ready, *busy_until, *accounted_to, *next_refresh, *refreshes;
    int64_t *c_act, *c_rd, *c_wr, *c_active, *c_standby, *c_pdown;
    int64_t *act_ring, *act_len, *act_head;
    /* per channel state; queue entries are 7 int64 fields */
    int64_t *qes, *q_len;
    int64_t *dem_cnt, *bg_cnt, *draining, *bus_free, *last_w;
    int64_t *fast_picks, *issued, *refresh_due;
    /* per core state */
    uint8_t *done, *waiting, *has_pend, *pend_wr;
    int64_t *posted, *loads, *instr, *pend_addr;
    int64_t done_cnt;
    /* trace buffers (per-core pointers owned by Python) */
    int64_t *buf_gap[64]; int64_t *buf_addr[64]; uint8_t *buf_wr[64];
    int64_t buf_i[64], buf_n[64];
    double ipc;
    /* event queue: a timing wheel of 4096 one-cycle FIFO buckets covering
       [w_base, w_base + 4096), nodes (kind | payload << 3, next) bump-
       allocated from w_node, plus an overflow heap of far events (4 int64
       per entry: time, seq, kind, payload); h_cap bounds all live events */
    int64_t *h; int64_t h_len, h_cap, seq;
    int64_t *w_node; int64_t w_base, w_cnt, w_used, w_free;
    int32_t w_head[4096], w_tail[4096];
    uint64_t w_occ[64], w_sum;
    /* run control */
    int64_t now, total, limit, target;
    int64_t resume_cid, resume_now, resume_ok;
    int64_t snap_taken, error;
    int64_t *snap_cnt;            /* 6 * n_ranks */
    int64_t snap_scalars[9], end_scalars[9];
    /* counters */
    int64_t accesses_64b, n_data_r, n_data_w, n_ecc_r, n_ecc_w;
    /* patrol scrub */
    int64_t scrub_interval, scrub_region, scrub_cursor, scrub_reads;
    /* degraded mode: faulty-bank bitmap + materialized-ECC constants */
    int64_t mat_on, mat_cov, mat_base;
    uint8_t *faulty;
    /* one-shot bursts: (cycle, reads, writes, base) per entry */
    int64_t *bursts;
    /* per-window instruction counts (grown by Python on request) */
    int64_t ipc_window, win_len, win_cap, win_need;
    int64_t *win;
} KS;
"""

_CDEF = _STRUCT + """
void push_event(KS *k, int64_t t, int64_t kind, int64_t payload);
void ks_reset(KS *k);
void ks_finish(KS *k, int64_t reached);
int64_t epoch_run(KS *k);
"""

_CSRC = r"""
#include <stdint.h>
#include <string.h>
""" + _STRUCT + r"""
/* tag codes (mirror repro.cpu.system) */
#define TAG_SHIFT_   4
#define TAG_MASK_    ((1 << TAG_SHIFT_) - 1)
#define TAG_FILL_    1
#define TAG_POSTFILL_ 2
#define TAG_POSTLOAD_ 3
#define TAG_WB_      4
#define TAG_ECCWB_   5
#define TAG_ECCRMW_  6
#define TAG_ECCFILL_ 7
#define TAG_SCRUB_   8

/* event kinds (mirror repro.cpu.system) */
#define EV_CORE_   0
#define EV_ACCESS_ 1
#define EV_BURST_  2
#define EV_SCRUB_  3
#define EV_CHAN_   4

#define KIND_DATA_ 0
#define KIND_ECC_  1
#define KIND_XOR_  2

#define ERR_QUEUE_   1
#define ERR_CASCADE_ 2
#define ERR_HEAP_    3

/* epoch_run return codes; >= 0 asks for a trace refill of that core */
#define RC_HEAP_EMPTY_  -1
#define RC_TARGET_      -2
#define RC_GROW_WINDOW_ -3
#define RC_HANDLED_     -4   /* internal: event fully handled */

/* -- event queue: pops in (time, seq) order ---------------------------------
   Events less than WHEEL_ cycles past w_base sit in the wheel bucket of
   their cycle; later ones wait in the overflow heap.  w_base only moves
   forward, to each popped time, and every move first pulls the overflow
   events that now fall inside the wheel, in heap order.  So a bucket's
   far events enter it before any handler at the new time can push to it,
   and FIFO order within a cycle is seq order. */

#define WHEEL_ 4096
#define WMASK_ (WHEEL_ - 1)

/* overflow heap: (time, seq) ordered, 4 int64 per entry */
static void o_push(KS *k, int64_t t, int64_t s, int64_t kind, int64_t payload) {
    int64_t *h = k->h;
    int64_t i = k->h_len++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        int64_t *pe = h + par * 4;
        if (pe[0] < t || (pe[0] == t && pe[1] < s)) break;
        int64_t *ie = h + i * 4;
        ie[0] = pe[0]; ie[1] = pe[1]; ie[2] = pe[2]; ie[3] = pe[3];
        i = par;
    }
    int64_t *ie = h + i * 4;
    ie[0] = t; ie[1] = s; ie[2] = kind; ie[3] = payload;
}

static void o_pop(KS *k, int64_t *t, int64_t *kind, int64_t *payload) {
    int64_t *h = k->h;
    *t = h[0]; *kind = h[2]; *payload = h[3];
    int64_t n = --k->h_len;
    if (!n) return;
    int64_t lt = h[n*4], ls = h[n*4+1], lk = h[n*4+2], lp = h[n*4+3];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n) break;
        int64_t c2 = c + 1;
        if (c2 < n && (h[c2*4] < h[c*4] ||
                       (h[c2*4] == h[c*4] && h[c2*4+1] < h[c*4+1]))) c = c2;
        if (h[c*4] > lt || (h[c*4] == lt && h[c*4+1] > ls)) break;
        int64_t *ie = h + i * 4, *ce = h + c * 4;
        ie[0] = ce[0]; ie[1] = ce[1]; ie[2] = ce[2]; ie[3] = ce[3];
        i = c;
    }
    int64_t *ie = h + i * 4;
    ie[0] = lt; ie[1] = ls; ie[2] = lk; ie[3] = lp;
}

/* append to the tail of cycle t's bucket (w_base <= t < w_base + WHEEL_) */
static void w_append(KS *k, int64_t t, int64_t kind, int64_t payload) {
    int64_t n = k->w_free;
    if (n >= 0) k->w_free = k->w_node[n * 2 + 1];
    else n = k->w_used++;
    k->w_node[n * 2] = payload << 3 | kind;
    int64_t b = t & WMASK_, w = b >> 6;
    if (k->w_occ[w] >> (b & 63) & 1) {
        k->w_node[k->w_tail[b] * 2 + 1] = n;
    } else {
        k->w_head[b] = (int32_t)n;
        k->w_occ[w] |= 1ull << (b & 63);
        k->w_sum |= 1ull << w;
    }
    k->w_tail[b] = (int32_t)n;
    k->w_cnt++;
}

/* move the overflow events that now fall inside the wheel */
static void w_pull(KS *k) {
    int64_t lim = k->w_base + WHEEL_;
    while (k->h_len && k->h[0] < lim) {
        int64_t t, kind, payload;
        o_pop(k, &t, &kind, &payload);
        w_append(k, t, kind, payload);
    }
}

static void hpush(KS *k, int64_t t, int64_t kind, int64_t payload) {
    if (k->w_cnt + k->h_len >= k->h_cap) { k->error = ERR_HEAP_; return; }
    int64_t s = k->seq++;
    if (t - k->w_base < WHEEL_) w_append(k, t, kind, payload);
    else o_push(k, t, s, kind, payload);
}

/* pop the earliest event; the queue must not be empty */
static void hpop(KS *k, int64_t *t, int64_t *kind, int64_t *payload) {
    if (!k->w_cnt) {  /* only far events left: jump to the earliest */
        k->w_base = k->h[0];
        w_pull(k);
    }
    /* first occupied bucket at or after w_base's, wrapping around */
    int64_t b0 = k->w_base & WMASK_, w = b0 >> 6, b;
    uint64_t bits = k->w_occ[w] & (~0ull << (b0 & 63));
    if (bits) {
        b = w << 6 | __builtin_ctzll(bits);
    } else {
        uint64_t s = w < 63 ? k->w_sum & (~0ull << (w + 1)) : 0;
        if (!s) s = k->w_sum;
        w = __builtin_ctzll(s);
        b = w << 6 | __builtin_ctzll(k->w_occ[w]);
    }
    int64_t now = k->w_base + ((b - b0) & WMASK_);
    if (now != k->w_base) {
        k->w_base = now;
        w_pull(k);
    }
    int64_t n = k->w_head[b];
    int64_t *nd = k->w_node + n * 2;
    *t = now; *kind = nd[0] & 7; *payload = nd[0] >> 3;
    if (n == k->w_tail[b]) {
        k->w_occ[w] &= ~(1ull << (b & 63));
        if (!k->w_occ[w]) k->w_sum &= ~(1ull << w);
    } else {
        k->w_head[b] = (int32_t)nd[1];
    }
    nd[1] = k->w_free;
    k->w_free = n;
    k->w_cnt--;
}

void push_event(KS *k, int64_t t, int64_t kind, int64_t payload) {
    hpush(k, t, kind, payload);
}

/* -- DRAM decode (AddressMapping._decode, positive arithmetic) ------------- */

static inline void decode(KS *k, int64_t addr, int64_t *ci, int64_t *gr,
                          int64_t *gb, int64_t *pk) {
    int64_t page = addr / k->lpp, off = addr % k->lpp;
    int64_t ch = page % k->map_channels, pic = page / k->map_channels;
    int64_t rank_lo = 0, nr = k->map_ranks;
    if (k->hot_base >= 0) {
        if (addr >= k->hot_base && addr < (1LL << 40)) {
            nr = k->hot_ranks;
        } else {
            rank_lo = k->hot_ranks;
            nr = k->map_ranks - k->hot_ranks;
        }
    }
    int64_t bt = nr * k->MB;
    int64_t bidx = k->seq_policy ? pic % bt : (off + pic) % bt;
    int64_t rank = rank_lo + bidx / k->MB, bank = bidx % k->MB;
    *ci = ch;
    *gr = ch * k->R + rank;
    *gb = *gr * k->B + bank;
    *pk = ((rank << 5 | bank) << 44) | pic;
}

static inline int64_t ecc_addr(KS *k, int64_t a) {
    if (k->ecc_mode == 1) {
        int64_t page = a / k->lpp_e, off = a % k->lpp_e;
        return k->eb + (page / k->pc1) * k->gpp + off / k->ppc;
    }
    return k->eb + a / k->cov;
}

/* -- residency accounting + refresh ---------------------------------------- */

static void account(KS *k, int64_t gr, int64_t upto) {
    int64_t t0 = k->accounted_to[gr];
    if (upto <= t0) return;
    int64_t busy = k->busy_until[gr];
    int64_t active_end = busy < upto ? busy : upto;
    if (active_end > t0) k->c_active[gr] += active_end - t0;
    int64_t idle_start = t0 > busy ? t0 : busy;
    if (upto > idle_start) {
        int64_t pd_point = busy + k->PD;
        int64_t standby_end = idle_start > pd_point ? idle_start : pd_point;
        if (standby_end > upto) standby_end = upto;
        if (standby_end > idle_start) k->c_standby[gr] += standby_end - idle_start;
        if (upto > standby_end) k->c_pdown[gr] += upto - standby_end;
    }
    k->accounted_to[gr] = upto;
}

static void service_refresh(KS *k, int64_t ci, int64_t now) {
    int64_t base_gr = ci * k->R;
    int64_t due = INT64_MAX;
    for (int64_t g = base_gr; g < base_gr + k->R; g++) {
        int64_t nr = k->next_refresh[g];
        while (nr <= now) {
            int64_t start = nr > 0 ? nr : 0;
            int64_t end = start + k->trfc;
            int64_t b0 = g * k->B;
            for (int64_t b = b0; b < b0 + k->B; b++)
                if (k->bank_ready[b] < end) k->bank_ready[b] = end;
            account(k, g, start);
            if (end > k->busy_until[g]) k->busy_until[g] = end;
            k->refreshes[g]++;
            nr += k->trefi;
        }
        k->next_refresh[g] = nr;
        if (nr < due) due = nr;
    }
    k->refresh_due[ci] = due;
}

/* -- memory enqueue (SimSystem._enqueue_mem + MemorySystem.enqueue) -------- */

/* queue entry layout: gr, gb, pk, wr, arrive, tag, dem */
#define QF 7

static void enqueue(KS *k, int64_t addr, int64_t is_write, int64_t tag,
                    int64_t now) {
    int64_t code = tag & TAG_MASK_;
    int64_t ci, gr, gb, pk;
    decode(k, addr, &ci, &gr, &gb, &pk);
    int64_t ql = k->q_len[ci];
    if (ql >= k->QUEUE_DEPTH) { k->error = ERR_QUEUE_; return; }
    int64_t *e = k->qes + (ci * k->QUEUE_DEPTH + ql) * QF;
    int64_t dem = (code == TAG_FILL_ || code == TAG_POSTFILL_);
    e[0] = gr; e[1] = gb; e[2] = pk; e[3] = is_write;
    e[4] = now; e[5] = tag; e[6] = dem;
    k->q_len[ci] = ql + 1;
    if (dem) k->dem_cnt[ci]++; else k->bg_cnt[ci]++;
    k->accesses_64b += k->units_64b;
    if (is_write) {
        if (code == TAG_ECCWB_ || code == TAG_ECCRMW_) k->n_ecc_w++;
        else k->n_data_w++;
    } else {
        if (code == TAG_ECCFILL_ || code == TAG_ECCRMW_) k->n_ecc_r++;
        else k->n_data_r++;
    }
    hpush(k, now, EV_CHAN_, ci);
}

/* -- LLC access (LLC.access, flat state) ----------------------------------- */
/* One pass over the set's filled ways finds the line and, on a miss, the
   LRU victim: the first way with the smallest stamp, as in the oracle.
   Returns 1 hit, 0 miss without victim, -1 miss with victim (filled). */

static int64_t llc_access(KS *k, int64_t addr, int64_t kind, int64_t make_dirty,
                          int64_t *ev_addr, int64_t *ev_kind, int64_t *ev_dirty) {
    int64_t s = addr & k->set_mask, base = s * k->assoc;
    int64_t filled = k->l_fill[s];
    int64_t *tags = k->l_tags + base, *lru = k->l_lru + base;
    uint8_t *dirty = k->l_dirty + base, *kinds = k->l_kind + base;
    int64_t victim = 0, best = INT64_MAX;
    k->clock++;
    for (int64_t w = 0; w < filled; w++) {
        if (tags[w] == addr) {
            lru[w] = k->clock;
            if (make_dirty) dirty[w] = 1;
            k->hits++;
            return 1;
        }
        if (lru[w] < best) { best = lru[w]; victim = w; }
    }
    k->misses++;
    int64_t has_ev = 0;
    if (filled < k->assoc) {
        victim = filled;
        k->l_fill[s] = filled + 1;
    } else {
        *ev_addr = tags[victim];
        *ev_kind = kinds[victim];
        *ev_dirty = dirty[victim];
        if (*ev_dirty) k->evictions_dirty++;
        has_ev = 1;
    }
    tags[victim] = addr;
    lru[victim] = k->clock;
    dirty[victim] = (uint8_t)make_dirty;
    kinds[victim] = (uint8_t)kind;
    return has_ev ? -1 : 0;
}

/* -- degraded mode (faulty banks -> materialized ECC lines) ---------------- */

static inline int is_faulty(KS *k, int64_t addr) {
    if (!k->mat_on) return 0;
    int64_t ci, gr, gb, pk;
    decode(k, addr, &ci, &gr, &gb, &pk);
    return k->faulty[gb];
}

/* DegradedMode materialized-ECC line touch: LLC access (KIND_ECC) plus an
   ECCFILL memory read on miss; returns the llc_access result so the caller
   can cascade the (dirty) victim exactly like the reference. */
static int64_t touch_mat(KS *k, int64_t addr, int64_t dirty, int64_t now,
                         int64_t *ev_a, int64_t *ev_k, int64_t *ev_d) {
    int64_t ea = k->mat_base + addr / k->mat_cov;
    int64_t r = llc_access(k, ea, KIND_ECC_, dirty, ev_a, ev_k, ev_d);
    if (r != 1) enqueue(k, ea, 0, TAG_ECCFILL_, now);
    return r;
}

/* -- eviction cascade (SimSystem._handle_eviction) ------------------------- */

static void cascade(KS *k, int64_t va, int64_t vk, int64_t vd, int64_t now) {
    int64_t st_a[66], st_k[66], st_d[66];
    int sp = 0, guard = 0;
    st_a[0] = va; st_k[0] = vk; st_d[0] = vd; sp = 1;
    while (sp) {
        if (++guard > 64) { k->error = ERR_CASCADE_; return; }
        sp--;
        int64_t a = st_a[sp], kk = st_k[sp], dd = st_d[sp];
        if (!dd) continue;
        if (kk == KIND_DATA_) {
            enqueue(k, a, 1, TAG_WB_, now);
            if (k->error) return;
            int64_t ev_a, ev_k, ev_d, r = 0;
            if (is_faulty(k, a)) {
                r = touch_mat(k, a, 1, now, &ev_a, &ev_k, &ev_d);
            } else if (k->ecc_mode != 0 && k->ecc_uncached) {
                /* Section III-D caching off: the ECC/XOR-line update hits
                   memory at once (XOR lines first read the old data). */
                int64_t ea = ecc_addr(k, a);
                if (k->ecc_insert_kind == KIND_XOR_) {
                    enqueue(k, a, 0, TAG_ECCFILL_, now);
                    if (k->error) return;
                }
                enqueue(k, ea, 0, TAG_ECCRMW_, now);
                if (k->error) return;
                enqueue(k, ea, 1, TAG_ECCRMW_, now);
            } else if (k->ecc_mode != 0) {
                r = llc_access(k, ecc_addr(k, a), k->ecc_insert_kind, 1,
                               &ev_a, &ev_k, &ev_d);
            }
            if (k->error) return;
            if (r == -1) {
                st_a[sp] = ev_a; st_k[sp] = ev_k; st_d[sp] = ev_d; sp++;
            }
        } else if (kk == KIND_ECC_) {
            enqueue(k, a, 1, TAG_ECCWB_, now);
        } else {  /* XOR line: delta read-modify-write of the parity line */
            enqueue(k, a, 0, TAG_ECCRMW_, now);
            if (k->error) return;
            enqueue(k, a, 1, TAG_ECCRMW_, now);
        }
        if (k->error) return;
    }
}

/* -- earliest start for one candidate (Channel timing rules) --------------- */

static inline int64_t earliest_start(KS *k, int64_t now, int64_t ci, int64_t gr,
                                     int64_t gb, int64_t is_write,
                                     int64_t wcand, int64_t rcand) {
    int64_t st = k->bank_ready[gb];
    if (now > st) st = now;
    int64_t al = k->act_len[gr];
    if (al) {
        int64_t head = k->act_head[gr];
        int64_t v = k->act_ring[gr * 4 + ((head + al - 1) & 3)] + k->trrd;
        if (v > st) st = v;
        if (al == 4) {
            v = k->act_ring[gr * 4 + head] + k->tfaw;
            if (v > st) st = v;
        }
    }
    int64_t v = is_write ? wcand : rcand;
    if (v > st) st = v;
    if (st >= k->busy_until[gr] + k->PD) st += k->txp;
    return st;
}

static inline void act_append(KS *k, int64_t gr, int64_t v) {
    int64_t al = k->act_len[gr], head = k->act_head[gr];
    if (al < 4) {
        k->act_ring[gr * 4 + ((head + al) & 3)] = v;
        k->act_len[gr] = al + 1;
    } else {  /* deque(maxlen=4): drop the oldest */
        k->act_ring[gr * 4 + head] = v;
        k->act_head[gr] = (head + 1) & 3;
    }
}

/* -- event handlers --------------------------------------------------------- */

/* SimSystem._step_core for a core that is not done: returns RC_HANDLED_,
   or parks the event and asks Python for a trace refill (the core id) or a
   larger IPC-window array (RC_GROW_WINDOW_). */
static int64_t core_event(KS *k, int64_t now, int64_t cid) {
    int64_t bi = k->buf_i[cid];
    int64_t w = k->ipc_window ? now / k->ipc_window : 0;
    if (bi == k->buf_n[cid] || (k->ipc_window && w >= k->win_cap)) {
        k->resume_cid = cid;
        k->resume_now = now;
        if (bi == k->buf_n[cid]) return cid;
        k->win_need = w + 1;
        return RC_GROW_WINDOW_;
    }
    int64_t gap = k->buf_gap[cid][bi];
    k->buf_i[cid] = bi + 1;
    k->instr[cid] += gap;
    k->total += gap;
    if (k->ipc_window) {
        if (w >= k->win_len) k->win_len = w + 1;
        k->win[w] += gap;
    }
    k->pend_addr[cid] = k->buf_addr[cid][bi];
    k->pend_wr[cid] = k->buf_wr[cid][bi];
    k->has_pend[cid] = 1;
    /* max(1, ceil(gap / IPC)) in float64, as the reference computes it */
    double q = (double)gap / k->ipc;
    int64_t dt = (int64_t)q;
    if ((double)dt < q) dt += 1;
    if (dt < 1) dt = 1;
    hpush(k, now + dt, EV_ACCESS_, cid);
    return RC_HANDLED_;
}

static void access_event(KS *k, int64_t now, int64_t cid) {
    int64_t addr = k->pend_addr[cid];
    int64_t is_write = k->pend_wr[cid];
    k->has_pend[cid] = 0;
    int64_t ev_a, ev_k, ev_d;
    int64_t r = llc_access(k, addr, KIND_DATA_, is_write, &ev_a, &ev_k, &ev_d);
    if (r == 1) {
        hpush(k, now + k->HIT, EV_CORE_, cid);
        return;
    }
    if (r == -1 && ev_d) {
        cascade(k, ev_a, ev_k, ev_d, now);
        if (k->error) return;
    }
    if (is_faulty(k, addr)) {
        int64_t ma, mk, md;
        int64_t mr = touch_mat(k, addr, 0, now, &ma, &mk, &md);
        if (k->error) return;
        if (mr == -1 && md) {
            cascade(k, ma, mk, md, now);
            if (k->error) return;
        }
    }
    int64_t tag, wake;
    if (is_write && k->posted[cid] < k->POSTED_CAP) {
        k->posted[cid]++;
        tag = TAG_POSTFILL_ | cid << TAG_SHIFT_;
        wake = 1;
    } else if (!is_write && k->loads[cid] + 1 < k->load_mlp) {
        k->loads[cid]++;
        tag = TAG_POSTLOAD_ | cid << TAG_SHIFT_;
        wake = 1;
    } else {
        k->waiting[cid] = 1;
        tag = TAG_FILL_ | cid << TAG_SHIFT_;
        wake = 0;
    }
    enqueue(k, addr, 0, tag, now);
    if (wake) hpush(k, now + k->HIT, EV_CORE_, cid);
}

static void chan_event(KS *k, int64_t now, int64_t ci) {
    if (now >= k->refresh_due[ci]) service_refresh(k, ci, now);
    int64_t ql = k->q_len[ci];
    if (!ql) return;
    int64_t *qs = k->qes + ci * k->QUEUE_DEPTH * QF;
    int64_t gr, gb, is_write, tag, dem, start;
    if (ql == 1) {
        gr = qs[0]; gb = qs[1]; is_write = qs[3]; tag = qs[5]; dem = qs[6];
        k->q_len[ci] = 0;
        if (dem) k->dem_cnt[ci]--; else k->bg_cnt[ci]--;
        k->draining[ci] = !dem;
        k->fast_picks[ci]++;
        int64_t wcand = k->bus_free[ci] + (k->last_w[ci] ? 0 : k->trtrs)
                        - k->trcd - k->tcwl;
        int64_t rcand = k->bus_free[ci] + (k->last_w[ci] ? k->twtr : 0)
                        - k->trcd - k->tcl;
        start = earliest_start(k, now, ci, gr, gb, is_write, wcand, rcand);
    } else {
        int64_t bg = k->bg_cnt[ci], dm = k->dem_cnt[ci];
        if (bg == 0) k->draining[ci] = 0;
        else if (bg >= k->WRITE_DRAIN || dm == 0) k->draining[ci] = 1;
        else if (bg <= k->WRITE_DRAIN_LOW && dm > 0) k->draining[ci] = 0;
        int64_t want = !(k->draining[ci] && bg > 0);
        int64_t wcand = k->bus_free[ci] + (k->last_w[ci] ? 0 : k->trtrs)
                        - k->trcd - k->tcwl;
        int64_t rcand = k->bus_free[ci] + (k->last_w[ci] ? k->twtr : 0)
                        - k->trcd - k->tcl;
        int64_t best_st = 0, best_pm = 0, best_arr = 0, idx = -1;
        for (int64_t qi = 0; qi < ql; qi++) {
            int64_t *e = qs + qi * QF;
            if (e[6] != want) continue;
            int64_t st = earliest_start(k, now, ci, e[0], e[1], e[3],
                                        wcand, rcand);
            if (idx >= 0 && st > best_st) continue;
            int64_t pm = 0, pk = e[2];
            for (int64_t j = 0; j < ql; j++)
                if (qs[j * QF + 2] == pk) pm++;
            /* reference key: (start, -pending, arrive, queue index) */
            if (idx < 0 || st < best_st || pm > best_pm ||
                (pm == best_pm && e[4] < best_arr)) {
                best_st = st; best_pm = pm; best_arr = e[4]; idx = qi;
            }
        }
        int64_t *e = qs + idx * QF;
        gr = e[0]; gb = e[1]; is_write = e[3]; tag = e[5]; dem = e[6];
        start = best_st;
        memmove(e, e + QF, (ql - idx - 1) * QF * sizeof(int64_t));
        k->q_len[ci] = ql - 1;
        if (dem) k->dem_cnt[ci]--; else k->bg_cnt[ci]--;
    }
    /* -- issue -- */
    account(k, gr, start);
    int64_t data_end, busy_end;
    if (is_write) {
        data_end = start + k->trcd + k->tcwl + k->tburst;
        busy_end = start + k->bb_write;
        k->c_wr[gr]++;
    } else {
        data_end = start + k->trcd_tcl + k->tburst;
        busy_end = start + k->bb_read;
        k->c_rd[gr]++;
    }
    k->c_act[gr]++;
    k->bank_ready[gb] = busy_end;
    act_append(k, gr, start);
    if (busy_end > k->busy_until[gr]) k->busy_until[gr] = busy_end;
    k->bus_free[ci] = data_end;
    k->last_w[ci] = is_write;
    k->issued[ci]++;
    int64_t nxt = start + 1, v = data_end - k->trcd_tcl;
    if (v > nxt) nxt = v;
    hpush(k, nxt, EV_CHAN_, ci);
    /* -- completion -- */
    int64_t code = tag & TAG_MASK_;
    if (code == TAG_FILL_) {
        int64_t cid = tag >> TAG_SHIFT_;
        k->waiting[cid] = 0;
        hpush(k, data_end + 1, EV_CORE_, cid);
    } else if (code == TAG_POSTFILL_) {
        k->posted[tag >> TAG_SHIFT_]--;
    } else if (code == TAG_POSTLOAD_) {
        k->loads[tag >> TAG_SHIFT_]--;
    }
}

static void burst_event(KS *k, int64_t now, int64_t i) {
    int64_t *b = k->bursts + i * 4;
    for (int64_t j = 0; j < b[1] && !k->error; j++)
        enqueue(k, b[3] + j, 0, TAG_SCRUB_, now);
    for (int64_t j = 0; j < b[2] && !k->error; j++)
        enqueue(k, b[3] + j, 1, TAG_WB_, now);
}

static void scrub_event(KS *k, int64_t now) {
    if (k->done_cnt < k->n_cores) {
        int64_t addr = k->scrub_cursor % k->scrub_region;
        k->scrub_cursor++;
        k->scrub_reads++;
        enqueue(k, addr, 0, TAG_SCRUB_, now);
        if (k->error) return;
        hpush(k, now + k->scrub_interval, EV_SCRUB_, 0);
    }
}

/* -- snapshots -------------------------------------------------------------- */

static void take_counts(KS *k, int64_t *dst, int64_t upto) {
    int64_t n = k->n_ranks;
    for (int64_t g = 0; g < n; g++) account(k, g, upto);
    memcpy(dst + 0 * n, k->c_act, n * sizeof(int64_t));
    memcpy(dst + 1 * n, k->c_rd, n * sizeof(int64_t));
    memcpy(dst + 2 * n, k->c_wr, n * sizeof(int64_t));
    memcpy(dst + 3 * n, k->c_active, n * sizeof(int64_t));
    memcpy(dst + 4 * n, k->c_standby, n * sizeof(int64_t));
    memcpy(dst + 5 * n, k->c_pdown, n * sizeof(int64_t));
}

static void take_scalars(KS *k, int64_t *dst) {
    dst[0] = k->total; dst[1] = k->now; dst[2] = k->accesses_64b;
    dst[3] = k->hits; dst[4] = k->misses;
    dst[5] = k->n_data_r; dst[6] = k->n_data_w;
    dst[7] = k->n_ecc_r; dst[8] = k->n_ecc_w;
}

/* -- per-run reset and wind-down ------------------------------------------- */

/* Put every state array into the state a freshly built system has: an
   empty LLC, idle ranks with staggered refresh deadlines, idle channels
   and cores, an empty event queue.  Geometry and timing fields must be
   set.  Heap entries, wheel nodes and queue entries are written before
   they are read, so only their counts reset. */
void ks_reset(KS *k) {
    int64_t slots = k->n_sets * k->assoc, n = k->n_ranks, C = k->C;
    int64_t nc = k->n_cores;
    for (int64_t i = 0; i < slots; i++) k->l_tags[i] = -1;
    memset(k->l_lru, 0, slots * sizeof(int64_t));
    memset(k->l_dirty, 0, slots);
    memset(k->l_kind, 0, slots);
    memset(k->l_fill, 0, k->n_sets * sizeof(int64_t));
    k->clock = k->hits = k->misses = k->evictions_dirty = 0;
    memset(k->bank_ready, 0, n * k->B * sizeof(int64_t));
    memset(k->faulty, 0, n * k->B + k->MB + 1);
    int64_t *rank_rows[] = {k->busy_until, k->accounted_to, k->refreshes,
                            k->c_act, k->c_rd, k->c_wr, k->c_active,
                            k->c_standby, k->c_pdown, k->act_len, k->act_head};
    for (int r = 0; r < 11; r++) memset(rank_rows[r], 0, n * sizeof(int64_t));
    for (int64_t g = 0; g < n; g++)  /* Channel.__init__'s stagger */
        k->next_refresh[g] = (g % k->R + 1) * k->trefi / k->R;
    int64_t *chan_rows[] = {k->q_len, k->dem_cnt, k->bg_cnt, k->draining,
                            k->bus_free, k->last_w, k->fast_picks, k->issued,
                            k->refresh_due};
    for (int r = 0; r < 9; r++) memset(chan_rows[r], 0, C * sizeof(int64_t));
    memset(k->done, 0, nc); memset(k->waiting, 0, nc);
    memset(k->has_pend, 0, nc); memset(k->pend_wr, 0, nc);
    memset(k->posted, 0, nc * sizeof(int64_t));
    memset(k->loads, 0, nc * sizeof(int64_t));
    memset(k->instr, 0, nc * sizeof(int64_t));
    memset(k->pend_addr, 0, nc * sizeof(int64_t));
    k->done_cnt = 0;
    memset(k->buf_i, 0, sizeof k->buf_i);
    memset(k->buf_n, 0, sizeof k->buf_n);
    k->h_len = 0; k->w_cnt = 0; k->w_used = 0; k->w_free = -1;
    memset(k->w_occ, 0, sizeof k->w_occ); k->w_sum = 0;
    k->total = 0; k->error = 0; k->snap_taken = 0;
    k->resume_cid = -1; k->resume_now = 0; k->resume_ok = 0;
}

/* After the last epoch_run: the reference's wind-down.  A run that never
   reached the warm-up snapshots its counters now (as of cycle 0, so no
   residency is accounted) and measures from zero; a run that did not stop
   at the target ends with the live scalars.  Then every rank accounts its
   residency through the final cycle (MemorySystem.finalize). */
void ks_finish(KS *k, int64_t reached) {
    if (!k->snap_taken) {
        take_counts(k, k->snap_cnt, 0);
        memset(k->snap_scalars, 0, sizeof k->snap_scalars);
    }
    if (!reached) take_scalars(k, k->end_scalars);
    for (int64_t g = 0; g < k->n_ranks; g++) account(k, g, k->now);
}

/* -- main loop -------------------------------------------------------------- */
/* returns: >=0 refill needed for that core, RC_HEAP_EMPTY_, RC_TARGET_,
   RC_GROW_WINDOW_ (win_need entries required), or -10-err on error.  A
   refill or window request parks the EV_CORE event being handled; the
   next call resumes it (resume_ok = 0 reports an exhausted trace). */

int64_t epoch_run(KS *k) {
    if (k->resume_cid >= 0) {
        int64_t cid = k->resume_cid;
        k->resume_cid = -1;
        if (k->resume_ok) {
            int64_t rc = core_event(k, k->resume_now, cid);
            if (rc != RC_HANDLED_) return rc;
        } else {
            k->done[cid] = 1;
            k->done_cnt++;
        }
        if (k->error) return -10 - k->error;
    }
    while (k->w_cnt + k->h_len) {
        int64_t t, kind, payload;
        hpop(k, &t, &kind, &payload);
        k->now = t;
        if (k->total >= k->limit) {
            if (!k->snap_taken) {
                take_counts(k, k->snap_cnt, t);
                take_scalars(k, k->snap_scalars);
                k->snap_taken = 1;
                k->limit = k->target;
            }
            if (k->total >= k->target) {
                take_scalars(k, k->end_scalars);
                return RC_TARGET_;
            }
        }
        if (kind == EV_CHAN_) {
            chan_event(k, t, payload);
        } else if (kind == EV_CORE_) {
            if (k->done[payload]) continue;
            int64_t rc = core_event(k, t, payload);
            if (rc != RC_HANDLED_) return rc;
        } else if (kind == EV_ACCESS_) {
            access_event(k, t, payload);
        } else if (kind == EV_BURST_) {
            burst_event(k, t, payload);
        } else {  /* EV_SCRUB_ */
            scrub_event(k, t);
        }
        if (k->error) return -10 - k->error;
    }
    return RC_HEAP_EMPTY_;
}
"""

_CORE = NativeCore(
    "_epochcore", _CDEF, _CSRC,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native"),
)

#: epoch_run return codes (see the C source).
_RC_TARGET = -2
_RC_GROW_WINDOW = -3
_ERRORS = {
    -11: "channel queue overflow; caller must respect can_accept()",
    -12: "runaway eviction cascade",
    -13: "epoch native event heap overflow",
}

#: LineKind values read back as enum members (C stores raw ints).
_KINDS = (LineKind.DATA, LineKind.ECC, LineKind.XOR)

#: Trace items pulled per refill from plain-iterator traces: the first
#: pull is small and each refill doubles up to the cap, so short runs do
#: not over-pull shared generators.
_CHUNK_MIN = 512
_CHUNK_MAX = 4096

#: Rows of the resident per-rank, per-channel and per-core blocks; each
#: row backs the ``KS`` field of the same name.
_RANK_ROWS = ("busy_until", "accounted_to", "next_refresh", "refreshes",
              "c_act", "c_rd", "c_wr", "c_active", "c_standby", "c_pdown",
              "act_len", "act_head")
_CHAN_ROWS = ("q_len", "dem_cnt", "bg_cnt", "draining", "bus_free", "last_w",
              "fast_picks", "issued", "refresh_due")
#: The energy-counter rows, in RankEnergyCounters field order.
_COUNTER_ROWS = _RANK_ROWS[4:10]
_CORE_ROWS = ("posted", "loads", "instr", "pend_addr")
_FLAG_ROWS = ("done", "waiting", "has_pend", "pend_wr")

_FRESH_COUNTERS = RankEnergyCounters()


def _unpack_key(pk: int) -> "tuple[int, int, int]":
    """Packed queue key -> (rank, bank, row)."""
    row = pk & ((1 << _PK_ROW_BITS) - 1)
    bank = (pk >> _PK_ROW_BITS) & ((1 << _PK_BANK_BITS) - 1)
    return pk >> (_PK_ROW_BITS + _PK_BANK_BITS), bank, row


def _anon_i64(n: int) -> np.ndarray:
    """*n* int64 slots on an anonymous mapping of their own.

    Pages the core never touches never become resident: the event queue
    and the channel queues are sized for the worst case but use a few
    pages.  Private, so forked pool workers do not share the parent's.
    """
    return np.frombuffer(mmap.mmap(-1, n * 8, flags=mmap.MAP_PRIVATE), dtype=np.int64)


class _Resident:
    """One geometry's ``KS`` struct and every array behind it.

    Built once per process per :func:`_resident` key, with its pointers
    cast once, and reused by every run of that shape: ``ks_reset`` puts
    the arrays into a fresh system's state and :func:`_stage` copies in
    whatever Python-side state is not fresh.  The LLC is the five slot
    arrays alone; the core finds a line by scanning its set.  ``gen`` counts the runs
    staged here; a run's full state stays readable (:func:`readback`)
    until the next run of the same geometry.
    """

    def __init__(self, ffi, key):
        C, R, B, MB, n_sets, assoc, n_cores, depth, cap = key
        n_ranks = C * R
        slots = n_sets * assoc
        self.ffi = ffi
        self.gen = 0
        self.ks = ks = ffi.new("KS *")
        ks.C, ks.R, ks.B, ks.MB = C, R, B, MB
        ks.n_ranks, ks.n_cores = n_ranks, n_cores
        ks.QUEUE_DEPTH = depth
        ks.n_sets, ks.assoc, ks.set_mask = n_sets, assoc, n_sets - 1
        ks.h_cap = cap
        self.l_tags = np.zeros(slots, np.int64)
        self.l_lru = np.zeros(slots, np.int64)
        self.l_dirty = np.zeros(slots, np.uint8)
        self.l_kind = np.zeros(slots, np.uint8)
        self.l_fill = np.zeros(n_sets, np.int64)
        self.bank_ready = np.zeros(n_ranks * B, np.int64)
        self.act_ring = np.zeros(n_ranks * 4, np.int64)
        self.rank = np.zeros((len(_RANK_ROWS), n_ranks), np.int64)
        self.chan = np.zeros((len(_CHAN_ROWS), C), np.int64)
        self.core = np.zeros((len(_CORE_ROWS), n_cores), np.int64)
        self.flags = np.zeros((len(_FLAG_ROWS), n_cores), np.uint8)
        self.snap_cnt = np.zeros((6, n_ranks), np.int64)
        # Sized so every decodable global-bank id (gr * B + bank, bank < the
        # mapping's banks_per_rank) indexes in bounds, matching the oracle's
        # set-membership test over (c*R+r)*B+b ids.
        self.faulty = np.zeros(n_ranks * B + MB + 1, np.uint8)
        self.qes = _anon_i64(C * depth * 7)
        self.h = _anon_i64(cap * 4)
        self.w_node = _anon_i64(cap * 2)
        self.no_bursts = np.zeros(4, np.int64)
        self.no_bursts_ptr = self.ptr(self.no_bursts)
        self.bursts = None  # this run's burst table, alive while it runs
        self.win = np.zeros(64, np.int64)
        for name in ("l_tags", "l_lru", "l_dirty", "l_kind", "l_fill", "bank_ready",
                     "act_ring", "snap_cnt", "faulty", "qes", "h", "w_node"):
            setattr(ks, name, self.ptr(getattr(self, name)))
        for block, rows in ((self.rank, _RANK_ROWS), (self.chan, _CHAN_ROWS),
                            (self.core, _CORE_ROWS), (self.flags, _FLAG_ROWS)):
            for row, name in zip(block, rows):
                setattr(ks, name, self.ptr(row))
        ks.bursts = self.no_bursts_ptr
        ks.win, ks.win_cap = self.ptr(self.win), len(self.win)

    def ptr(self, a: np.ndarray):
        """Raw pointer to *a*'s data; the caller keeps *a* alive."""
        return self.ffi.cast("uint8_t *" if a.dtype == np.uint8 else "int64_t *", a.ctypes.data)

    def grow_window(self, need: int) -> None:
        grown = np.zeros(max(2 * len(self.win), need), dtype=np.int64)
        grown[: len(self.win)] = self.win
        self.win = grown
        self.ks.win, self.ks.win_cap = self.ptr(grown), len(grown)


#: Resident state per geometry, for this process.
_RESIDENT: "dict[tuple, _Resident]" = {}


def _resident(ffi, sim) -> _Resident:
    chans = sim.mem.channels
    llc = sim.llc
    key = (
        len(chans), len(chans[0].ranks), chans[0].ranks[0].banks,
        sim.mem.mapping.banks_per_rank, llc.n_sets, llc.assoc, len(sim.cores),
        type(chans[0]).QUEUE_DEPTH, HEAP_CAP,
    )
    res = _RESIDENT.get(key)
    if res is None:
        res = _RESIDENT[key] = _Resident(ffi, key)
    return res


def available() -> bool:
    """True when the compiled core is importable (builds on first call)."""
    return _CORE.available()


def eligible(sim) -> bool:
    """True when *sim* fits the compiled core's fixed layout and starts
    from a quiesced system (empty channel queues and event heap)."""
    chans = sim.mem.channels
    mapping = sim.mem.mapping
    return (
        len(sim.cores) <= MAX_CORES
        and mapping.channels == len(chans)
        and mapping.ranks_per_channel == len(chans[0].ranks)
        and max(chans[0].ranks[0].banks, mapping.banks_per_rank) < (1 << _PK_BANK_BITS)
        and not sim._heap
        and not any(ch.queue for ch in chans)
    )


def _stage(lib, res, sim, warmup_instructions: int, measure_instructions: int) -> None:
    """Load *sim* into *res* for one run.

    Sets every per-run field, resets the arrays to a fresh system in C,
    then copies in only the Python-side state that is not fresh: a used
    LLC, a rank or channel that has seen traffic or accounting, a core
    with progress.  The systems a sweep builds are fresh, so they copy
    nothing.
    """
    ks = res.ks
    mem = sim.mem
    llc = sim.llc
    eccm = sim.ecc_model
    mapping = mem.mapping
    t = mem.timing
    chans = mem.channels
    Ch = type(chans[0])
    R = ks.R
    B = ks.B

    # -- mapping / timing / policy constants --------------------------------------------
    ks.lpp = mapping.lines_per_page
    ks.map_channels = mapping.channels
    ks.map_ranks = mapping.ranks_per_channel
    ks.seq_policy = 1 if mapping.policy == "sequential" else 0
    ks.hot_base = -1 if mapping.hot_arena_base_line is None else mapping.hot_arena_base_line
    ks.hot_ranks = mapping.hot_ranks
    ks.trcd, ks.tcl, ks.tcwl, ks.tburst = t.trcd, t.tcl, t.tcwl, t.tburst
    ks.trrd, ks.tfaw, ks.twtr, ks.trtrs, ks.txp = t.trrd, t.tfaw, t.twtr, t.trtrs, t.txp
    ks.trfc, ks.trefi = t.trfc, t.trefi
    ks.bb_read, ks.bb_write = t.bank_busy_read, t.bank_busy_write
    ks.trcd_tcl = t.trcd + t.tcl
    ks.PD = Ch.POWERDOWN_DELAY
    ks.WRITE_DRAIN = Ch.WRITE_DRAIN
    ks.WRITE_DRAIN_LOW = Ch.WRITE_DRAIN_LOW
    ks.HIT = sim.HIT_LATENCY
    ks.POSTED_CAP = sim.POSTED_CAP
    ks.load_mlp = sim.load_mlp
    ks.units_64b = mem._units_64b
    ks.ipc = sim.IPC

    # -- ECC formula constants ----------------------------------------------------------
    if eccm.kind == EccTraffic.INLINE:
        ks.ecc_mode = 0
        ks.lpp_e = ks.ppc = ks.gpp = ks.pc1 = ks.cov = 1
        ks.eb = 0
    elif eccm.parity_channels is not None:
        ks.ecc_mode = 1
        ks.eb = ECC_REGION_BASE
        ks.lpp_e = eccm.lines_per_page
        ks.ppc = eccm.per_page_coverage
        ks.gpp = max(1, eccm.lines_per_page // eccm.per_page_coverage)
        ks.pc1 = eccm.parity_channels - 1
        ks.cov = 1
    else:
        ks.ecc_mode = 2
        ks.eb = ECC_REGION_BASE
        ks.cov = max(1, eccm.coverage)
        ks.lpp_e = ks.ppc = ks.gpp = ks.pc1 = 1
    ks.ecc_insert_kind = int(
        LineKind.ECC if eccm.kind == EccTraffic.ECC_LINE else LineKind.XOR
    )
    ks.ecc_uncached = 0 if eccm.cache_ecc_lines else 1

    lib.ks_reset(ks)

    # -- patrol scrub / degraded-mode / burst state -------------------------------------
    scrub = sim.scrub
    if scrub is not None:
        ks.scrub_interval = scrub.interval_cycles
        ks.scrub_region = scrub.region_lines
    else:
        ks.scrub_interval = ks.scrub_region = 1
    ks.scrub_cursor = sim._scrub_cursor
    ks.scrub_reads = sim.scrub_reads
    degraded = sim.degraded
    faulty_gb = ()
    if degraded is not None:
        faulty_gb = [
            (c * R + r) * B + b
            for (c, r, b) in degraded.faulty_banks
            if c < ks.C and r < R and b < B
        ]
    if faulty_gb:
        res.faulty[faulty_gb] = 1
        ks.mat_on = 1
        ks.mat_cov = degraded.ecc_line_coverage
        ks.mat_base = MATERIALIZED_BASE
    else:
        ks.mat_on = 0
        ks.mat_cov = 1
        ks.mat_base = 0
    if sim._bursts:
        res.bursts = np.array(sim._bursts, dtype=np.int64).reshape(-1)
        ks.bursts = res.ptr(res.bursts)
    else:
        ks.bursts = res.no_bursts_ptr

    # -- per-window IPC timeline ---------------------------------------------------------
    ks.ipc_window = sim.ipc_window or 0
    ks.win_len = len(sim._window_instr)
    if ks.ipc_window:
        if ks.win_len > len(res.win):
            res.grow_window(ks.win_len)
        res.win[:] = 0
        res.win[: ks.win_len] = sim._window_instr

    # -- LLC: fresh (never accessed since construction or reset) or copied ---------------
    ks.clock, ks.hits, ks.misses = llc._clock, llc._hits, llc._misses
    ks.evictions_dirty = llc._evictions_dirty
    if llc._where or llc._clock:
        res.l_tags[:] = llc._tags
        res.l_lru[:] = llc._lru
        res.l_dirty[:] = llc._dirty
        res.l_kind[:] = llc._kind
        res.l_fill[:] = llc._fill

    # -- ranks and channels (queues start empty: see eligible()) ------------------------
    nr0 = [(i + 1) * t.trefi // max(1, R) for i in range(R)]
    rank, chan = res.rank, res.chan
    for ci, ch in enumerate(chans):
        if (ch._draining or ch.bus_free or ch.last_was_write or ch.fast_picks
                or ch.issued_requests or ch._refresh_due):
            chan[3:, ci] = (ch._draining, ch.bus_free, ch.last_was_write,
                            ch.fast_picks, ch.issued_requests, ch._refresh_due)
        for ri, r in enumerate(ch.ranks):
            if (r.refreshes or r.accounted_to or r.busy_until or r.act_times
                    or r.next_refresh != nr0[ri] or any(r.bank_ready)
                    or r.counters != _FRESH_COUNTERS):
                gr = ci * R + ri
                c = r.counters
                rank[:10, gr] = (r.busy_until, r.accounted_to, r.next_refresh, r.refreshes,
                                 c.activates, c.read_bursts, c.write_bursts, c.cycles_active,
                                 c.cycles_precharge_standby, c.cycles_powerdown)
                rank[10, gr] = len(r.act_times)
                res.act_ring[gr * 4 : gr * 4 + len(r.act_times)] = r.act_times
                res.bank_ready[gr * B : (gr + 1) * B] = r.bank_ready

    # -- cores ----------------------------------------------------------------------------
    for cid, c in enumerate(sim.cores):
        pend = c.pending
        if (c.done or c.waiting or pend is not None or c.instructions
                or c.outstanding_posted or c.outstanding_loads):
            res.core[:, cid] = (c.outstanding_posted, c.outstanding_loads, c.instructions,
                                pend[0] if pend is not None else 0)
            res.flags[:, cid] = (c.done, c.waiting, pend is not None,
                                 pend is not None and pend[1])
            ks.done_cnt += c.done

    # -- run control and counters ---------------------------------------------------------
    ks.seq = sim._seq
    ks.now = sim.now
    ks.limit = warmup_instructions
    ks.target = warmup_instructions + measure_instructions
    ks.accesses_64b = mem.accesses_64b
    counters = sim.counters
    ks.n_data_r = counters.data_reads
    ks.n_data_w = counters.data_writes
    ks.n_ecc_r = counters.ecc_reads
    ks.n_ecc_w = counters.ecc_writes

    # Initial events in reference push order: one EV_CORE per core, the
    # first scrub tick, then one EV_BURST per scheduled burst.  The wheel
    # starts at the earliest of them.
    initial = [(0, EV_CORE, cid) for cid in range(len(sim.cores))]
    if scrub is not None:
        initial.append((scrub.interval_cycles, EV_SCRUB, 0))
    initial += [(cycle, EV_BURST, i) for i, (cycle, _, _, _) in enumerate(sim._bursts)]
    ks.w_base = min((ev[0] for ev in initial), default=0)
    for ev in initial:
        lib.push_event(ks, *ev)


def _execute(lib, ffi, res, traces) -> int:
    """Run the loop to its end, servicing refill and window-growth requests;
    returns the final ``epoch_run`` code."""
    ks = res.ks
    n_cores = len(traces)
    chunk = [_CHUNK_MIN] * n_cores
    hold = [None] * n_cores  # each core's current batch, alive while it is read

    def refill(cid) -> bool:
        """Point core *cid* at its next trace batch; False when exhausted.

        ``TraceStream.take_batch`` hands over its stored contiguous
        int64/int64/bool blocks, so this only swaps pointers (bool is one
        byte, 0 or 1); other iterators are staged into such arrays.
        """
        tr = traces[cid]
        if isinstance(tr, TraceStream):
            gaps, lines, writes = tr.take_batch()
        else:
            items = list(islice(tr, chunk[cid]))
            chunk[cid] = min(2 * chunk[cid], _CHUNK_MAX)
            gaps, lines, writes = zip(*items) if items else ((), (), ())
            gaps = np.array(gaps, dtype=np.int64)
            lines = np.array(lines, dtype=np.int64)
            writes = np.array(writes, dtype=np.bool_)
        n = len(gaps)
        if not n:
            return False
        hold[cid] = (gaps, lines, writes)
        ks.buf_gap[cid] = ffi.from_buffer("int64_t[]", gaps)
        ks.buf_addr[cid] = ffi.from_buffer("int64_t[]", lines)
        ks.buf_wr[cid] = ffi.from_buffer("uint8_t[]", writes)
        ks.buf_i[cid] = 0
        ks.buf_n[cid] = n
        return True

    rc = lib.epoch_run(ks)
    while rc >= 0 or rc == _RC_GROW_WINDOW:
        if rc == _RC_GROW_WINDOW:
            res.grow_window(ks.win_need)
            ks.resume_ok = 1
        else:
            ks.resume_ok = 1 if refill(rc) else 0
        rc = lib.epoch_run(ks)
    if rc in _ERRORS:
        raise RuntimeError(_ERRORS[rc])
    return rc


def run_native(sim, warmup_instructions: int, measure_instructions: int) -> SimResult:
    """Run the compiled epoch loop; same contract as ``_run_reference``.

    Writes back only what drivers, telemetry and the power model read:
    time, event sequence, instruction and access counters, LLC counters,
    per-channel issue counts, per-rank energy counters and residency
    (finalized through the last cycle), scrub progress and the IPC
    window.  The rest of the post-run state stays in the resident arrays
    until :func:`readback`.
    """
    mod = _CORE.load()
    lib, ffi = mod.lib, mod.ffi
    obs_armed = obs.enabled()
    wall0 = perf_counter() if obs_armed else 0.0
    mem = sim.mem
    llc = sim.llc
    if llc._native is not None or mem._native is not None:
        raise RuntimeError(
            "LLC or memory system holds another system's unread native state; "
            "call epochnative.readback() on that system (or LLC.reset()) first"
        )
    seq0 = sim._seq
    res = _resident(ffi, sim)
    res.gen += 1
    ks = res.ks
    _stage(lib, res, sim, warmup_instructions, measure_instructions)
    rc = _execute(lib, ffi, res, [c.trace for c in sim.cores])
    lib.ks_finish(ks, rc == _RC_TARGET)
    res.bursts = None

    # -- write back what is read ------------------------------------------------------------
    end = list(ks.end_scalars)
    start = list(ks.snap_scalars)
    sim.now = end[1]
    sim._seq = ks.seq
    sim.total_instructions = end[0]
    sim.counters = AccessCounters(*end[5:])
    mem.accesses_64b = end[2]
    llc._clock = ks.clock
    llc._hits = end[3]
    llc._misses = end[4]
    llc._evictions_dirty = ks.evictions_dirty
    sim._scrub_cursor = ks.scrub_cursor
    sim.scrub_reads = ks.scrub_reads
    if sim.ipc_window:
        sim._window_instr[:] = res.win[: ks.win_len].tolist()
    chans = mem.channels
    chan = dict(zip(_CHAN_ROWS, res.chan.tolist()))
    for ch, fast, issued in zip(chans, chan["fast_picks"], chan["issued"]):
        ch.fast_picks = fast
        ch.issued_requests = issued
    rank = dict(zip(_RANK_ROWS, res.rank.tolist()))
    counts = zip(*(rank[row] for row in _COUNTER_ROWS))
    ranks = [r for ch in chans for r in ch.ranks]
    for r, busy, acct, cnt in zip(ranks, rank["busy_until"], rank["accounted_to"], counts):
        r.busy_until = busy
        r.accounted_to = acct
        r.counters = RankEnergyCounters(*cnt)
    run = (res, res.gen)
    sim._native = llc._native = mem._native = run

    R = ks.R
    snap = list(zip(*res.snap_cnt.tolist()))
    baseline = [
        [RankEnergyCounters(*snap[ci * R + ri]) for ri in range(R)]
        for ci in range(len(chans))
    ]
    sim.energy_baseline = baseline
    energy = mem.energy_since(baseline)
    if obs_armed:
        sim._emit_run_telemetry(perf_counter() - wall0, sim._seq - seq0)
    return SimResult(
        instructions=end[0] - start[0],
        cycles=end[1] - start[1],
        energy=energy,
        accesses_64b=end[2] - start[2],
        counters=AccessCounters(*(e - s for e, s in zip(end[5:], start[5:]))),
        llc_hits=end[3] - start[3],
        llc_misses=end[4] - start[4],
    )


def readback(sim) -> None:
    """Copy the full post-run state of *sim*'s last native run into its
    object model: LLC slots and address map, channel queues and scheduler
    state, rank timing, core state.

    A no-op when *sim* has no unread native run.  The state lives in the
    resident arrays of the run's geometry, so it must be read before
    another run of that geometry starts; after that this raises.
    """
    run = sim._native
    if run is None:
        return
    res, gen = run
    if res.gen != gen:
        raise RuntimeError(
            "native run state was overwritten by a later run of the same geometry; "
            "call epochnative.readback() before running another system"
        )
    ks = res.ks
    llc = sim.llc
    mem = sim.mem
    if llc._native is run:
        llc._tags[:] = res.l_tags.tolist()
        llc._lru[:] = res.l_lru.tolist()
        llc._dirty[:] = res.l_dirty.view(bool).tolist()
        llc._kind[:] = [_KINDS[v] for v in res.l_kind.tolist()]
        llc._fill[:] = res.l_fill.tolist()
        llc._where.clear()
        filled = np.flatnonzero(np.arange(llc.assoc) < res.l_fill[:, None])
        llc._where.update(zip(res.l_tags[filled].tolist(), filled.tolist()))
        llc._native = None
    if mem._native is run:
        B = ks.B
        depth = ks.QUEUE_DEPTH
        rank = dict(zip(_RANK_ROWS, res.rank.tolist()))
        chan = dict(zip(_CHAN_ROWS, res.chan.tolist()))
        ranks = [r for ch in mem.channels for r in ch.ranks]
        for gr, r in enumerate(ranks):
            r.bank_ready[:] = res.bank_ready[gr * B : (gr + 1) * B].tolist()
            al, head = rank["act_len"][gr], rank["act_head"][gr]
            r.act_times = deque(
                (int(res.act_ring[gr * 4 + ((head + i) & 3)]) for i in range(al)), maxlen=4
            )
            r.next_refresh = rank["next_refresh"][gr]
            r.refreshes = rank["refreshes"][gr]
        for ci, ch in enumerate(mem.channels):
            entries = res.qes[ci * depth * 7 : (ci * depth + chan["q_len"][ci]) * 7]
            queue = []
            pend: "dict[tuple, int]" = {}
            for _, _, pk, wr, arrive, tag, dem in entries.reshape(-1, 7).tolist():
                key = _unpack_key(pk)
                queue.append(
                    MemRequest(*key, is_write=bool(wr), arrive=arrive, tag=tag, demand=bool(dem))
                )
                pend[key] = pend.get(key, 0) + 1
            ch.queue = queue
            ch._pending_counts = pend
            ch._demand_count = chan["dem_cnt"][ci]
            ch._background_count = chan["bg_cnt"][ci]
            ch._draining = bool(chan["draining"][ci])
            ch.bus_free = chan["bus_free"][ci]
            ch.last_was_write = bool(chan["last_w"][ci])
            ch._refresh_due = chan["refresh_due"][ci]
        mem._native = None
    core = res.core.tolist()
    flags = res.flags.tolist()
    for cid, c in enumerate(sim.cores):
        c.outstanding_posted, c.outstanding_loads, c.instructions, addr = (
            row[cid] for row in core
        )
        done, waiting, has_pend, pend_wr = (row[cid] for row in flags)
        c.done = bool(done)
        c.waiting = bool(waiting)
        c.pending = (addr, bool(pend_wr)) if has_pend else None
    sim._native = None
