"""Compiled epoch kernel: the fast implementation of the timing simulator.

The event-driven loop in :meth:`repro.cpu.system.SimSystem._run_reference`
is the semantic definition of the simulator and costs a few microseconds
per event in the interpreter.  This module re-executes exactly the same
discrete-event semantics in C, compiled with :mod:`cffi` through
:class:`repro.util.native.NativeCore`, over flat int64 NumPy state: the
LLC slot arrays, per-bank timing, queue entries, and energy counters are
staged in once, the loop runs, and the state is exported back into the
object model - so post-run introspection, ``finalize()``, and the power
integration see exactly what the reference loop would have left behind.

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

* events are ``(time, seq, kind, payload)`` with ``seq`` incremented at
  exactly the reference push sites, so heap order replays exactly;
* DRAM decode is recomputed arithmetically per address (positive int64
  division matches Python floor division);
* pending-request counts are recounted from the queue at pick time,
  which equals the reference's incremental pending map for every key.

Trace iterators are prefetched in chunks, so after an early stop (the
instruction target hit) a shared iterator may have advanced further than
the reference would have.  Nothing reads a trace iterator after ``run()``.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from time import perf_counter

import numpy as np

from repro import obs
from repro.cpu.llc import LineKind
from repro.cpu.system import EV_BURST, EV_CORE, EV_SCRUB, AccessCounters, SimResult
from repro.dram.channel import MemRequest
from repro.dram.power import RankEnergyCounters
from repro.ecc.base import EccTraffic
from repro.util.native import NativeCore

#: Max cores the native loop supports (fixed-size trace-buffer slots).
MAX_CORES = 64

#: Event-heap capacity (entries).  Live events are bounded by a few per
#: core plus queue occupancy and in-flight channel wakeups - observed
#: peaks are in the hundreds; overflow raises rather than truncates.
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
    /* llc address -> slot open-addressing map */
    int64_t *wh_keys; int64_t *wh_vals; int64_t wh_mask, wh_used, wh_tomb;
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
    int64_t *buf_gap[64]; int64_t *buf_addr[64];
    uint8_t *buf_wr[64]; int64_t *buf_dt[64];
    int64_t buf_i[64], buf_n[64];
    /* event heap: 4 int64 per entry */
    int64_t *h; int64_t h_len, h_cap, seq;
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
void wh_bulk(KS *k, int64_t *keys, int64_t *vals, int64_t n);
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

/* -- event heap: (time, seq) ordered, 4 int64 per entry -------------------- */

static void hpush(KS *k, int64_t t, int64_t kind, int64_t payload) {
    int64_t *h = k->h;
    int64_t i = k->h_len;
    if (i >= k->h_cap) { k->error = ERR_HEAP_; return; }
    k->h_len = i + 1;
    int64_t s = k->seq++;
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

static void hpop(KS *k, int64_t *t, int64_t *kind, int64_t *payload) {
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

void push_event(KS *k, int64_t t, int64_t kind, int64_t payload) {
    hpush(k, t, kind, payload);
}

/* -- LLC address -> slot map (open addressing, -1 empty / -2 tombstone) ---- */

static inline uint64_t wh_hash(int64_t key) {
    return (uint64_t)key * 0x9E3779B97F4A7C15ull;
}

static int64_t wh_get(KS *k, int64_t key) {
    int64_t mask = k->wh_mask;
    uint64_t i = wh_hash(key) & (uint64_t)mask;
    for (;;) {
        int64_t kk = k->wh_keys[i];
        if (kk == key) return k->wh_vals[i];
        if (kk == -1) return -1;
        i = (i + 1) & (uint64_t)mask;
    }
}

/* Rebuild the map from the slot arrays (every live key is a cached line
   tag), dropping all tombstones. */
static void wh_rehash(KS *k) {
    int64_t cap = k->wh_mask + 1;
    int64_t *keys = k->wh_keys, *vals = k->wh_vals;
    for (int64_t i = 0; i < cap; i++) keys[i] = -1;
    k->wh_used = 0; k->wh_tomb = 0;
    for (int64_t s = 0; s < k->n_sets; s++) {
        int64_t fill = k->l_fill[s];
        for (int64_t w = 0; w < fill; w++) {
            int64_t slot = s * k->assoc + w;
            int64_t key = k->l_tags[slot];
            uint64_t i = wh_hash(key) & (uint64_t)k->wh_mask;
            while (keys[i] != -1) i = (i + 1) & (uint64_t)k->wh_mask;
            keys[i] = key; vals[i] = slot;
            k->wh_used++;
        }
    }
}

static void wh_put(KS *k, int64_t key, int64_t val) {
    if ((k->wh_used + k->wh_tomb) * 2 >= k->wh_mask + 1) wh_rehash(k);
    int64_t mask = k->wh_mask;
    uint64_t i = wh_hash(key) & (uint64_t)mask;
    for (;;) {
        int64_t kk = k->wh_keys[i];
        if (kk == key) { k->wh_vals[i] = val; return; }
        if (kk < 0) {  /* empty or tombstone */
            if (kk == -2) k->wh_tomb--;
            k->wh_keys[i] = key; k->wh_vals[i] = val;
            k->wh_used++;
            return;
        }
        i = (i + 1) & (uint64_t)mask;
    }
}

static void wh_del(KS *k, int64_t key) {
    int64_t mask = k->wh_mask;
    uint64_t i = wh_hash(key) & (uint64_t)mask;
    for (;;) {
        int64_t kk = k->wh_keys[i];
        if (kk == key) {
            k->wh_keys[i] = -2;
            k->wh_used--; k->wh_tomb++;
            return;
        }
        if (kk == -1) return;
        i = (i + 1) & (uint64_t)mask;
    }
}

void wh_bulk(KS *k, int64_t *keys, int64_t *vals, int64_t n) {
    for (int64_t i = 0; i < n; i++) wh_put(k, keys[i], vals[i]);
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
/* returns 1 hit, 0 miss without victim, -1 miss with victim (filled) */

static int64_t llc_access(KS *k, int64_t addr, int64_t kind, int64_t make_dirty,
                          int64_t *ev_addr, int64_t *ev_kind, int64_t *ev_dirty) {
    int64_t slot = wh_get(k, addr);
    k->clock++;
    if (slot >= 0) {
        k->l_lru[slot] = k->clock;
        if (make_dirty) k->l_dirty[slot] = 1;
        k->hits++;
        return 1;
    }
    k->misses++;
    int64_t s = addr & k->set_mask, base = s * k->assoc;
    int64_t victim, has_ev = 0;
    int64_t filled = k->l_fill[s];
    if (filled < k->assoc) {
        victim = base + filled;
        k->l_fill[s] = filled + 1;
    } else {
        victim = base;
        int64_t best = k->l_lru[base];
        for (int64_t i = base + 1; i < base + k->assoc; i++)
            if (k->l_lru[i] < best) { best = k->l_lru[i]; victim = i; }
        *ev_addr = k->l_tags[victim];
        *ev_kind = k->l_kind[victim];
        *ev_dirty = k->l_dirty[victim];
        if (*ev_dirty) k->evictions_dirty++;
        wh_del(k, *ev_addr);
        has_ev = 1;
    }
    k->l_tags[victim] = addr;
    k->l_lru[victim] = k->clock;
    k->l_dirty[victim] = (uint8_t)make_dirty;
    k->l_kind[victim] = (uint8_t)kind;
    wh_put(k, addr, victim);
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
    hpush(k, now + k->buf_dt[cid][bi], EV_ACCESS_, cid);
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
    while (k->h_len) {
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

#: LineKind values exported back as enum members (C stores raw ints).
_KINDS = (LineKind.DATA, LineKind.ECC, LineKind.XOR)

#: Trace items pulled per refill from plain-iterator traces: the first
#: pull is small and each refill doubles up to the cap, so short runs do
#: not over-pull shared generators.
_CHUNK_MIN = 512
_CHUNK_MAX = 4096


def _unpack_key(pk: int) -> "tuple[int, int, int]":
    """Packed queue key -> (rank, bank, row)."""
    row = pk & ((1 << _PK_ROW_BITS) - 1)
    bank = (pk >> _PK_ROW_BITS) & ((1 << _PK_BANK_BITS) - 1)
    return pk >> (_PK_ROW_BITS + _PK_BANK_BITS), bank, row


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


def run_native(sim, warmup_instructions: int, measure_instructions: int) -> SimResult:
    """Run the compiled epoch loop; same contract as ``_run_reference``."""
    mod = _CORE.load()
    lib, ffi = mod.lib, mod.ffi
    obs_armed = obs.enabled()
    wall0 = perf_counter() if obs_armed else 0.0

    mem = sim.mem
    llc = sim.llc
    eccm = sim.ecc_model
    mapping = mem.mapping
    t = mem.timing
    chans = mem.channels
    C = len(chans)
    R = len(chans[0].ranks)
    B = chans[0].ranks[0].banks
    n_ranks = C * R
    cores = sim.cores
    n_cores = len(cores)
    QUEUE_DEPTH = type(chans[0]).QUEUE_DEPTH
    IPC = sim.IPC
    seq0 = sim._seq

    ks = ffi.new("KS *")
    hold = []  # keep every backing NumPy array alive for the run

    def ptr(a):
        hold.append(a)
        return ffi.cast("uint8_t *" if a.dtype == np.uint8 else "int64_t *", a.ctypes.data)

    def i64(values):
        a = np.ascontiguousarray(values, dtype=np.int64)
        return a, ptr(a)

    def u8(values):
        a = np.ascontiguousarray(values, dtype=np.uint8)
        return a, ptr(a)

    # -- geometry / timing / policy constants -------------------------------------------
    ks.C, ks.R, ks.B, ks.MB = C, R, B, mapping.banks_per_rank
    ks.n_ranks, ks.n_cores = n_ranks, n_cores
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
    ks.PD = type(chans[0]).POWERDOWN_DELAY
    ks.WRITE_DRAIN = type(chans[0]).WRITE_DRAIN
    ks.WRITE_DRAIN_LOW = type(chans[0]).WRITE_DRAIN_LOW
    ks.QUEUE_DEPTH = QUEUE_DEPTH
    ks.HIT = sim.HIT_LATENCY
    ks.POSTED_CAP = sim.POSTED_CAP
    ks.load_mlp = sim.load_mlp
    ks.units_64b = mem._units_64b

    # -- ECC formula constants ----------------------------------------------------------
    from repro.cpu.ecc_traffic import ECC_REGION_BASE

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
    faulty_gb = set()
    if degraded is not None:
        faulty_gb = {
            (c * R + r) * B + b
            for (c, r, b) in degraded.faulty_banks
            if c < C and r < R and b < B
        }
    if faulty_gb:
        from repro.cpu.degraded import MATERIALIZED_BASE

        ks.mat_on = 1
        ks.mat_cov = degraded.ecc_line_coverage
        ks.mat_base = MATERIALIZED_BASE
    else:
        ks.mat_on = 0
        ks.mat_cov = 1
        ks.mat_base = 0
    # Sized so every decodable global-bank id (gr * B + bank, bank < the
    # mapping's banks_per_rank) indexes in bounds, matching the oracle's
    # set-membership test over (c*R+r)*B+b ids.
    faulty_map = np.zeros(n_ranks * B + mapping.banks_per_rank + 1, dtype=np.uint8)
    faulty_map[list(faulty_gb)] = 1
    ks.faulty = ptr(faulty_map)
    _, ks.bursts = i64(np.reshape(sim._bursts, -1) if sim._bursts else [0])

    # -- per-window IPC timeline ---------------------------------------------------------
    ks.ipc_window = sim.ipc_window or 0
    ks.win_len = len(sim._window_instr)
    win = np.zeros(max(64, ks.win_len), dtype=np.int64)
    win[: ks.win_len] = sim._window_instr
    ks.win_cap = len(win)
    ks.win = ptr(win)

    # -- LLC flat state -----------------------------------------------------------------
    ks.set_mask = llc._set_mask
    ks.assoc = llc.assoc
    ks.n_sets = llc.n_sets
    l_tags, ks.l_tags = i64(llc._tags)
    l_lru, ks.l_lru = i64(llc._lru)
    l_dirty, ks.l_dirty = u8(llc._dirty)
    l_kind, ks.l_kind = u8([int(v) for v in llc._kind])
    l_fill, ks.l_fill = i64(llc._fill)
    ks.clock, ks.hits, ks.misses = llc._clock, llc._hits, llc._misses
    ks.evictions_dirty = llc._evictions_dirty
    slots = llc.n_sets * llc.assoc
    wh_cap = 1 << max(6, (4 * slots - 1).bit_length())
    wh_keys, ks.wh_keys = i64(np.full(wh_cap, -1, dtype=np.int64))
    wh_vals, ks.wh_vals = i64(np.zeros(wh_cap, dtype=np.int64))
    ks.wh_mask = wh_cap - 1
    ks.wh_used = ks.wh_tomb = 0
    if llc._where:
        keys, ks_keys = i64(np.fromiter(llc._where.keys(), dtype=np.int64))
        _, ks_vals = i64(np.fromiter(llc._where.values(), dtype=np.int64))
        lib.wh_bulk(ks, ks_keys, ks_vals, len(keys))

    # -- rank state ---------------------------------------------------------------------
    ranks = [r for ch in chans for r in ch.ranks]
    a_bank_ready, ks.bank_ready = i64([b for r in ranks for b in r.bank_ready])
    a_busy, ks.busy_until = i64([r.busy_until for r in ranks])
    a_acct, ks.accounted_to = i64([r.accounted_to for r in ranks])
    a_nref, ks.next_refresh = i64([r.next_refresh for r in ranks])
    a_refs, ks.refreshes = i64([r.refreshes for r in ranks])
    a_cact, ks.c_act = i64([r.counters.activates for r in ranks])
    a_crd, ks.c_rd = i64([r.counters.read_bursts for r in ranks])
    a_cwr, ks.c_wr = i64([r.counters.write_bursts for r in ranks])
    a_cactive, ks.c_active = i64([r.counters.cycles_active for r in ranks])
    a_cstandby, ks.c_standby = i64([r.counters.cycles_precharge_standby for r in ranks])
    a_cpdown, ks.c_pdown = i64([r.counters.cycles_powerdown for r in ranks])
    act_ring = np.zeros(n_ranks * 4, dtype=np.int64)
    for gr, r in enumerate(ranks):
        act_ring[gr * 4 : gr * 4 + len(r.act_times)] = r.act_times
    ks.act_ring = ptr(act_ring)
    act_len, ks.act_len = i64([len(r.act_times) for r in ranks])
    act_head, ks.act_head = i64(np.zeros(n_ranks, dtype=np.int64))

    # -- channel state (queues start empty: see eligible()) -----------------------------
    qes, ks.qes = i64(np.zeros(C * QUEUE_DEPTH * 7, dtype=np.int64))
    a_qlen, ks.q_len = i64(np.zeros(C, dtype=np.int64))
    a_dem, ks.dem_cnt = i64(np.zeros(C, dtype=np.int64))
    a_bg, ks.bg_cnt = i64(np.zeros(C, dtype=np.int64))
    a_drain, ks.draining = i64([ch._draining for ch in chans])
    a_busf, ks.bus_free = i64([ch.bus_free for ch in chans])
    a_lastw, ks.last_w = i64([ch.last_was_write for ch in chans])
    a_fastp, ks.fast_picks = i64([ch.fast_picks for ch in chans])
    a_issued, ks.issued = i64([ch.issued_requests for ch in chans])
    a_rdue, ks.refresh_due = i64([ch._refresh_due for ch in chans])

    # -- core state ---------------------------------------------------------------------
    a_done, ks.done = u8([c.done for c in cores])
    a_wait, ks.waiting = u8([c.waiting for c in cores])
    a_haspend, ks.has_pend = u8([c.pending is not None for c in cores])
    a_pendwr, ks.pend_wr = u8([c.pending is not None and c.pending[1] for c in cores])
    a_posted, ks.posted = i64([c.outstanding_posted for c in cores])
    a_loads, ks.loads = i64([c.outstanding_loads for c in cores])
    a_instr, ks.instr = i64([c.instructions for c in cores])
    a_pendaddr, ks.pend_addr = i64([c.pending[0] if c.pending is not None else 0 for c in cores])
    ks.done_cnt = sum(1 for c in cores if c.done)

    # -- trace buffers ------------------------------------------------------------------
    traces = [c.trace for c in cores]
    chunk = [_CHUNK_MIN] * n_cores
    hold_bufs = [None] * n_cores

    def refill(cid) -> bool:
        """Load the next trace batch of core *cid*; False when exhausted."""
        tr = traces[cid]
        tb = getattr(tr, "take_batch", None)
        if tb is not None:
            gaps, lines, writes = tb()
        else:
            items = list(islice(tr, chunk[cid]))
            chunk[cid] = min(2 * chunk[cid], _CHUNK_MAX)
            gaps, lines, writes = zip(*items) if items else ((), (), ())
        if not len(gaps):
            return False
        gaps = np.ascontiguousarray(gaps, dtype=np.int64)
        bufs = (
            gaps,
            np.ascontiguousarray(lines, dtype=np.int64),
            np.ascontiguousarray(writes, dtype=np.uint8),
            np.maximum(1, np.ceil(gaps / IPC)).astype(np.int64),
        )
        hold_bufs[cid] = bufs
        ks.buf_gap[cid] = ffi.cast("int64_t *", bufs[0].ctypes.data)
        ks.buf_addr[cid] = ffi.cast("int64_t *", bufs[1].ctypes.data)
        ks.buf_wr[cid] = ffi.cast("uint8_t *", bufs[2].ctypes.data)
        ks.buf_dt[cid] = ffi.cast("int64_t *", bufs[3].ctypes.data)
        ks.buf_i[cid] = 0
        ks.buf_n[cid] = len(gaps)
        return True

    for cid in range(n_cores):
        ks.buf_i[cid] = 0
        ks.buf_n[cid] = 0

    # -- heap / snapshots / control -----------------------------------------------------
    _, ks.h = i64(np.zeros(HEAP_CAP * 4, dtype=np.int64))
    ks.h_len, ks.h_cap = 0, HEAP_CAP
    ks.seq = sim._seq
    snap_cnt, ks.snap_cnt = i64(np.zeros(6 * n_ranks, dtype=np.int64))
    ks.now = sim.now
    ks.total = 0
    ks.limit = warmup_instructions
    ks.target = warmup_instructions + measure_instructions
    ks.resume_cid = -1
    ks.resume_now = 0
    ks.resume_ok = 0
    ks.snap_taken = 0
    ks.error = 0
    ks.accesses_64b = mem.accesses_64b
    ks.n_data_r = sim.counters.data_reads
    ks.n_data_w = sim.counters.data_writes
    ks.n_ecc_r = sim.counters.ecc_reads
    ks.n_ecc_w = sim.counters.ecc_writes

    # Initial events in reference push order: one EV_CORE per core, the
    # first scrub tick, then one EV_BURST per scheduled burst.
    for cid in range(n_cores):
        lib.push_event(ks, 0, EV_CORE, cid)
    if scrub is not None:
        lib.push_event(ks, scrub.interval_cycles, EV_SCRUB, 0)
    for i, (cycle, _, _, _) in enumerate(sim._bursts):
        lib.push_event(ks, cycle, EV_BURST, i)

    # -- run, servicing refill and window-growth requests -------------------------------
    rc = lib.epoch_run(ks)
    while rc >= 0 or rc == _RC_GROW_WINDOW:
        if rc == _RC_GROW_WINDOW:
            grown = np.zeros(max(2 * len(win), ks.win_need), dtype=np.int64)
            grown[: len(win)] = win
            win = grown
            ks.win_cap = len(win)
            ks.win = ptr(win)
            ks.resume_ok = 1
        else:
            ks.resume_ok = 1 if refill(int(rc)) else 0
        rc = lib.epoch_run(ks)
    if rc in _ERRORS:
        raise RuntimeError(_ERRORS[rc])

    # -- wind-down: mirror the reference's snapshot/finalize order ----------------------
    now = int(ks.now)
    live = [
        int(ks.total), now, int(ks.accesses_64b), int(ks.hits), int(ks.misses),
        int(ks.n_data_r), int(ks.n_data_w), int(ks.n_ecc_r), int(ks.n_ecc_w),
    ]
    end = list(ks.end_scalars) if rc == _RC_TARGET else live
    if ks.snap_taken:
        snap = snap_cnt.reshape(6, n_ranks).tolist()
        start = list(ks.snap_scalars)
    else:  # trace shorter than warm-up: measure everything
        snap = [a.tolist() for a in (a_cact, a_crd, a_cwr, a_cactive, a_cstandby, a_cpdown)]
        start = [0] * 9

    # -- export flat state back into the live objects -----------------------------------
    llc._clock = int(ks.clock)
    llc._hits = int(ks.hits)
    llc._misses = int(ks.misses)
    llc._evictions_dirty = int(ks.evictions_dirty)
    llc._tags[:] = l_tags.tolist()
    llc._lru[:] = l_lru.tolist()
    llc._dirty[:] = l_dirty.view(bool).tolist()
    llc._kind[:] = [_KINDS[v] for v in l_kind.tolist()]
    llc._fill[:] = l_fill.tolist()
    llc._where.clear()
    occupied = wh_keys >= 0
    llc._where.update(zip(wh_keys[occupied].tolist(), wh_vals[occupied].tolist()))

    for gr, r in enumerate(ranks):
        r.bank_ready[:] = a_bank_ready[gr * B : (gr + 1) * B].tolist()
        al, head = int(act_len[gr]), int(act_head[gr])
        r.act_times = deque(
            (int(act_ring[gr * 4 + ((head + i) & 3)]) for i in range(al)), maxlen=4
        )
        r.busy_until = int(a_busy[gr])
        r.accounted_to = int(a_acct[gr])
        r.next_refresh = int(a_nref[gr])
        r.refreshes = int(a_refs[gr])
        rcnt = r.counters
        rcnt.activates = int(a_cact[gr])
        rcnt.read_bursts = int(a_crd[gr])
        rcnt.write_bursts = int(a_cwr[gr])
        rcnt.cycles_active = int(a_cactive[gr])
        rcnt.cycles_precharge_standby = int(a_cstandby[gr])
        rcnt.cycles_powerdown = int(a_cpdown[gr])
    for ci, ch in enumerate(chans):
        entries = qes[ci * QUEUE_DEPTH * 7 : (ci * QUEUE_DEPTH + int(a_qlen[ci])) * 7]
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
        ch._demand_count = int(a_dem[ci])
        ch._background_count = int(a_bg[ci])
        ch._draining = bool(a_drain[ci])
        ch.bus_free = int(a_busf[ci])
        ch.last_was_write = bool(a_lastw[ci])
        ch.fast_picks = int(a_fastp[ci])
        ch.issued_requests = int(a_issued[ci])
        ch._refresh_due = int(a_rdue[ci])
    mem.accesses_64b = int(ks.accesses_64b)
    sim.now = now
    sim._seq = int(ks.seq)
    sim.total_instructions = int(ks.total)
    sim.counters = AccessCounters(*live[5:])
    sim._scrub_cursor = int(ks.scrub_cursor)
    sim.scrub_reads = int(ks.scrub_reads)
    if sim.ipc_window:
        sim._window_instr[:] = win[: ks.win_len].tolist()
    for cid, core in enumerate(cores):
        core.done = bool(a_done[cid])
        core.waiting = bool(a_wait[cid])
        core.outstanding_posted = int(a_posted[cid])
        core.outstanding_loads = int(a_loads[cid])
        core.instructions = int(a_instr[cid])
        core.pending = (
            (int(a_pendaddr[cid]), bool(a_pendwr[cid])) if a_haspend[cid] else None
        )

    mem.finalize(now)
    baseline = [
        [
            RankEnergyCounters(*(snap[f][ci * R + ri] for f in range(6)))
            for ri in range(R)
        ]
        for ci in range(C)
    ]
    energy = mem.energy_since(baseline)
    if obs_armed:
        sim._emit_run_telemetry(perf_counter() - wall0, int(ks.seq) - seq0)
    return SimResult(
        instructions=end[0] - start[0],
        cycles=end[1] - start[1],
        energy=energy,
        accesses_64b=end[2] - start[2],
        counters=AccessCounters(*(e - s for e, s in zip(end[5:], start[5:]))),
        llc_hits=end[3] - start[3],
        llc_misses=end[4] - start[4],
    )
