"""Compiled GF/RS encode, syndrome and decode core.

The NumPy encoder in :mod:`repro.gf.reed_solomon` walks the ``k``
message columns through several NumPy kernels each, and the scalar
decoder solves one word at a time in Python.  This module compiles the
per-word algorithms to machine code with :mod:`cffi` (the toolchain
ships in the base image; nothing is downloaded) over pointer-shared
NumPy buffers:

* systematic encode - the generator-division LFSR.  When the whole
  remainder fits one 64-bit word (``two_t * bits <= 64``: every code the
  ECC catalog builds), each step is a shift plus one lookup in a
  per-codec table of feedback times taps; wider codes walk exp/log;
* a table-based batched syndrome kernel;
* decode - modified-syndrome convolution, Berlekamp-Massey on the
  Forney-shifted sequence, combined-locator convolution, Chien scan over
  all ``n`` positions, Forney magnitudes, and the final syndrome recheck.

Scope: any code whose field fits 16-bit symbols (``order <= 2^16``, i.e.
every field in :mod:`repro.gf.field`) with at most ``RS_MAXCHK`` check
symbols.  :meth:`ReedSolomon.encode` / :meth:`syndromes` / :meth:`decode`
run here when :func:`use_native` holds and otherwise fall back to the
scalar oracles, which handle every configuration.  The compiled decode is
bit-identical to the Sugiyama oracle (``ReedSolomon.decode_reference``),
and the compiled encoder to the NumPy column loop
(``ReedSolomon._encode_reference``); ``tests/test_rs_batched.py`` pins
them against each other.

Build model (:class:`repro.util.native.NativeCore`): the C source below
is compiled once per source hash into ``src/repro/gf/_native/``
(gitignored) and memoized process-wide.  Compilation failures degrade
silently to the oracle path.

Identity-critical conventions shared with the scalar oracle:

* the exponent table is doubled (length ``2*(order-1)`` + slack) so any
  two-log sum indexes it without a modulo, exactly like ``GF2m._exp``;
* magnitudes with value zero are neither applied nor counted, matching
  the scalar oracle's ``if mag != 0`` gate;
* a failed word is left byte-for-byte untouched (changes are reverted
  before returning) with ``ok=False`` and ``n_corrected=0``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.util.native import NativeCore

#: Max check symbols (2t) the fixed-size per-word stack buffers support.
RS_MAXCHK = 64

_CDEF = """
typedef struct {
    int64_t n, two_t, rho, order, e_max;
    const int32_t *exp_t;    /* doubled: index up to 2*(order-1) */
    const int32_t *log_t;    /* order entries; log[0] unused */
    const int32_t *synd_log; /* n * two_t, values in [0, order-2] */
    const uint16_t *gamma;   /* rho + 1 coefficients, lowest first */
} rs_ctx;

void rs_encode(const rs_ctx *rs, const uint64_t *packed, int64_t bits,
               const uint16_t *taps, const uint16_t *data, int64_t count,
               uint16_t *out);
void rs_syndromes(const rs_ctx *rs, const uint16_t *words, int64_t count,
                  uint16_t *out);
void rs_decode(const rs_ctx *rs, uint16_t *words, const uint16_t *synd,
               int64_t count, uint8_t *ok, int64_t *ncorr);
"""

_CSRC = """
#include <stdint.h>

typedef struct {
    int64_t n, two_t, rho, order, e_max;
    const int32_t *exp_t;
    const int32_t *log_t;
    const int32_t *synd_log;
    const uint16_t *gamma;
} rs_ctx;

#define RS_MAXCHK 64

static inline int32_t gmul(const rs_ctx *rs, int32_t a, int32_t b) {
    if (!a || !b) return 0;
    return rs->exp_t[rs->log_t[a] + rs->log_t[b]];
}

/* b must be nonzero at every call site. */
static inline int32_t gdiv(const rs_ctx *rs, int32_t a, int32_t b) {
    if (!a) return 0;
    return rs->exp_t[rs->log_t[a] - rs->log_t[b] + rs->order - 1];
}

/* Systematic encode: the generator-division LFSR over each message of k
 * symbols; out rows are the message followed by its n-k check symbols.
 * taps[j] multiplies the feedback into remainder cell j (g without its
 * monic term, highest degree first).  When the whole remainder fits one
 * 64-bit word (two_t * bits <= 64), packed[fb] holds fb * taps as packed
 * bits-wide symbols, cell 0 highest, so each LFSR step is one shift and
 * one lookup; otherwise (packed == NULL) the step walks exp/log. */
void rs_encode(const rs_ctx *rs, const uint64_t *packed, int64_t bits,
               const uint16_t *taps, const uint16_t *data, int64_t count,
               uint16_t *out) {
    int64_t n = rs->n, tt = rs->two_t, k = n - tt;
    int32_t ltap[RS_MAXCHK], rem[RS_MAXCHK];
    for (int64_t j = 0; j < tt; j++)
        ltap[j] = taps[j] ? rs->log_t[taps[j]] : -1;
    int64_t top = bits * (tt - 1);
    uint64_t mask = tt * bits >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << (tt * bits)) - 1);
    uint64_t sym = ((uint64_t)1 << bits) - 1;
    for (int64_t w = 0; w < count; w++) {
        const uint16_t *d = data + w * k;
        uint16_t *o = out + w * n;
        for (int64_t i = 0; i < k; i++) o[i] = d[i];
        if (packed) {
            uint64_t r = 0;
            for (int64_t i = 0; i < k; i++)
                r = ((r << bits) & mask) ^ packed[(r >> top) ^ d[i]];
            for (int64_t j = 0; j < tt; j++)
                o[k + j] = (uint16_t)((r >> (top - bits * j)) & sym);
            continue;
        }
        for (int64_t j = 0; j < tt; j++) rem[j] = 0;
        for (int64_t i = 0; i < k; i++) {
            int32_t fb = rem[0] ^ d[i];
            for (int64_t j = 0; j < tt - 1; j++) rem[j] = rem[j + 1];
            rem[tt - 1] = 0;
            if (!fb) continue;
            int32_t lfb = rs->log_t[fb];
            for (int64_t j = 0; j < tt; j++)
                if (ltap[j] >= 0) rem[j] ^= rs->exp_t[lfb + ltap[j]];
        }
        for (int64_t j = 0; j < tt; j++) o[k + j] = (uint16_t)rem[j];
    }
}

static void word_syndromes(const rs_ctx *rs, const uint16_t *c, int32_t *s) {
    int64_t n = rs->n, tt = rs->two_t;
    for (int64_t j = 0; j < tt; j++) s[j] = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t ci = c[i];
        if (!ci) continue;
        int32_t lc = rs->log_t[ci];
        const int32_t *sl = rs->synd_log + i * tt;
        for (int64_t j = 0; j < tt; j++)
            s[j] ^= rs->exp_t[lc + sl[j]];
    }
}

void rs_syndromes(const rs_ctx *rs, const uint16_t *words, int64_t count,
                  uint16_t *out) {
    int32_t s[RS_MAXCHK];
    for (int64_t w = 0; w < count; w++) {
        word_syndromes(rs, words + w * rs->n, s);
        uint16_t *o = out + w * rs->two_t;
        for (int64_t j = 0; j < rs->two_t; j++) o[j] = (uint16_t)s[j];
    }
}

void rs_decode(const rs_ctx *rs, uint16_t *words, const uint16_t *synd,
               int64_t count, uint8_t *ok, int64_t *ncorr) {
    int64_t n = rs->n, tt = rs->two_t, rho = rs->rho;
    int32_t q1 = (int32_t)(rs->order - 1);
    int64_t n_iter = tt - rho;      /* Forney-shifted BM iterations */
    int64_t W = n_iter + 1;         /* lambda storage width */
    int64_t P = W + rho;            /* psi width (== tt + 1) */

    int32_t xi[RS_MAXCHK];
    int32_t lam[RS_MAXCHK + 1], bpoly[RS_MAXCHK + 1], tmp[RS_MAXCHK + 1];
    int32_t psi[RS_MAXCHK + 1], omega[RS_MAXCHK], deriv[RS_MAXCHK];
    int32_t chg_pos[RS_MAXCHK + 1], chg_val[RS_MAXCHK + 1];
    int32_t scheck[RS_MAXCHK];

    for (int64_t w = 0; w < count; w++) {
        uint16_t *cw = words + w * n;
        const uint16_t *s = synd + w * tt;
        ok[w] = 0;
        ncorr[w] = 0;

        /* Xi = S * Gamma mod x^{2t}; Y = Xi shifted by rho. */
        for (int64_t j = 0; j < tt; j++) {
            int32_t acc = 0;
            int64_t lmax = rho < j ? rho : j;
            for (int64_t l = 0; l <= lmax; l++)
                acc ^= gmul(rs, rs->gamma[l], s[j - l]);
            xi[j] = acc;
        }
        const int32_t *y = xi + rho;

        /* Berlekamp-Massey on the shifted sequence. */
        for (int64_t j = 0; j < W; j++) { lam[j] = 0; bpoly[j] = 0; }
        lam[0] = 1; bpoly[0] = 1;
        int64_t L = 0, m = 1;
        int32_t bb = 1;
        for (int64_t r = 0; r < n_iter; r++) {
            int32_t delta = 0;
            int64_t jmax = r < W - 1 ? r : W - 1;
            for (int64_t j = 0; j <= jmax; j++)
                delta ^= gmul(rs, lam[j], y[r - j]);
            if (!delta) { m++; continue; }
            int32_t coef = gdiv(rs, delta, bb);
            if (2 * L <= r) {
                for (int64_t j = 0; j < W; j++) tmp[j] = lam[j];
                for (int64_t j = W - 1; j >= m; j--)
                    lam[j] ^= gmul(rs, coef, bpoly[j - m]);
                for (int64_t j = 0; j < W; j++) bpoly[j] = tmp[j];
                bb = delta; L = r + 1 - L; m = 1;
            } else {
                for (int64_t j = W - 1; j >= m; j--)
                    lam[j] ^= gmul(rs, coef, bpoly[j - m]);
                m++;
            }
        }
        if (L > rs->e_max) continue;  /* beyond the error budget */

        /* Combined locator psi = lambda * gamma. */
        for (int64_t j = 0; j < P; j++) psi[j] = 0;
        for (int64_t i = 0; i < W; i++) {
            if (!lam[i]) continue;
            for (int64_t l = 0; l <= rho; l++)
                psi[i + l] ^= gmul(rs, lam[i], rs->gamma[l]);
        }
        int64_t deg_psi = 0;
        for (int64_t j = P - 1; j >= 1; j--)
            if (psi[j]) { deg_psi = j; break; }
        if (deg_psi == 0) continue;

        /* omega = S * psi mod x^{2t}; deriv = formal derivative of psi. */
        for (int64_t j = 0; j < tt; j++) {
            int32_t acc = 0;
            int64_t lmax = (P - 1) < j ? (P - 1) : j;
            for (int64_t l = 0; l <= lmax; l++)
                acc ^= gmul(rs, psi[l], s[j - l]);
            omega[j] = acc;
        }
        for (int64_t j = 0; j < tt; j++)
            deriv[j] = (j % 2 == 0) ? psi[j + 1] : 0;

        /* Chien scan over all n inverse positions + inline Forney. */
        int64_t nroots = 0, nchg = 0;
        int fail = 0;
        for (int64_t p = 0; p < n; p++) {
            int32_t lp = (int32_t)((q1 - (p % q1)) % q1);
            int32_t xinv = rs->exp_t[lp];
            int32_t v = 0;
            for (int64_t j = P - 1; j >= 0; j--)
                v = gmul(rs, v, xinv) ^ psi[j];
            if (v) continue;
            nroots++;
            if (nroots > deg_psi) { fail = 1; break; }
            int32_t num = 0, den = 0;
            for (int64_t j = tt - 1; j >= 0; j--)
                num = gmul(rs, num, xinv) ^ omega[j];
            for (int64_t j = tt - 1; j >= 0; j--)
                den = gmul(rs, den, xinv) ^ deriv[j];
            if (!den) { fail = 1; break; }
            int32_t mag = gdiv(rs, num, den);
            if (mag) {
                chg_pos[nchg] = (int32_t)(n - 1 - p);
                chg_val[nchg] = mag;
                nchg++;
            }
        }
        if (fail || nroots != deg_psi) continue;

        /* Apply, recheck, revert on residual syndromes. */
        for (int64_t i = 0; i < nchg; i++)
            cw[chg_pos[i]] ^= (uint16_t)chg_val[i];
        word_syndromes(rs, cw, scheck);
        int resid = 0;
        for (int64_t j = 0; j < tt; j++) resid |= scheck[j];
        if (resid) {
            for (int64_t i = 0; i < nchg; i++)
                cw[chg_pos[i]] ^= (uint16_t)chg_val[i];
            continue;
        }
        ok[w] = 1;
        ncorr[w] = nchg;
    }
}
"""

_CORE = NativeCore(
    "_rscore", _CDEF, _CSRC,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native"),
)


def available() -> bool:
    """True when the compiled core is importable (builds on first call)."""
    return _CORE.available()


def eligible(rs) -> bool:
    """True when *rs*'s code fits the native core's fixed-width buffers."""
    return rs.field.order <= (1 << 16) and rs.num_check <= RS_MAXCHK


def use_native(rs) -> bool:
    """Policy gate for :meth:`ReedSolomon.encode` / :meth:`syndromes` / :meth:`decode`."""
    return eligible(rs) and available()


def _tables(rs) -> dict:
    """Per-codec table block, built once and cached on the instance."""
    tabs = rs._native_tables
    if tabs is None:
        f = rs.field
        tabs = {
            "exp": np.ascontiguousarray(f._exp, dtype=np.int32),
            "log": np.ascontiguousarray(f._log, dtype=np.int32),
            "synd_log": np.ascontiguousarray(rs._synd_log, dtype=np.int32),
            "taps": np.ascontiguousarray(rs._gen_taps, dtype=np.uint16),
            "bits": 8 if f.order <= 256 else 16,
            "packed": None,
            "ctx": None,
        }
        if rs.num_check * tabs["bits"] <= 64:
            # packed[fb] = fb * taps as one word, remainder cell 0 highest.
            prod = f.mul(np.arange(f.order)[:, None], rs._gen_taps[None, :]).astype(np.uint64)
            shifts = tabs["bits"] * np.arange(rs.num_check - 1, -1, -1, dtype=np.uint64)
            tabs["packed"] = np.bitwise_or.reduce(prod << shifts, axis=1)
        rs._native_tables = tabs
    return tabs


def _ctx(ffi, rs, setup: "dict | None") -> "tuple[object, list]":
    """An ``rs_ctx`` struct for *rs*; *hold* keeps owning arrays alive.

    The no-erasure context (``setup=None``), which every encode and
    syndrome call uses, is built once per codec and cached in its table
    block; a context with an erasure *setup* is built per call.
    """
    tabs = _tables(rs)
    if setup is None:
        if tabs["ctx"] is None:
            gamma = np.ones(1, dtype=np.uint16)
            tabs["ctx"] = (_fill_ctx(ffi, rs, tabs, 0, gamma, rs.num_check // 2), [gamma])
        return tabs["ctx"]
    gamma = np.ascontiguousarray(setup["gamma"], dtype=np.uint16)
    return _fill_ctx(ffi, rs, tabs, setup["rho"], gamma, setup["e_max"]), [tabs, gamma]


def _fill_ctx(ffi, rs, tabs: dict, rho: int, gamma: np.ndarray, e_max: int):
    ctx = ffi.new("rs_ctx *")
    ctx.n = rs.n
    ctx.two_t = rs.num_check
    ctx.rho = rho
    ctx.order = rs.field.order
    ctx.e_max = e_max
    ctx.exp_t = ffi.cast("const int32_t *", tabs["exp"].ctypes.data)
    ctx.log_t = ffi.cast("const int32_t *", tabs["log"].ctypes.data)
    ctx.synd_log = ffi.cast("const int32_t *", tabs["synd_log"].ctypes.data)
    ctx.gamma = ffi.cast("const uint16_t *", gamma.ctypes.data)
    return ctx


def check_symbols(field, arr: np.ndarray) -> None:
    """Raise ``ValueError`` unless integer array *arr* holds *field*
    symbols only: the C loops and the NumPy oracles both index the exp/log
    tables with them.  The codec runs this once at the ``encode`` /
    ``syndromes`` entry, so both paths reject the same inputs."""
    if arr.size and np.iinfo(arr.dtype).max >= field.order:
        if arr.min() < 0 or arr.max() >= field.order:
            raise ValueError(f"symbol out of range for GF(2^{field.m})")


def encode(rs, flat: np.ndarray) -> np.ndarray:
    """Batched systematic encode over the compiled core: ``(W, k) -> (W, n)``."""
    mod = _CORE.load()
    ffi = mod.ffi
    buf = np.ascontiguousarray(flat, dtype=np.uint16)
    out = np.empty((buf.shape[0], rs.n), dtype=np.uint16)
    ctx, hold = _ctx(ffi, rs, None)
    tabs = _tables(rs)
    packed = tabs["packed"]
    mod.lib.rs_encode(
        ctx,
        ffi.NULL if packed is None else ffi.cast("const uint64_t *", packed.ctypes.data),
        tabs["bits"],
        ffi.cast("const uint16_t *", tabs["taps"].ctypes.data),
        ffi.cast("const uint16_t *", buf.ctypes.data),
        buf.shape[0],
        ffi.cast("uint16_t *", out.ctypes.data),
    )
    del hold
    return out.astype(rs.field.dtype)


def syndromes(rs, flat: np.ndarray) -> np.ndarray:
    """Batched syndromes over the compiled core: ``(W, n) -> (W, 2t)``."""
    mod = _CORE.load()
    ffi = mod.ffi
    buf = np.ascontiguousarray(flat, dtype=np.uint16)
    out = np.empty((buf.shape[0], rs.num_check), dtype=np.uint16)
    ctx, hold = _ctx(ffi, rs, None)
    mod.lib.rs_syndromes(
        ctx,
        ffi.cast("const uint16_t *", buf.ctypes.data),
        buf.shape[0],
        ffi.cast("uint16_t *", out.ctypes.data),
    )
    del hold
    return out.astype(rs.field.dtype)


def decode_batch(
    rs, flat: np.ndarray, synd: np.ndarray, didx: np.ndarray, setup: dict
) -> "tuple[np.ndarray, np.ndarray]":
    """Decode the dirty rows ``flat[didx]`` in the compiled core.

    Same contract as ``ReedSolomon._decode_words``: corrects ``flat`` rows
    in place for words that pass, returns per-dirty-word ``(ok, n_corrected)``.
    """
    mod = _CORE.load()
    ffi = mod.ffi
    buf = np.ascontiguousarray(flat[didx], dtype=np.uint16)
    sd = np.ascontiguousarray(synd[didx], dtype=np.uint16)
    ok = np.zeros(didx.size, dtype=np.uint8)
    ncorr = np.zeros(didx.size, dtype=np.int64)
    ctx, hold = _ctx(ffi, rs, setup)
    mod.lib.rs_decode(
        ctx,
        ffi.cast("uint16_t *", buf.ctypes.data),
        ffi.cast("const uint16_t *", sd.ctypes.data),
        didx.size,
        ffi.cast("uint8_t *", ok.ctypes.data),
        ffi.cast("int64_t *", ncorr.ctypes.data),
    )
    del hold
    flat[didx] = buf.astype(rs.field.dtype)
    return ok.astype(bool), ncorr
