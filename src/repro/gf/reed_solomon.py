"""Systematic Reed-Solomon codes with errors-and-erasures decoding.

Encode, syndromes and decode take arbitrarily large batches of codewords
(the common case: every word of every cache line in a memory region).
Each runs in the cffi-compiled GF core (:mod:`repro.gf.rsnative`) when the
code fits it and the core builds - the same policy ``SimSystem.run``
applies to the timing simulator - and otherwise in the scalar oracles:
:meth:`ReedSolomon._encode_reference` (the NumPy column LFSR),
:meth:`ReedSolomon._syndromes_reference`, and the per-word Sugiyama
decoder :meth:`ReedSolomon._decode_word` looped over the dirty words.
:meth:`ReedSolomon.decode_reference` keeps that loop as the oracle
``tests/test_rs_batched.py`` pins the compiled decode against, mirroring
the ``_run_reference`` / ``_scrub_reference`` policy elsewhere in the
codebase.  Both paths reject non-symbol input with the same
``ValueError`` at the ``encode`` / ``syndromes`` entry.

Everything derived from an erasure set — the erasure locator, the error
budget, and the erasure-only Vandermonde solve — is built once per
distinct position set and cached on the codec instance
(``_erasure_setup``), since campaigns decode against the same
health-table erasures for millions of lines.

Positions are array indices ``0..n-1``; index ``i`` holds the coefficient of
``x^(n-1-i)`` (highest degree first), with data symbols followed by check
symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import obs
from repro.gf import rsnative
from repro.gf.field import GF2m


@dataclass
class RSDecodeResult:
    """Outcome of a batched RS decode.

    Attributes
    ----------
    corrected:
        Codeword batch after correction, same shape as the input.
    ok:
        Per-word flag: True when the word is clean or was fully corrected
        (recomputed syndromes are zero).
    had_errors:
        Per-word flag: the received word had nonzero syndromes or erasures.
    n_corrected:
        Number of symbols whose value was changed, per word.
    """

    corrected: np.ndarray
    ok: np.ndarray
    had_errors: np.ndarray
    n_corrected: np.ndarray


class ReedSolomon:
    """An ``(n, k)`` systematic Reed-Solomon code over *field*.

    Corrects any pattern of ``e`` symbol errors and ``f`` symbol erasures
    with ``2e + f <= n - k``.
    """

    def __init__(self, field: GF2m, n: int, k: int):
        if not (0 < k < n <= field.order - 1):
            raise ValueError(f"invalid RS parameters n={n}, k={k} over GF(2^{field.m})")
        self.field = field
        self.n = n
        self.k = k
        self.num_check = n - k

        f = field
        # Generator polynomial g(x) = prod_{j=1..n-k} (x + alpha^j), lowest degree first.
        g = np.array([1], dtype=f.dtype)
        for j in range(1, self.num_check + 1):
            g = f.poly_mul(g, np.array([f.alpha_pow(j), 1], dtype=f.dtype))
        self._gen_poly = g
        # Encoder feedback taps: g without the monic leading term, highest degree first.
        self._gen_taps = g[:-1][::-1].copy()

        # Syndrome evaluation matrix in log space: S_j = sum_i c_i * alpha^{(j+1)(n-1-i)}.
        j = np.arange(self.num_check)
        i = np.arange(n)
        self._synd_log = ((j[None, :] + 1) * (n - 1 - i[:, None])) % (f.order - 1)

        #: Per-erasure-set solve state, keyed by the caller's literal
        #: position tuple *and* its sorted-unique canonical form (so the
        #: per-call ``sorted(set(...))`` normalization is paid once).
        self._erasure_cache: "dict[tuple, dict]" = {}
        #: Lazily-built native-core table block (see :mod:`repro.gf.rsnative`).
        self._native_tables = None

    # -- encoding ---------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode a batch of messages: shape ``(..., k)`` -> ``(..., n)``."""
        data = np.asarray(data, dtype=self.field.dtype)
        if data.shape[-1] != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {data.shape[-1]}")
        rsnative.check_symbols(self.field, data)
        if not rsnative.use_native(self):
            return self._encode_reference(data)
        out = rsnative.encode(self, data.reshape(-1, self.k))
        return out.reshape(*data.shape[:-1], self.n)

    def _encode_reference(self, data: np.ndarray) -> np.ndarray:
        """The NumPy column-by-column LFSR: the fallback without the
        compiled core and the oracle the compiled encode is tested against."""
        f = self.field
        data = np.asarray(data, dtype=f.dtype)
        if data.shape[-1] != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {data.shape[-1]}")
        batch_shape = data.shape[:-1]
        flat = data.reshape(-1, self.k)
        rem = np.zeros((flat.shape[0], self.num_check), dtype=f.dtype)
        for col in range(self.k):
            fb = f.add(rem[:, 0], flat[:, col])
            rem[:, :-1] = rem[:, 1:]
            rem[:, -1] = 0
            rem = f.add(rem, f.mul(fb[:, None], self._gen_taps[None, :]))
        out = np.concatenate([flat, rem], axis=-1)
        return out.reshape(*batch_shape, self.n)

    # -- syndromes / detection ----------------------------------------------------

    def syndromes(self, codewords: np.ndarray) -> np.ndarray:
        """Syndrome batch: shape ``(..., n)`` -> ``(..., n-k)``; zero means clean."""
        f = self.field
        cw = np.asarray(codewords)
        if cw.dtype != f.dtype:
            cw = cw.astype(np.int64)
        if cw.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} symbols, got {cw.shape[-1]}")
        rsnative.check_symbols(f, cw)
        if not rsnative.use_native(self):
            return self._syndromes_reference(cw)
        out = rsnative.syndromes(self, cw.reshape(-1, self.n))
        return out.reshape(*cw.shape[:-1], self.num_check)

    def detect(self, codewords: np.ndarray) -> np.ndarray:
        """Per-word error flag (True where any syndrome is nonzero)."""
        return np.any(self.syndromes(codewords) != 0, axis=-1)

    # -- erasure-set solve cache --------------------------------------------------

    def _erasure_setup(self, erasures) -> dict:
        """Everything derived from an erasure set, built once and cached.

        Keyed first by the caller's literal tuple (skipping even the
        sort/dedup on repeated identical calls), then by the canonical
        sorted-unique form so permutations share one setup object.
        Invalid positions raise ``ValueError`` on every call, as before.
        """
        key = tuple(int(e) for e in erasures) if erasures is not None else ()
        setup = self._erasure_cache.get(key)
        if setup is not None:
            return setup
        canon = tuple(sorted(set(key)))
        setup = self._erasure_cache.get(canon)
        if setup is None:
            setup = self._build_erasure_setup(canon)
            self._erasure_cache[canon] = setup
        self._erasure_cache[key] = setup
        return setup

    def _build_erasure_setup(self, positions: tuple) -> dict:
        f = self.field
        two_t = self.num_check
        rho = len(positions)
        pos = np.array(positions, dtype=np.int64)
        if rho and (pos[0] < 0 or pos[-1] >= self.n):
            raise ValueError("erasure position out of range")

        # Erasure locator Gamma(x) = prod (1 + X_e x), X_e = alpha^{n-1-pos}.
        gamma = np.array([1], dtype=f.dtype)
        for p in positions:
            x_e = f.alpha_pow(self.n - 1 - p)
            gamma = f.poly_mul(gamma, np.array([1, x_e], dtype=f.dtype))
        setup = {"pos": pos, "rho": rho, "gamma": gamma}

        if rho <= two_t:
            setup["e_max"] = (two_t - rho) // 2
        if 1 <= rho <= two_t:
            # Erasure-only Vandermonde solve: A[j, e] = X_e^(j+1); the f x f
            # inverse is applied to whole batches as S[:, :rho] @ inv(A).T.
            x = f.alpha_pow([self.n - 1 - p for p in positions])
            rows = np.arange(1, rho + 1)
            a = f.pow(np.broadcast_to(x, (rho, rho)), rows[:, None])
            setup["era_inv_t"] = f.mat_inv(a).T.copy()
        return setup

    # -- decoding ---------------------------------------------------------------

    def decode(
        self,
        codewords: np.ndarray,
        erasures: "list[int] | np.ndarray | None" = None,
    ) -> RSDecodeResult:
        """Correct a batch of codewords in place of a copy.

        Parameters
        ----------
        codewords:
            Shape ``(..., n)`` batch.
        erasures:
            Optional list of array positions known to be unreliable, shared
            by every word in the batch (e.g. the symbols supplied by a dead
            chip).  ``2*errors + erasures <= n-k`` must hold for success.
        """
        f = self.field
        cw = np.array(codewords, dtype=f.dtype, copy=True)
        batch_shape = cw.shape[:-1]
        flat = cw.reshape(-1, self.n)
        n_words = flat.shape[0]

        setup = self._erasure_setup(erasures)
        rho = setup["rho"]

        armed = obs.enabled()
        t0 = perf_counter() if armed else 0.0
        synd = self.syndromes(flat)
        dirty = np.any(synd != 0, axis=-1)
        ok = np.ones(n_words, dtype=bool)
        n_corrected = np.zeros(n_words, dtype=np.int64)
        native_used = False

        if rho > self.num_check:
            # More erasures than redundancy: dirty words are unrecoverable.
            ok = ~dirty
        else:
            didx = np.flatnonzero(dirty)
            if didx.size:
                native_used = rsnative.use_native(self)
                if native_used:
                    ok_d, nc_d = rsnative.decode_batch(self, flat, synd, didx, setup)
                else:
                    ok_d, nc_d = self._decode_words(flat, synd, didx, setup["pos"])
                ok[didx] = ok_d
                n_corrected[didx] = nc_d

        if armed:
            self._emit_decode(n_words, int(dirty.sum()), rho, native_used, perf_counter() - t0)
        had = dirty | bool(rho)
        return RSDecodeResult(
            flat.reshape(*batch_shape, self.n),
            ok.reshape(batch_shape),
            had.reshape(batch_shape),
            n_corrected.reshape(batch_shape),
        )

    def decode_erasures_batch(
        self, codewords: np.ndarray, erasures: "list[int] | np.ndarray"
    ) -> RSDecodeResult:
        """Fully vectorized erasure-only decoding at fixed positions.

        The common memory case - a dead chip erases the *same* symbol
        position of every word - reduces to one small linear solve: with
        erasure locators ``X_e = alpha^(n-1-pos_e)``, the magnitudes satisfy
        ``S_j = sum_e Y_e X_e^(j+1)``; the f x f system is inverted once per
        distinct position set (cached on the codec) and applied to the whole
        batch with a GF matmul.  Words whose residual syndromes stay nonzero
        (extra errors beyond the erasures) are reported ``ok=False`` - chain
        into :meth:`decode` for those.
        """
        f = self.field
        setup = self._erasure_setup(erasures)
        rho = setup["rho"]
        if not rho:
            raise ValueError("decode_erasures_batch needs at least one erasure")
        if rho > self.num_check:
            raise ValueError("more erasures than check symbols")
        positions = setup["pos"]

        cw = np.array(codewords, dtype=f.dtype, copy=True)
        batch_shape = cw.shape[:-1]
        flat = cw.reshape(-1, self.n)

        armed = obs.enabled()
        t0 = perf_counter() if armed else 0.0
        synd = self.syndromes(flat)  # (W, 2t)
        dirty = np.any(synd != 0, axis=-1)
        # Y = inv_a @ S[:rho] per word  ==  S[:, :rho] @ inv_a.T batched.
        magnitudes = f.matmul(synd[:, :rho], setup["era_inv_t"])  # (W, rho)
        flat[:, positions] ^= magnitudes

        resid = self.syndromes(flat)
        ok = ~np.any(resid != 0, axis=-1)
        if not ok.all():
            # Words with extra errors keep their original content.
            bad_idx = np.nonzero(~ok)[0]
            flat[np.ix_(bad_idx, positions)] ^= magnitudes[bad_idx]
        n_corrected = np.where(ok, (magnitudes != 0).sum(axis=-1), 0)
        if armed:
            # The Vandermonde solve is NumPy whether or not the core runs.
            self._emit_decode(flat.shape[0], int(dirty.sum()), rho, False, perf_counter() - t0)
        # Declared erasures make every word "suspected" regardless of dirt.
        had = np.ones_like(dirty)
        return RSDecodeResult(
            flat.reshape(*batch_shape, self.n),
            ok.reshape(batch_shape),
            had.reshape(batch_shape),
            n_corrected.reshape(batch_shape),
        )

    def _emit_decode(self, words: int, dirty: int, rho: int, native: bool, dt: float) -> None:
        """``ecc.decode`` batch telemetry (gated on ``REPRO_OBS``)."""
        obs.emit(
            "ecc.decode",
            words=words,
            dirty=dirty,
            dirty_frac=round(dirty / words, 4) if words else 0.0,
            rho=rho,
            native=bool(native),
            wall_s=round(dt, 6),
            code=f"rs{self.n}_{self.k}",
        )

    # -- scalar word decode (reference oracle) -----------------------------------

    def decode_reference(
        self,
        codewords: np.ndarray,
        erasures: "list[int] | np.ndarray | None" = None,
    ) -> RSDecodeResult:
        """Per-word scalar decode: the pre-batching loop, kept as the oracle.

        Identical contract to :meth:`decode`; every dirty word goes through
        :meth:`_decode_word` (Sugiyama + scalar Chien/Forney), with no solve
        caching and no native core.  ``tests/test_rs_batched.py`` holds
        :meth:`decode` bit-identical to this across error/erasure mixes, and
        the codec benchmark uses it as the seed-throughput baseline.
        """
        f = self.field
        cw = np.array(codewords, dtype=f.dtype, copy=True)
        batch_shape = cw.shape[:-1]
        flat = cw.reshape(-1, self.n)
        n_words = flat.shape[0]

        erasure_pos = (
            np.array(sorted(set(int(e) for e in erasures)), dtype=np.int64)
            if erasures is not None and len(erasures)
            else np.array([], dtype=np.int64)
        )
        if erasure_pos.size and (erasure_pos.min() < 0 or erasure_pos.max() >= self.n):
            raise ValueError("erasure position out of range")

        synd = self._syndromes_reference(flat)
        dirty = np.any(synd != 0, axis=-1)
        ok = np.ones(n_words, dtype=bool)
        n_corrected = np.zeros(n_words, dtype=np.int64)

        if erasure_pos.size > self.num_check:
            ok = ~dirty
        else:
            didx = np.flatnonzero(dirty)
            ok[didx], n_corrected[didx] = self._decode_words(flat, synd, didx, erasure_pos)

        had = dirty | bool(erasure_pos.size)
        return RSDecodeResult(
            flat.reshape(*batch_shape, self.n),
            ok.reshape(batch_shape),
            had.reshape(batch_shape),
            n_corrected.reshape(batch_shape),
        )

    def _syndromes_reference(self, codewords: np.ndarray) -> np.ndarray:
        """Pure-NumPy syndromes, ignoring the native core (oracle path)."""
        f = self.field
        cw = np.asarray(codewords, dtype=np.int64)
        logs = f._log[cw]
        terms = f._exp[logs[..., :, None] + self._synd_log[None, :, :]]
        terms = np.where(cw[..., :, None] == 0, 0, terms)
        return np.bitwise_xor.reduce(terms, axis=-2).astype(f.dtype)

    def _decode_words(
        self, flat: np.ndarray, synd: np.ndarray, didx: np.ndarray, erasure_pos: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`_decode_word` over rows ``flat[didx]``, corrected in place;
        returns the per-row ``(ok, n_corrected)`` pair, the contract of
        :func:`repro.gf.rsnative.decode_batch`."""
        ok = np.ones(didx.size, dtype=bool)
        n_corrected = np.zeros(didx.size, dtype=np.int64)
        for i, w in enumerate(didx):
            fixed, count = self._decode_word(flat[w], synd[w], erasure_pos)
            if fixed is None:
                ok[i] = False
            else:
                flat[w] = fixed
                n_corrected[i] = count
        return ok, n_corrected

    def _decode_word(
        self, word: np.ndarray, synd: np.ndarray, erasure_pos: np.ndarray
    ) -> "tuple[np.ndarray | None, int]":
        """Errors-and-erasures decode of one word; returns (fixed, n_changed)."""
        f = self.field
        two_t = self.num_check
        rho = int(erasure_pos.size)

        # Erasure locator Gamma(x) = prod (1 + X_e x), X_e = alpha^{n-1-pos}.
        gamma = np.array([1], dtype=f.dtype)
        for pos in erasure_pos:
            x_e = f.alpha_pow(self.n - 1 - int(pos))
            gamma = f.poly_mul(gamma, np.array([1, x_e], dtype=f.dtype))

        # Modified syndrome Xi(x) = S(x) * Gamma(x) mod x^{2t}.
        s_poly = np.asarray(synd, dtype=f.dtype)
        xi = f.poly_mul(s_poly, gamma)[:two_t]

        # Sugiyama: extended Euclid on (x^{2t}, Xi) until deg r < (2t + rho)/2.
        r_prev = np.zeros(two_t + 1, dtype=f.dtype)
        r_prev[-1] = 1  # x^{2t}
        r_cur = _trim(xi)
        u_prev = np.array([0], dtype=f.dtype)
        u_cur = np.array([1], dtype=f.dtype)
        while 2 * _deg(r_cur) >= two_t + rho and np.any(r_cur != 0):
            q, rem = _poly_divmod(f, r_prev, r_cur)
            qu = f.poly_mul(q, u_cur)
            width = max(len(u_prev), len(qu))
            u_next = _trim(f.add(_pad_to(u_prev, width), _pad_to(qu, width)))
            r_prev, r_cur = r_cur, _trim(rem)
            u_prev, u_cur = u_cur, u_next

        lam = u_cur
        omega = r_cur
        if lam[0] == 0:
            return None, 0
        scale = f.inv(lam[0])
        lam = f.mul(lam, scale)
        omega = f.mul(omega, scale)

        psi = _trim(f.poly_mul(lam, gamma))  # combined error+erasure locator

        # Chien search: roots of Psi at alpha^{-p} identify positions p (as powers).
        n_roots_expected = _deg(psi)
        if n_roots_expected == 0:
            # Syndromes nonzero but locator trivial: only possible if all the
            # corruption is in the erased positions with zero magnitude - bail.
            return None, 0
        powers = np.arange(self.n)
        inv_x = f.alpha_pow(-(powers) % (f.order - 1))
        vals = f.poly_eval(psi, inv_x)
        root_powers = powers[vals == 0]
        if root_powers.size != n_roots_expected:
            return None, 0

        psi_deriv = f.poly_deriv(psi)
        fixed = word.copy()
        changed = 0
        for p in root_powers:
            x_inv = f.alpha_pow(-int(p) % (f.order - 1))
            num = f.poly_eval(omega, x_inv)
            den = f.poly_eval(psi_deriv, x_inv)
            if den == 0:
                return None, 0
            mag = f.div(num, den)
            pos = self.n - 1 - int(p)
            if pos < 0 or pos >= self.n:
                return None, 0
            if mag != 0:
                fixed[pos] = f.add(fixed[pos], mag)
                changed += 1

        if np.any(self._syndromes_reference(fixed[None, :])[0] != 0):
            return None, 0
        return fixed, changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReedSolomon(n={self.n}, k={self.k}, GF(2^{self.field.m}))"


def _deg(p: np.ndarray) -> int:
    """Degree of a lowest-first coefficient array (deg(0) == -1... we use 0)."""
    nz = np.nonzero(p)[0]
    return int(nz[-1]) if nz.size else 0


def _trim(p: np.ndarray) -> np.ndarray:
    """Strip trailing zero coefficients, keeping at least one term."""
    nz = np.nonzero(p)[0]
    if not nz.size:
        return p[:1].copy()
    return p[: nz[-1] + 1].copy()


def _pad_to(p: np.ndarray, length: int) -> np.ndarray:
    if len(p) >= length:
        return p
    out = np.zeros(length, dtype=p.dtype)
    out[: len(p)] = p
    return out


def _poly_divmod(f: GF2m, a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Polynomial division ``a = q*b + r`` over GF(2^m), lowest-first coeffs."""
    a = _trim(np.asarray(a, dtype=f.dtype)).copy()
    b = _trim(np.asarray(b, dtype=f.dtype))
    db = _deg(b)
    if np.all(b == 0):
        raise ZeroDivisionError("polynomial division by zero")
    da = _deg(a)
    if da < db:
        return np.zeros(1, dtype=f.dtype), a
    q = np.zeros(da - db + 1, dtype=f.dtype)
    inv_lead = f.inv(b[db])
    for d in range(da, db - 1, -1):
        if a[d]:
            coef = f.mul(a[d], inv_lead)
            q[d - db] = coef
            a[d - db : d + 1] = f.add(a[d - db : d + 1], f.mul(coef, b[: db + 1]))
    return q, a
