"""Systematic Reed-Solomon codes with errors-and-erasures decoding.

The encoder and syndrome computation are vectorized across arbitrarily large
batches of codewords (the common case: every word of every cache line in a
memory region).  Full decoding is batched too: all dirty words of a batch
run the key-equation solver **lock-step** — a vectorized Berlekamp-Massey
over the erasure-modified syndromes with per-word active masks, Chien search
as one Vandermonde evaluation over all ``n`` positions x ``W`` words, and a
vectorized Forney update.  The founding assumption of the old per-word loop
("almost all words are clean, so the scalar path is cold") died with the
tilted rare-event campaigns, which deliberately over-sample faulty trials;
the batched kernel makes dirty-word decoding an array program.

Everything derived from an erasure set — the erasure locator, the modified
syndrome transform, the lock-step solve matrices, and the erasure-only
Vandermonde solve — is built once per distinct position set and cached on
the codec instance (``_erasure_setup``), since campaigns decode against the
same health-table erasures for millions of lines.

An optional cffi-compiled core (:mod:`repro.gf.rsnative`, knob
``REPRO_GF_NATIVE``) runs the same per-word algorithms - encode,
syndromes, decode - in C over pointer-shared NumPy state; the NumPy
encoder stays as :meth:`ReedSolomon._encode_reference`, the ``off``
fallback and the native encoder's oracle.  The scalar Sugiyama path
survives verbatim as :meth:`ReedSolomon.decode_reference` /
:meth:`ReedSolomon._decode_word`, the reference oracle
``tests/test_rs_batched.py`` pins both the NumPy batch and the native core
against, mirroring the ``_run_reference`` / ``_scrub_reference`` policy
elsewhere in the codebase.

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

#: Dirty words decoded per lock-step slice (bounds the (D, 2t+1, n)
#: matmul temporaries at large tilted-campaign batch sizes).
_BATCH_SLICE = 1 << 14


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

        # Chien/Forney evaluation matrix: row j, column p holds alpha^{-p*j},
        # so a (W, deg+1) coefficient batch matmul'd against it evaluates
        # every word's polynomial at every inverse position at once.
        two_t = self.num_check
        jj = np.arange(two_t + 1)
        pp = np.arange(n)
        self._chien_mat = f.alpha_pow((-(jj[:, None] * pp[None, :])) % (f.order - 1))

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
        if not rsnative.use_native(self):
            return self._encode_reference(data)
        out = rsnative.encode(self, data.reshape(-1, self.k))
        return out.reshape(*data.shape[:-1], self.n)

    def _encode_reference(self, data: np.ndarray) -> np.ndarray:
        """The NumPy column-by-column LFSR: the ``REPRO_GF_NATIVE=off``
        fallback and the oracle the compiled encode is tested against."""
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
        if rsnative.use_native(self):
            batch_shape = cw.shape[:-1]
            out = rsnative.syndromes(self, cw.reshape(-1, self.n))
            return out.reshape(*batch_shape, self.num_check)
        logs = f._log[cw]  # (..., n)
        terms = f._exp[logs[..., :, None] + self._synd_log[None, :, :]]
        terms = np.where(cw[..., :, None] == 0, 0, terms)
        return np.bitwise_xor.reduce(terms, axis=-2).astype(f.dtype)

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
            # Xi = S * Gamma mod x^{2t} as one matmul: xi_mat[i, j] = gamma[j-i].
            xi_mat = np.zeros((two_t, two_t), dtype=f.dtype)
            for i in range(two_t):
                hi = min(two_t - i, rho + 1)
                xi_mat[i, i : i + hi] = gamma[:hi]
            setup["xi_mat"] = xi_mat
            # Psi = Lambda * Gamma as one matmul: conv[i, i+l] = gamma[l].
            width = two_t - rho + 1  # lock-step Lambda storage width
            conv = np.zeros((width, two_t + 1), dtype=f.dtype)
            for i in range(width):
                conv[i, i : i + rho + 1] = gamma
            setup["conv"] = conv
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
                for lo in range(0, didx.size, _BATCH_SLICE):
                    sl = didx[lo : lo + _BATCH_SLICE]
                    if native_used:
                        ok_d, nc_d = rsnative.decode_batch(self, flat, synd, sl, setup)
                    else:
                        ok_d, nc_d = self._decode_batch(flat, synd, sl, setup)
                    ok[sl] = ok_d
                    n_corrected[sl] = nc_d

        if armed:
            self._emit_decode(n_words, int(dirty.sum()), rho, native_used, perf_counter() - t0)
        had = dirty | bool(rho)
        return RSDecodeResult(
            flat.reshape(*batch_shape, self.n),
            ok.reshape(batch_shape),
            had.reshape(batch_shape),
            n_corrected.reshape(batch_shape),
        )

    def _decode_batch(
        self, flat: np.ndarray, synd: np.ndarray, didx: np.ndarray, setup: dict
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Lock-step errors-and-erasures decode of the dirty word subset.

        Vectorized Berlekamp-Massey over the erasure-modified syndromes
        ``Xi = S*Gamma mod x^{2t}`` (per-word masks replace the data-dependent
        branches), Chien search as one matmul against the inverse-position
        Vandermonde, and a vectorized Forney update.  Every failure gate of
        the scalar oracle is mirrored — locator length above the erasure
        budget, trivial/deficient locator, missing Chien roots, a vanishing
        Forney denominator, and the final syndrome recheck — so the observable
        outcome (corrected bytes, ``ok``, ``n_corrected``) is bit-identical
        to :meth:`_decode_word` for every word: within the unique decoding
        sphere both solvers find the same minimal key-equation solution, and
        outside it both land in a failure gate.

        Corrects ``flat`` rows in place for words that pass; returns the
        per-dirty-word ``(ok, n_corrected)`` pair.
        """
        f = self.field
        two_t = self.num_check
        rho = setup["rho"]
        e_max = setup["e_max"]
        d_count = didx.size

        s = synd[didx]
        xi = f.matmul(s, setup["xi_mat"]) if rho else s
        y = xi[:, rho:]  # Forney-shifted sequence: errors-only BM applies
        n_iter = two_t - rho
        width = n_iter + 1

        # -- Berlekamp-Massey, all words lock-step -------------------------------
        lam = np.zeros((d_count, width), dtype=f.dtype)
        lam[:, 0] = 1
        bpoly = np.zeros_like(lam)
        bpoly[:, 0] = 1
        big_l = np.zeros(d_count, dtype=np.int64)
        bb = np.ones(d_count, dtype=f.dtype)
        m = np.ones(d_count, dtype=np.int64)
        y_ext = np.concatenate([np.zeros((d_count, width - 1), dtype=f.dtype), y], axis=1)
        col = np.arange(width)
        for r in range(n_iter):
            window = y_ext[:, r : r + width][:, ::-1]  # y[r], y[r-1], ...
            delta = np.bitwise_xor.reduce(f.mul(lam, window), axis=1)
            nz = delta != 0
            grow = nz & (2 * big_l <= r)
            coef = f.div(delta, bb)  # bb is always a past nonzero discrepancy
            idx = col[None, :] - m[:, None]
            shifted = np.where(
                idx >= 0, np.take_along_axis(bpoly, np.clip(idx, 0, width - 1), axis=1), 0
            ).astype(f.dtype)
            lam_new = f.add(lam, f.mul(coef[:, None], shifted))
            prev = lam
            lam = np.where(nz[:, None], lam_new, lam)
            bpoly = np.where(grow[:, None], prev, bpoly)
            bb = np.where(grow, delta, bb)
            big_l = np.where(grow, r + 1 - big_l, big_l)
            m = np.where(grow, 1, m + 1)

        fail = big_l > e_max  # beyond the (2t - rho)/2 error budget

        # -- combined locator, Chien search as one Vandermonde evaluation --------
        psi = f.matmul(lam, setup["conv"])  # (D, 2t+1)
        nzm = psi != 0
        deg_psi = np.where(
            nzm.any(axis=1), psi.shape[1] - 1 - np.argmax(nzm[:, ::-1], axis=1), 0
        )
        fail |= deg_psi == 0
        vals = f.matmul(psi, self._chien_mat)  # psi(alpha^{-p}) for all p
        roots = vals == 0
        fail |= roots.sum(axis=1) != deg_psi

        # -- vectorized Forney ----------------------------------------------------
        # omega = S * psi mod x^{2t}, per word (psi differs per word).
        omega = np.zeros((d_count, two_t), dtype=f.dtype)
        for low in range(min(psi.shape[1], two_t)):
            omega[:, low:] = f.add(
                omega[:, low:], f.mul(psi[:, low : low + 1], s[:, : two_t - low])
            )
        deriv = psi[:, 1:].copy()
        deriv[:, 1::2] = 0  # formal derivative in characteristic 2
        num_vals = f.matmul(omega, self._chien_mat[:two_t])
        den_vals = f.matmul(deriv, self._chien_mat[:two_t])
        fail |= (roots & (den_vals == 0)).any(axis=1)
        mag = f.div(num_vals, np.where(den_vals == 0, 1, den_vals))
        mag = np.where(roots, mag, 0)
        n_corr = (mag != 0).sum(axis=1)

        # Root power p names position n-1-p: scatter = reverse the last axis.
        cand = f.add(flat[didx], mag[:, ::-1])
        cand = np.where(fail[:, None], flat[didx], cand)
        fail |= np.any(self.syndromes(cand) != 0, axis=1)  # final recheck
        okd = ~fail
        flat[didx[okd]] = cand[okd]
        return okd, np.where(okd, n_corr, 0)

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
            self._emit_decode(
                flat.shape[0], int(dirty.sum()), rho, rsnative.use_native(self),
                perf_counter() - t0,
            )
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
        obs.REGISTRY.counter("ecc.decode_batches").inc()
        obs.REGISTRY.counter("ecc.dirty_words").inc(dirty)
        if dirty and dt > 0:
            obs.REGISTRY.gauge("ecc.dirty_words_per_sec").set(round(dirty / dt))
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
            for w in np.nonzero(dirty)[0]:
                fixed, count = self._decode_word(flat[w], synd[w], erasure_pos)
                if fixed is None:
                    ok[w] = False
                else:
                    flat[w] = fixed
                    n_corrected[w] = count

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
