"""Codec throughput: RS decode through the compiled GF core vs the scalar oracle.

Not a paper figure - this guards the errors-and-erasures codec
(`repro.gf.reed_solomon`) and its compiled core (`repro.gf.rsnative`).
The scoreboard metric is **dirty words decoded per second**: the seed
implementation looped a per-word Sugiyama/Chien/Forney solve in Python
(retained verbatim as ``ReedSolomon.decode_reference``), so a
dirty-heavy batch - exactly what tilted rare-event campaigns produce -
is decoded here against that scalar baseline:

* ``dirty_decode``: production ``rs.decode`` (the cffi core wherever it
  builds), acceptance bar >= 10x the scalar loop when the core runs;
* ``tilted_campaign``: ``run_is_coverage`` end to end, the consumer the
  core was built for; in-process (``jobs=1``) so it times the codec, not
  a pool of small slice tasks.

Clean-path sections (encode through the compiled core and the NumPy
``_encode_reference`` fallback, syndromes, clean-batch decode, cached
erasure decode) keep the common case honest.  Numbers land in
``results/BENCH_codec_throughput.json``; ``perf_guard`` guards the
decode rate against the committed baseline and enforces the speedup
floor on every fresh run.  ``REPRO_BENCH_QUICK=1`` (CI) shrinks budgets.
"""

import time

import numpy as np

from conftest import merge_results, once

from repro.core.layout import Geometry
from repro.core.machine import Address, ECCParityMachine, PermanentFault
from repro.ecc import Chipkill36, LotEcc5
from repro.experiments.report import format_table
from repro.faults.rareevent import run_is_coverage
from repro.gf import GF256, ReedSolomon
from repro.gf import rsnative
from repro.util import envcfg

QUICK_MODE = envcfg.flag("REPRO_BENCH_QUICK")

#: Words per decode batch (the dirty-heavy sections decode all of them).
WORDS = 4096 if QUICK_MODE else 16384

#: Clean-path batches can afford more volume.
CLEAN_WORDS = 4 * WORDS

#: Tilted-campaign budget (trials = lines; each line is 4 RS(36,32) words).
CAMPAIGN_TRIALS = 2000 if QUICK_MODE else 10000

NATIVE_SPEEDUP_BAR = 10.0


def _dirty_batch(rs: ReedSolomon, n_words: int, seed: int = 2):
    """Every word dirty: t symbol errors each (the tilted-campaign shape)."""
    rng = np.random.default_rng(seed)
    cw = rs.encode(rng.integers(0, 256, (n_words, rs.k), dtype=np.uint8))
    bad = cw.copy()
    t = rs.num_check // 2
    for j in range(t):
        pos = rng.integers(0, rs.n, n_words)
        val = rng.integers(1, 256, n_words).astype(np.uint8)
        bad[np.arange(n_words), pos] ^= val
    return cw, bad


def _rate_section(n_words: int, wall: float, **extra) -> dict:
    return {
        "words": n_words,
        "wall_s": round(wall, 4),
        "words_per_sec": round(n_words / wall) if wall > 0 else None,
        "quick_mode": QUICK_MODE,
        **extra,
    }


def bench_codec_clean_paths(benchmark, results_dir, emit):
    """Encode (production and the NumPy ``_encode_reference``), syndromes,
    and clean-batch decode rates for RS(36,32)."""
    rs = ReedSolomon(GF256, 36, 32)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, (CLEAN_WORDS, 32), dtype=np.uint8)

    def measure():
        t0 = time.perf_counter()
        cw = rs.encode(data)
        enc_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = rs._encode_reference(data)
        enc_numpy_wall = time.perf_counter() - t0
        assert np.array_equal(cw, ref)
        t0 = time.perf_counter()
        synd = rs.syndromes(cw)
        syn_wall = time.perf_counter() - t0
        assert not synd.any()
        t0 = time.perf_counter()
        res = rs.decode(cw)
        dec_wall = time.perf_counter() - t0
        assert res.ok.all() and not res.had_errors.any()
        return enc_wall, enc_numpy_wall, syn_wall, dec_wall

    enc_wall, enc_numpy_wall, syn_wall, dec_wall = once(benchmark, measure)
    native = rsnative.use_native(rs)
    merge_results(
        results_dir,
        "BENCH_codec_throughput.json",
        code="RS(36,32)/GF(2^8)",
        encode=_rate_section(CLEAN_WORDS, enc_wall, native=native),
        encode_numpy=_rate_section(CLEAN_WORDS, enc_numpy_wall),
        syndromes=_rate_section(CLEAN_WORDS, syn_wall),
        clean_decode=_rate_section(CLEAN_WORDS, dec_wall),
    )
    emit(
        "bench_codec_clean",
        format_table(
            ["path", "words", "words/s"],
            [
                [
                    "encode (native)" if native else "encode",
                    f"{CLEAN_WORDS:,}",
                    f"{CLEAN_WORDS / enc_wall:,.0f}",
                ],
                ["encode (NumPy)", f"{CLEAN_WORDS:,}", f"{CLEAN_WORDS / enc_numpy_wall:,.0f}"],
                ["syndromes", f"{CLEAN_WORDS:,}", f"{CLEAN_WORDS / syn_wall:,.0f}"],
                ["clean decode", f"{CLEAN_WORDS:,}", f"{CLEAN_WORDS / dec_wall:,.0f}"],
            ],
            title="RS(36,32) clean-path throughput",
        ),
    )


def bench_codec_dirty_decode(benchmark, results_dir, emit):
    """Dirty-heavy decode: production ``rs.decode`` vs the scalar oracle."""
    rs = ReedSolomon(GF256, 36, 32)
    cw, bad = _dirty_batch(rs, WORDS)
    native = rsnative.use_native(rs)

    def measure():
        t0 = time.perf_counter()
        ref = rs.decode_reference(bad)
        scalar_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = rs.decode(bad)
        wall = time.perf_counter() - t0
        assert np.array_equal(res.corrected, ref.corrected)
        assert np.array_equal(res.ok, ref.ok)
        assert np.array_equal(res.n_corrected, ref.n_corrected)
        assert res.ok.all() and np.array_equal(res.corrected, cw)
        return scalar_wall, wall

    scalar_wall, wall = once(benchmark, measure)
    scalar_rate = WORDS / scalar_wall
    speedup = scalar_wall / wall
    merge_results(
        results_dir,
        "BENCH_codec_throughput.json",
        dirty_decode=_rate_section(
            WORDS,
            wall,
            native=native,
            scalar_wall_s=round(scalar_wall, 4),
            scalar_words_per_sec=round(scalar_rate),
            speedup=round(speedup, 2),
        ),
    )
    emit(
        "bench_codec_dirty",
        format_table(
            ["decoder", "dirty words", "words/s", "speedup"],
            [
                ["scalar oracle", f"{WORDS:,}", f"{scalar_rate:,.0f}", "1.0x"],
                [
                    "decode (native)" if native else "decode",
                    f"{WORDS:,}",
                    f"{WORDS / wall:,.0f}",
                    f"{speedup:.1f}x",
                ],
            ],
            title="RS(36,32) dirty-heavy decode (t errors per word)",
        ),
    )
    if native:
        assert speedup >= NATIVE_SPEEDUP_BAR, (
            f"native core only {speedup:.1f}x the scalar loop (bar {NATIVE_SPEEDUP_BAR}x)"
        )


def bench_codec_erasure_decode(benchmark, results_dir, emit):
    """Cached erasure-set solve: the dead-chip fast path, setup amortized."""
    rs = ReedSolomon(GF256, 36, 32)
    rng = np.random.default_rng(4)
    cw = rs.encode(rng.integers(0, 256, (WORDS, 32), dtype=np.uint8))
    bad = cw.copy()
    bad[:, 7] = rng.integers(0, 256, WORDS)

    def measure():
        rs.decode_erasures_batch(bad[:64], [7])  # prime the setup cache
        t0 = time.perf_counter()
        res = rs.decode_erasures_batch(bad, [7])
        wall = time.perf_counter() - t0
        assert res.ok.all()
        return wall

    wall = once(benchmark, measure)
    merge_results(
        results_dir,
        "BENCH_codec_throughput.json",
        erasure_decode=_rate_section(WORDS, wall, cached_setup=True),
    )
    emit(
        "bench_codec_erasure",
        f"erasure decode (cached solve): {WORDS / wall:,.0f} words/s",
    )


def bench_codec_tilted_campaign(benchmark, results_dir, emit):
    """End-to-end consumer: the tilted silent-corruption campaign."""
    scheme = Chipkill36()

    def measure():
        t0 = time.perf_counter()
        est = run_is_coverage(
            scheme, trials=CAMPAIGN_TRIALS, rate=0.5, tilt=8.0, chunk_size=1000, seed=7, jobs=1
        )
        return est, time.perf_counter() - t0

    est, wall = once(benchmark, measure)
    merge_results(
        results_dir,
        "BENCH_codec_throughput.json",
        tilted_campaign={
            "trials": est.trials,
            "wall_s": round(wall, 4),
            "trials_per_sec": round(est.trials / wall),
            "silent_probability": float(f"{est.mean:.4e}"),
            "ess": round(est.ess, 1),
            "quick_mode": QUICK_MODE,
        },
    )
    emit(
        "bench_codec_campaign",
        f"tilted codec campaign: {est.trials / wall:,.0f} trials/s, "
        f"P(silent) = {est.mean:.2e} (ESS {est.ess:,.0f})",
    )


# -- parity-machine micro-paths (no JSON artifact; keep the hot paths honest) ---


def bench_lot5_detection(benchmark):
    s = LotEcc5()
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 256, (2048, 64), dtype=np.uint8)
    det = benchmark(s.compute_detection, lines)
    assert det.shape == (2048, 8)


def bench_machine_scrub_clean(benchmark):
    g = Geometry(channels=4, banks=4, rows_per_bank=12, lines_per_row=8)
    m = ECCParityMachine(LotEcc5(), g, seed=0)
    dirty = benchmark(m.scrub)
    assert dirty == 0


def bench_machine_parity_reconstruction(benchmark):
    g = Geometry(channels=4, banks=4, rows_per_bank=12, lines_per_row=8)
    m = ECCParityMachine(LotEcc5(), g, seed=0)
    m.add_permanent_fault(PermanentFault(0, 0, (3, 4), (0, 8), 1, seed=5))
    addr = Address(0, 0, 3, 2)

    def reconstruct():
        return m._reconstruct_correction(addr)

    out = benchmark(reconstruct)
    assert out is not None
