"""Codec throughput: batched RS decode kernel vs the scalar oracle.

Not a paper figure - this guards the batched errors-and-erasures kernel
(`repro.gf.reed_solomon`) and its compiled core (``REPRO_GF_NATIVE``).
The scoreboard metric is **dirty words decoded per second**: the seed
implementation looped a per-word Sugiyama/Chien/Forney solve in Python
(retained verbatim as ``ReedSolomon.decode_reference``), so a
dirty-heavy batch - exactly what tilted rare-event campaigns produce -
is decoded here three ways against the same scalar baseline:

* ``dirty_decode``: the pure-NumPy lock-step kernel (``REPRO_GF_NATIVE=off``),
  acceptance bar >= 3x the scalar loop;
* ``dirty_decode_native``: the cffi core (``REPRO_GF_NATIVE=on``),
  acceptance bar >= 10x (section written only when the core builds);
* ``tilted_campaign``: ``run_is_coverage`` end to end, the consumer the
  kernel was built for.

Clean-path sections (encode, syndromes, clean-batch decode, cached
erasure decode) keep the common case honest.  Numbers land in
``results/BENCH_codec_throughput.json`` and feed the perf-history
ledger; ``perf_guard`` enforces the speedup floors on the committed
full-mode numbers.  ``REPRO_BENCH_QUICK=1`` (CI) shrinks budgets.
"""

import os
import time
from contextlib import contextmanager

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

NUMPY_SPEEDUP_BAR = 3.0
NATIVE_SPEEDUP_BAR = 10.0


@contextmanager
def _gf_native(mode: str):
    """Pin ``REPRO_GF_NATIVE`` for one measurement, then restore."""
    prev = os.environ.get("REPRO_GF_NATIVE")
    os.environ["REPRO_GF_NATIVE"] = mode
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_GF_NATIVE", None)
        else:
            os.environ["REPRO_GF_NATIVE"] = prev


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
    """Encode, syndromes, and clean-batch decode rates for RS(36,32)."""
    rs = ReedSolomon(GF256, 36, 32)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, (CLEAN_WORDS, 32), dtype=np.uint8)

    def measure():
        t0 = time.perf_counter()
        cw = rs.encode(data)
        enc_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        synd = rs.syndromes(cw)
        syn_wall = time.perf_counter() - t0
        assert not synd.any()
        t0 = time.perf_counter()
        res = rs.decode(cw)
        dec_wall = time.perf_counter() - t0
        assert res.ok.all() and not res.had_errors.any()
        return enc_wall, syn_wall, dec_wall

    enc_wall, syn_wall, dec_wall = once(benchmark, measure)
    merge_results(
        results_dir,
        "BENCH_codec_throughput.json",
        code="RS(36,32)/GF(2^8)",
        encode=_rate_section(CLEAN_WORDS, enc_wall),
        syndromes=_rate_section(CLEAN_WORDS, syn_wall),
        clean_decode=_rate_section(CLEAN_WORDS, dec_wall),
    )
    emit(
        "bench_codec_clean",
        format_table(
            ["path", "words", "words/s"],
            [
                ["encode", f"{CLEAN_WORDS:,}", f"{CLEAN_WORDS / enc_wall:,.0f}"],
                ["syndromes", f"{CLEAN_WORDS:,}", f"{CLEAN_WORDS / syn_wall:,.0f}"],
                ["clean decode", f"{CLEAN_WORDS:,}", f"{CLEAN_WORDS / dec_wall:,.0f}"],
            ],
            title="RS(36,32) clean-path throughput",
        ),
    )


def bench_codec_dirty_decode(benchmark, results_dir, emit):
    """Dirty-heavy decode: scalar oracle vs NumPy batch vs native core."""
    rs = ReedSolomon(GF256, 36, 32)
    cw, bad = _dirty_batch(rs, WORDS)

    def measure():
        t0 = time.perf_counter()
        ref = rs.decode_reference(bad)
        scalar_wall = time.perf_counter() - t0
        with _gf_native("off"):
            t0 = time.perf_counter()
            batch = rs.decode(bad)
            numpy_wall = time.perf_counter() - t0
        native_wall = None
        if rsnative.available():
            with _gf_native("on"):
                t0 = time.perf_counter()
                nat = rs.decode(bad)
                native_wall = time.perf_counter() - t0
            assert np.array_equal(nat.corrected, ref.corrected)
            assert np.array_equal(nat.ok, ref.ok)
        assert np.array_equal(batch.corrected, ref.corrected)
        assert np.array_equal(batch.ok, ref.ok)
        assert np.array_equal(batch.n_corrected, ref.n_corrected)
        assert batch.ok.all() and np.array_equal(batch.corrected, cw)
        return scalar_wall, numpy_wall, native_wall

    scalar_wall, numpy_wall, native_wall = once(benchmark, measure)
    scalar_rate = WORDS / scalar_wall
    numpy_speedup = scalar_wall / numpy_wall
    sections = {
        "dirty_decode": _rate_section(
            WORDS,
            numpy_wall,
            scalar_wall_s=round(scalar_wall, 4),
            scalar_words_per_sec=round(scalar_rate),
            speedup=round(numpy_speedup, 2),
        )
    }
    rows = [
        ["scalar oracle", f"{WORDS:,}", f"{scalar_rate:,.0f}", "1.0x"],
        [
            "numpy batch",
            f"{WORDS:,}",
            f"{WORDS / numpy_wall:,.0f}",
            f"{numpy_speedup:.1f}x",
        ],
    ]
    if native_wall is not None:
        native_speedup = scalar_wall / native_wall
        sections["dirty_decode_native"] = _rate_section(
            WORDS,
            native_wall,
            scalar_wall_s=round(scalar_wall, 4),
            scalar_words_per_sec=round(scalar_rate),
            speedup=round(native_speedup, 2),
        )
        rows.append(
            [
                "native core",
                f"{WORDS:,}",
                f"{WORDS / native_wall:,.0f}",
                f"{native_speedup:.1f}x",
            ]
        )
    else:
        sections["dirty_decode_native"] = {"available": False, "quick_mode": QUICK_MODE}
    merge_results(results_dir, "BENCH_codec_throughput.json", **sections)
    emit(
        "bench_codec_dirty",
        format_table(
            ["decoder", "dirty words", "words/s", "speedup"],
            rows,
            title="RS(36,32) dirty-heavy decode (t errors per word)",
        ),
    )
    assert numpy_speedup >= NUMPY_SPEEDUP_BAR, (
        f"NumPy batch kernel only {numpy_speedup:.1f}x the scalar loop "
        f"(bar {NUMPY_SPEEDUP_BAR}x)"
    )
    if native_wall is not None:
        native_speedup = scalar_wall / native_wall
        assert native_speedup >= NATIVE_SPEEDUP_BAR, (
            f"native core only {native_speedup:.1f}x the scalar loop "
            f"(bar {NATIVE_SPEEDUP_BAR}x)"
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
            scheme, trials=CAMPAIGN_TRIALS, rate=0.5, tilt=8.0, chunk_size=1000, seed=7
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
