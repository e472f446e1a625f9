"""Batched RS decode kernel vs the scalar oracle (and the native core).

The lock-step Berlekamp-Massey kernel and the ``REPRO_GF_NATIVE`` compiled
core must be **bit-identical** to the retained per-word Sugiyama decoder
(``ReedSolomon.decode_reference``) in every observable field - corrected
bytes, ``ok``, ``had_errors``, ``n_corrected`` - across the full
error/erasure mix: 0..t errors x 0..n-k erasures, beyond-budget patterns
(where detect-vs-miscorrect behaviour must match exactly, not just the
failure rate), and pure-garbage words.  A tilted rare-event campaign must
produce bit-identical estimates whichever decode path runs.
"""

import numpy as np
import pytest

from repro.ecc.chipkill import Chipkill36
from repro.faults.rareevent import run_is_coverage
from repro.gf import GF256, GF65536, ReedSolomon
from repro.gf import rsnative
from repro.util.envcfg import gf_native

CODES = [
    pytest.param((GF256, 36, 32), id="rs36-32"),
    pytest.param((GF256, 18, 16), id="rs18-16"),
    pytest.param((GF256, 9, 8), id="rs9-8"),
    pytest.param((GF65536, 10, 8), id="rs10-8-gf65536"),
]

_RS_CACHE = {}


def _rs(spec):
    if spec not in _RS_CACHE:
        _RS_CACHE[spec] = ReedSolomon(*spec)
    return _RS_CACHE[spec]


def _assert_identical(res, ref):
    assert np.array_equal(res.corrected, ref.corrected)
    assert np.array_equal(res.ok, ref.ok)
    assert np.array_equal(res.had_errors, ref.had_errors)
    assert np.array_equal(res.n_corrected, ref.n_corrected)


def _mixed_batch(rs, rng, n_errors: int, erasures: "list[int]", n_words: int = 64):
    """Encoded words with *n_errors* random flips outside the erased
    positions plus arbitrary corruption at every erased position."""
    data = rng.integers(0, rs.field.order, (n_words, rs.k), dtype=np.int64)
    cw = rs.encode(data)
    bad = cw.astype(np.int64)
    free = np.setdiff1d(np.arange(rs.n), np.array(erasures, dtype=np.int64))
    for w in range(n_words):
        if n_errors:
            pos = rng.choice(free, size=min(n_errors, free.size), replace=False)
            bad[w, pos] ^= rng.integers(1, rs.field.order, pos.size)
        if erasures and rng.random() < 0.8:  # keep some erased symbols clean
            bad[w, erasures] = rng.integers(0, rs.field.order, len(erasures))
    return cw, bad.astype(rs.field.dtype)


@pytest.mark.parametrize("spec", CODES)
def test_batched_matches_oracle_across_mix(spec, monkeypatch):
    """Property sweep: every (errors, erasures) cell, NumPy kernel vs oracle."""
    monkeypatch.setenv("REPRO_GF_NATIVE", "off")
    rs = _rs(spec)
    rng = np.random.default_rng(hash(spec[1:]) % (2**32))
    t = rs.num_check // 2
    for rho in range(rs.num_check + 1):
        erasures = sorted(rng.choice(rs.n, size=rho, replace=False).tolist())
        for e in range(t + 2):  # through t+1: beyond-budget parity matters too
            cw, bad = _mixed_batch(rs, rng, e, erasures)
            res = rs.decode(bad, erasures=erasures or None)
            ref = rs.decode_reference(bad, erasures=erasures or None)
            _assert_identical(res, ref)
            if 2 * e + rho <= rs.num_check:
                assert res.ok.all()
                assert np.array_equal(res.corrected, cw)


@pytest.mark.parametrize("spec", CODES)
def test_batched_matches_oracle_on_garbage(spec, monkeypatch):
    """Uniformly random words: failure gates must fire identically."""
    monkeypatch.setenv("REPRO_GF_NATIVE", "off")
    rs = _rs(spec)
    rng = np.random.default_rng(99)
    garbage = rng.integers(0, rs.field.order, (256, rs.n), dtype=np.int64)
    _assert_identical(rs.decode(garbage), rs.decode_reference(garbage))
    era = [0, rs.n - 1]
    _assert_identical(
        rs.decode(garbage, erasures=era), rs.decode_reference(garbage, erasures=era)
    )


@pytest.mark.skipif(not rsnative.available(), reason="native GF core unavailable")
@pytest.mark.parametrize("spec", CODES)
def test_native_matches_numpy_batch(spec, monkeypatch):
    """``REPRO_GF_NATIVE=on`` and ``off`` are bit-identical everywhere."""
    rs = _rs(spec)
    rng = np.random.default_rng(7)
    t = rs.num_check // 2
    for rho in (0, min(1, rs.num_check), rs.num_check):
        erasures = sorted(rng.choice(rs.n, size=rho, replace=False).tolist()) or None
        for e in (0, t, t + 1):
            _, bad = _mixed_batch(rs, rng, e, erasures or [])
            monkeypatch.setenv("REPRO_GF_NATIVE", "on")
            on = rs.decode(bad, erasures=erasures)
            on_synd = rs.syndromes(bad)
            monkeypatch.setenv("REPRO_GF_NATIVE", "off")
            off = rs.decode(bad, erasures=erasures)
            off_synd = rs.syndromes(bad)
            _assert_identical(on, off)
            assert np.array_equal(on_synd, off_synd)


def test_native_on_raises_when_ineligible(monkeypatch):
    """``on`` is a hard requirement: ineligible codes must error, not fall back."""
    monkeypatch.setenv("REPRO_GF_NATIVE", "on")
    rs = ReedSolomon(GF256, 36, 32)
    ineligible = ReedSolomon.__new__(ReedSolomon)
    ineligible.__dict__.update(rs.__dict__)
    ineligible.num_check = rsnative.RS_MAXCHK + 2  # out of native scope
    assert not rsnative.eligible(ineligible)
    with pytest.raises(RuntimeError, match="REPRO_GF_NATIVE=on"):
        rsnative.use_native(ineligible)


def test_gf_native_knob_validation(monkeypatch):
    monkeypatch.setenv("REPRO_GF_NATIVE", "auto")
    assert gf_native() == "auto"
    monkeypatch.delenv("REPRO_GF_NATIVE", raising=False)
    assert gf_native() == "auto"
    assert gf_native("off") == "off"
    with pytest.raises(ValueError, match="REPRO_GF_NATIVE"):
        gf_native("sometimes")
    monkeypatch.setenv("REPRO_GF_NATIVE", "never")
    with pytest.raises(ValueError, match="REPRO_GF_NATIVE"):
        gf_native()


def test_erasure_setup_cache_reused(monkeypatch):
    """The per-erasure-set solve state is built once, keyed by position set."""
    monkeypatch.setenv("REPRO_GF_NATIVE", "off")
    rs = ReedSolomon(GF256, 36, 32)
    s1 = rs._erasure_setup([7, 3])
    s2 = rs._erasure_setup([3, 7])
    s3 = rs._erasure_setup((3, 7, 7))
    assert s1 is s2 is s3
    assert rs._erasure_setup(None) is rs._erasure_setup([])
    with pytest.raises(ValueError, match="erasure position out of range"):
        rs._erasure_setup([rs.n])
    # decode error-ordering contract is preserved through the cache
    rng = np.random.default_rng(0)
    cw = rs.encode(rng.integers(0, 256, (4, 32), dtype=np.uint8))
    with pytest.raises(ValueError, match="out of range"):
        rs.decode(cw, erasures=[-1])
    with pytest.raises(ValueError, match="at least one erasure"):
        rs.decode_erasures_batch(cw, [])
    with pytest.raises(ValueError, match="more erasures than check symbols"):
        rs.decode_erasures_batch(cw, [0, 1, 2, 3, 4])


@pytest.mark.skipif(not rsnative.available(), reason="native GF core unavailable")
def test_tilted_campaign_bit_identical_across_kernels(monkeypatch):
    """run_is_coverage estimates are invariant to the decode implementation."""
    scheme = Chipkill36()
    kw = dict(trials=1500, rate=0.5, tilt=8.0, chunk_size=500, seed=11)
    monkeypatch.setenv("REPRO_GF_NATIVE", "off")
    off = run_is_coverage(scheme, **kw)
    monkeypatch.setenv("REPRO_GF_NATIVE", "on")
    on = run_is_coverage(scheme, **kw)
    assert on.mean == off.mean
    assert on.se_mean == off.se_mean
    assert on.trials == off.trials
    assert on.ess == off.ess


def test_tilted_campaign_plain_mode_unit_weights():
    est = run_is_coverage(Chipkill36(), trials=500, rate=0.5, tilt=1.0, seed=2)
    assert est.mode == "off"
    assert est.trials == 500
    assert est.ess == pytest.approx(500.0)


def test_decode_emits_ecc_events(tmp_path):
    """An armed bus yields ecc.decode events + counters from one decode."""
    from repro import obs

    obs.configure(tmp_path)
    try:
        rs = ReedSolomon(GF256, 36, 32)
        rng = np.random.default_rng(1)
        cw = rs.encode(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        bad = cw.copy()
        bad[:, 4] ^= 0x5A
        res = rs.decode(bad)
        assert res.ok.all()
        snap = obs.REGISTRY.snapshot()
        assert snap["counters"]["ecc.decode_batches"] >= 1
        assert snap["counters"]["ecc.dirty_words"] >= 32
        assert snap["gauges"]["ecc.dirty_words_per_sec"] > 0
    finally:
        obs.init_from_env()
    events = [
        __import__("json").loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    decodes = [e for e in events if e["kind"] == "ecc.decode"]
    assert decodes and decodes[-1]["dirty"] == 32
    assert decodes[-1]["code"] == "rs36_32"


def test_summarize_attributes_codec_time(tmp_path):
    """The summarize CLI renders an ecc section from the decode events."""
    from repro import obs
    from repro.obs import summarize as sz

    obs.configure(tmp_path)
    try:
        rs = ReedSolomon(GF256, 18, 16)
        rng = np.random.default_rng(3)
        cw = rs.encode(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        bad = cw.copy()
        bad[:, 2] ^= 1
        rs.decode(bad)
    finally:
        obs.init_from_env()
    summary = sz.summarize(tmp_path)
    assert summary["ecc"]["batches"] >= 1
    assert summary["ecc"]["dirty_words"] == 16
    assert "rs18_16" in summary["ecc"]["codes"]
    assert "ecc codec:" in sz.render(summary)
