"""The RS codec's compiled GF core vs its scalar oracles.

Production ``ReedSolomon.decode`` (the compiled core wherever it builds)
must be **bit-identical** to the retained per-word Sugiyama decoder
(``ReedSolomon.decode_reference``) in every observable field - corrected
bytes, ``ok``, ``had_errors``, ``n_corrected`` - across the full
error/erasure mix: 0..t errors x 0..n-k erasures, beyond-budget patterns
(where detect-vs-miscorrect behaviour must match exactly, not just the
failure rate), and pure-garbage words.  The ``no_core`` fixture masks the
core so the same codec runs its fallback: encode, syndromes, decode and a
tilted rare-event campaign must give identical results either way.  The
compiled systematic encoder must match the NumPy LFSR
(``_encode_reference``) on every RS code the ECC catalog builds.
"""

import numpy as np
import pytest

from repro.ecc.chipkill import Chipkill18, Chipkill36
from repro.ecc.double_chipkill import DoubleChipkill40
from repro.ecc.lot_ecc_rs import LotEcc5RS
from repro.ecc.raim import Raim18EP
from repro.faults.rareevent import run_is_coverage
from repro.gf import GF16, GF256, GF65536, ReedSolomon
from repro.gf import rsnative

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


@pytest.fixture
def no_core(monkeypatch):
    """Mask the compiled GF core, as on a host without a compiler."""
    monkeypatch.setattr(rsnative, "available", lambda: False)


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
def test_batched_matches_oracle_across_mix(spec):
    """Property sweep: every (errors, erasures) cell, production decode vs oracle."""
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


@pytest.mark.parametrize("core", ["native", "masked"])
@pytest.mark.parametrize("scheme", [Chipkill36, Chipkill18, DoubleChipkill40],
                         ids=["rs36-32", "rs18-16", "rs40-32"])
def test_every_single_symbol_error_corrected(scheme, core, request):
    """Exhaustive guarantee: each of the n x 255 single-symbol errors of the
    catalog's GF(2^8) chipkill codes (23,970 words over the three) decodes
    back to its codeword with exactly one symbol changed, on the compiled
    core and on the masked-core fallback."""
    if core == "masked":
        request.getfixturevalue("no_core")
    rs = scheme()._rs
    n = rs.n
    pos = np.repeat(np.arange(n), 255)
    err = np.tile(np.arange(1, 256), n)
    rng = np.random.default_rng(n)
    cw = rs.encode(rng.integers(0, 256, (pos.size, rs.k), dtype=np.int64).astype(rs.field.dtype))
    bad = cw.copy()
    bad[np.arange(pos.size), pos] ^= err.astype(rs.field.dtype)
    res = rs.decode(bad)
    assert res.ok.all() and res.had_errors.all()
    assert (res.n_corrected == 1).all()
    assert np.array_equal(res.corrected, cw)
    if core == "native":
        # The masked run decodes with the oracle's own scalar loop, so
        # holding it to the guarantee above already ties it to the oracle.
        _assert_identical(res, rs.decode_reference(bad))


@pytest.mark.parametrize("spec", CODES)
def test_batched_matches_oracle_on_garbage(spec):
    """Uniformly random words: failure gates must fire identically."""
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
def test_native_matches_masked_core(spec, monkeypatch):
    """The codec with its core masked gives the native path's syndromes
    and decodes, cell for cell."""
    rs = _rs(spec)
    rng = np.random.default_rng(7)
    t = rs.num_check // 2
    for rho in (0, min(1, rs.num_check), rs.num_check):
        erasures = sorted(rng.choice(rs.n, size=rho, replace=False).tolist()) or None
        for e in (0, t, t + 1):
            _, bad = _mixed_batch(rs, rng, e, erasures or [])
            with monkeypatch.context() as m:
                assert rsnative.use_native(rs)
                on = rs.decode(bad, erasures=erasures)
                on_synd = rs.syndromes(bad)
                m.setattr(rsnative, "available", lambda: False)
                off = rs.decode(bad, erasures=erasures)
                off_synd = rs.syndromes(bad)
            _assert_identical(on, off)
            assert np.array_equal(on_synd, off_synd)


#: Every RS code the ECC catalog builds, plus a code too wide for the
#: encoder's packed-remainder table (20 check symbols x 8 bits > 64), which
#: takes the core's exp/log LFSR instead, and one over a field narrower
#: than its byte storage.
ENCODE_CODES = [
    pytest.param(lambda: Chipkill36()._rs, id="chipkill36-rs36-32"),
    pytest.param(lambda: Chipkill18()._rs, id="chipkill18-rs18-16"),
    pytest.param(lambda: DoubleChipkill40()._rs, id="dck40-rs40-32"),
    pytest.param(lambda: Raim18EP()._det_rs, id="raim-rs9-8"),
    pytest.param(lambda: LotEcc5RS()._rs, id="lot5rs-rs10-8-gf65536"),
    pytest.param(lambda: ReedSolomon(GF256, 60, 40), id="wide-rs60-40"),
    pytest.param(lambda: ReedSolomon(GF16, 15, 11), id="rs15-11-gf16"),
]


@pytest.mark.parametrize("mode", ["on", "off"])
@pytest.mark.parametrize("make", ENCODE_CODES)
def test_encode_matches_reference(make, mode, request):
    """``encode`` == ``_encode_reference`` in value, dtype and shape, for
    single messages, flat and nested batches, all-zero and max-symbol
    words, with the core on and masked (``off``)."""
    if mode == "on" and not rsnative.available():
        pytest.skip("native GF core unavailable")
    if mode == "off":
        request.getfixturevalue("no_core")
    rs = make()
    assert rsnative.use_native(rs) == (mode == "on")
    rng = np.random.default_rng(rs.n * 1000 + rs.k)
    top = rs.field.order - 1
    for shape in [(rs.k,), (0, rs.k), (64, rs.k), (2, 3, 5, rs.k)]:
        data = rng.integers(0, top + 1, shape).astype(rs.field.dtype)
        for msg in (data, np.zeros_like(data), np.full_like(data, top)):
            got = rs.encode(msg)
            ref = rs._encode_reference(msg)
            assert got.dtype == ref.dtype == rs.field.dtype
            assert got.shape == ref.shape == shape[:-1] + (rs.n,)
            assert np.array_equal(got, ref)
            assert np.array_equal(got[..., : rs.k], msg)
            assert not rs.detect(got).any()  # every output is a codeword


def test_native_rejects_out_of_range_symbols(monkeypatch):
    """Values that are not field symbols raise the same ``ValueError`` with
    the core available and masked, instead of indexing the C core's
    exp/log tables out of bounds or wrapping silently in the NumPy oracles."""
    for masked in (False, True):
        with monkeypatch.context() as m:
            if masked:
                m.setattr(rsnative, "available", lambda: False)
            with pytest.raises(ValueError, match="out of range for GF"):
                ReedSolomon(GF16, 15, 11).encode(np.full((2, 11), 16, dtype=np.uint8))
            with pytest.raises(ValueError, match="out of range for GF"):
                ReedSolomon(GF256, 36, 32).syndromes(np.full((2, 36), 300))
            with pytest.raises(ValueError, match="out of range for GF"):
                ReedSolomon(GF256, 36, 32).syndromes(np.full((2, 36), -1))


def test_erasure_setup_cache_reused(no_core):
    """The per-erasure-set solve state is built once, keyed by position set."""
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
    on = run_is_coverage(scheme, **kw)
    monkeypatch.setattr(rsnative, "available", lambda: False)
    off = run_is_coverage(scheme, **kw)
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
    """An armed bus yields ecc.decode events that summarize into a rate."""
    from repro import obs
    from repro.obs.summarize import read_events, summarize

    obs.configure(tmp_path)
    try:
        rs = ReedSolomon(GF256, 36, 32)
        rng = np.random.default_rng(1)
        cw = rs.encode(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        bad = cw.copy()
        bad[:, 4] ^= 0x5A
        res = rs.decode(bad)
        assert res.ok.all()
    finally:
        obs.init_from_env()
    decodes = [e for e in read_events(tmp_path) if e["kind"] == "ecc.decode"]
    assert decodes and decodes[-1]["dirty"] == 32
    assert decodes[-1]["code"] == "rs36_32"
    assert sum(e["dirty"] for e in decodes) >= 32
    assert summarize(tmp_path)["ecc"]["dirty_words_per_sec"] > 0


def test_erasure_only_decode_event_is_not_native(tmp_path):
    """``decode_erasures_batch`` solves in NumPy whatever core is built, so
    its ``ecc.decode`` event must say ``native: false``; ``decode`` on
    the same codec reports the core it actually ran."""
    import json

    from repro import obs

    obs.configure(tmp_path)
    try:
        rs = ReedSolomon(GF256, 36, 32)
        rng = np.random.default_rng(5)
        cw = rs.encode(rng.integers(0, 256, (16, 32), dtype=np.uint8))
        bad = cw.copy()
        bad[:, 7] ^= 0x33
        assert rs.decode_erasures_batch(bad, [7]).ok.all()
        assert rs.decode(bad).ok.all()
    finally:
        obs.init_from_env()
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    erasure_only, full = [e for e in events if e["kind"] == "ecc.decode"]
    assert erasure_only["rho"] == 1 and erasure_only["native"] is False
    assert full["native"] is rsnative.available()


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
