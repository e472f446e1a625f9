"""Shared trace blocks: streams replaying the memo equal private streams.

``make_core_traces`` memoizes the per-core blocks of integer-seeded
streams (one entry per process), so the eight configurations of a sweep
workload draw its trace once.  The contract under test: a stream built
while the memo is warm yields item for item what a private stream yields
(through ``take_batch``, ``next()`` and any mix of the two), live streams
of one key keep independent positions, ``seed=None`` never shares, and
every ``run_cells`` sweep draws its blocks afresh.

A private stream is built from a Generator seeded like the integer seed:
``make_rng`` passes a Generator through, so its streams are the same but
are never memoized.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments import evaluation, parallel
from repro.workloads import generator
from repro.workloads.generator import make_core_traces
from repro.workloads.profiles import WORKLOADS_BY_NAME

SCALE = 64
SEED = 7
N = 14_000  # past the 3 blocks the warming stream draws below


@pytest.fixture(autouse=True)
def cold_memo():
    generator.drop_shared_blocks()
    yield
    generator.drop_shared_blocks()


@pytest.fixture
def draws(monkeypatch):
    """Counts block draws (one per core per 4096 items)."""
    count = [0]
    real = generator._BlockSource.draw

    def counted(self):
        count[0] += 1
        return real(self)

    monkeypatch.setattr(generator._BlockSource, "draw", counted)
    return count


def traces(wl, seed=SEED, **kw):
    kw.setdefault("cores", 2)
    return make_core_traces(WORKLOADS_BY_NAME[wl], seed=seed, footprint_scale=SCALE, **kw)


def private(wl, **kw):
    return traces(wl, seed=np.random.default_rng(SEED), **kw)


def take_items(stream, n):
    return [next(stream) for _ in range(n)]


def batch(stream):
    gaps, lines, writes = stream.take_batch()
    return list(zip(gaps.tolist(), lines.tolist(), writes.tolist()))


def take_batches(stream, n):
    """Whole batches until at least *n* items (the last one is not cut)."""
    out = []
    while len(out) < n:
        out += batch(stream)
    return out


def take_mixed(stream, n):
    out = take_items(stream, 10)
    while len(out) < n:
        out += batch(stream) + take_items(stream, 3)
    return out


CASES = [("mcf", False), ("lbm", True), ("canneal", False), ("streamcluster", False)]


@pytest.mark.parametrize("line", [64, 128])
@pytest.mark.parametrize("take", [take_items, take_batches, take_mixed],
                         ids=["next", "take_batch", "mixed"])
@pytest.mark.parametrize("wl,hot_arena", CASES)
def test_warm_streams_equal_private(wl, hot_arena, take, line, draws):
    for warmer in traces(wl, hot_arena=hot_arena):
        take_items(warmer, 10_000)
    warmed = draws[0]
    assert warmed == 2 * 3
    got = [take(t, N) for t in traces(wl, hot_arena=hot_arena, llc_block_bytes=line)]
    replayed = draws[0]
    # The reference: the per-item state machine on a private stream.
    want = [take_items(t, len(g)) for t, g in
            zip(private(wl, hot_arena=hot_arena, llc_block_bytes=line), got)]
    assert got == want
    # The private streams drew every block; the warm ones replayed the 3
    # per core the warmers had drawn.
    assert draws[0] - replayed == replayed - warmed + 2 * 3


def test_take_batch_hands_over_stored_arrays():
    """The epoch core reads the blocks in place: int64, int64, bool, read-only."""
    gaps, lines, writes = traces("mcf")[0].take_batch()
    assert (gaps.dtype, lines.dtype, writes.dtype) == (np.int64, np.int64, np.bool_)
    assert not (gaps.flags.writeable or lines.flags.writeable or writes.flags.writeable)
    gaps2, lines2, _ = traces("mcf")[0].take_batch()
    assert np.shares_memory(gaps, gaps2) and np.shares_memory(lines, lines2)


def test_live_streams_of_one_key_are_independent():
    """Two systems built from one key (the XOR ablation) each see the whole stream."""
    a, b = traces("omnetpp", cores=1)[0], traces("omnetpp", cores=1)[0]
    got_a, got_b = [], []
    while len(got_a) < N or len(got_b) < N:
        got_a += take_items(a, 3000)
        got_b += batch(b) + take_items(b, 700)
    want = take_items(private("omnetpp", cores=1)[0], N)
    assert got_a[:N] == want and got_b[:N] == want


def test_seed_none_never_shares(draws):
    a = make_core_traces(WORKLOADS_BY_NAME["mcf"], cores=1, seed=None)[0]
    b = make_core_traces(WORKLOADS_BY_NAME["mcf"], cores=1, seed=None)[0]
    assert generator._SHARED is None
    assert take_items(a, 100) != take_items(b, 100)
    assert draws[0] == 2


def test_memo_lets_go_past_the_block_cap(draws):
    """A run longer than the cap releases the memo and stays exact."""
    n = generator.BLOCK_ITEMS * (generator.MAX_SHARED_BLOCKS + 2)
    got = take_mixed(traces("mcf", cores=1)[0], n)
    assert generator._SHARED is None
    assert got == take_items(private("mcf", cores=1)[0], len(got))


def test_one_entry_memo():
    traces("mcf")
    traces("lbm")
    assert generator._SHARED[0][0] is WORKLOADS_BY_NAME["lbm"]


TINY = evaluation.Fidelity("tiny", scale=64, access_target=2000)


def test_each_sweep_draws_its_blocks_afresh(draws, tmp_path, monkeypatch):
    """Back-to-back uncached sweeps of one workload draw the same blocks
    each time, and within a sweep the configs share them."""
    monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
    kw = dict(workloads=["mcf"], use_cache=False, jobs=1)
    one = evaluation.evaluation_matrix("quad", TINY, config_keys=["chipkill18"], **kw)
    single = draws[0]
    two = evaluation.evaluation_matrix("quad", TINY, config_keys=["chipkill18", "lot_ecc5_ep"], **kw)
    pair = draws[0] - single
    again = evaluation.evaluation_matrix("quad", TINY, config_keys=["chipkill18", "lot_ecc5_ep"], **kw)
    assert single > 0
    assert draws[0] - single - pair == pair  # the memo was dropped between sweeps
    assert pair < 2 * single  # the second config replayed the first one's blocks
    assert generator._SHARED is None
    assert asdict(two[("mcf", "chipkill18")]) == asdict(one[("mcf", "chipkill18")])
    assert {k: asdict(v) for k, v in again.items()} == {k: asdict(v) for k, v in two.items()}


def test_sweep_ignores_blocks_drawn_before_it(draws, tmp_path, monkeypatch):
    monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
    kw = dict(workloads=["mcf"], config_keys=["chipkill18"], use_cache=False, jobs=1)
    evaluation.evaluation_matrix("quad", TINY, **kw)
    cold = draws[0]
    for t in make_core_traces(WORKLOADS_BY_NAME["mcf"], cores=8, seed=0,
                              footprint_scale=TINY.scale):
        take_batches(t, 4 * generator.BLOCK_ITEMS)  # the sweep's key, drawn ahead
    warmed = draws[0]
    evaluation.evaluation_matrix("quad", TINY, **kw)
    assert draws[0] - warmed == cold > 0


def _boom(*payload):
    traces("mcf")  # a cell that warmed the memo, then failed
    raise RuntimeError("cell failed")


def test_failed_sweep_drops_the_memo(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell", _boom)
    with pytest.raises(parallel.CampaignError):
        list(parallel.run_cells("quad", [("mcf", "chipkill18")], TINY, seed=0,
                                jobs=1, retries=0, backoff=0))
    assert generator._SHARED is None


@pytest.mark.parametrize("given,want", [({}, 3), ({"batch": "auto"}, 3), ({"batch": 1}, 1)])
def test_auto_batches_hold_one_workload(given, want, monkeypatch):
    """Pool workers keep their own memo, so an auto-batched sweep submits
    one workload's cells per super-task."""
    seen = {}

    def fake_run_tasks(worker, payloads, jobs=None, **options):
        seen.update(options)
        return iter(())

    monkeypatch.setattr(parallel, "run_tasks", fake_run_tasks)
    cells = [(wl, key) for wl in ("mcf", "lbm") for key in ("chipkill18", "raim", "lot_ecc9")]
    list(parallel.run_cells("quad", cells, TINY, seed=0, jobs=2, **given))
    assert seen["batch"] == want

