"""Granularity-aware dispatch: super-task batching and warmth.

The contract under test: coalescing small campaign tasks into batched
super-tasks must be *invisible* to every caller — the ``batch`` argument
in any mode yields bit-identical campaign results, an inner task's
exception is charged to that inner task alone, a worker dying mid-batch
fails the campaign and its rerun matches the serial run, and
checkpointed caches written by batched runs resume interchangeably with
serial ones.
"""

import functools
import json
import os

import pytest

import repro.experiments.evaluation as ev
from repro import obs
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.obs.summarize import read_events
from repro.util import envcfg

from tests.eol_workers import eol_digest, eol_or_exit

PAYLOADS = [(2, 400, s, 61320.0, 1 << 16) for s in range(8)]

TINY = Fidelity("tiny", scale=64, access_target=4000)

CELLS = dict(workloads=["streamcluster", "sjeng"], config_keys=["chipkill18", "lot_ecc5_ep"])


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError(f"bad cell {x}")
    return x * x


_REAL_RUN_GROUP = parallel._run_group


def _run_group_or_exit(*payload):
    """A matrix group whose worker dies on the (sjeng, lot_ecc5_ep) cell."""
    if payload[1] == "sjeng" and "lot_ecc5_ep" in payload[2]:
        os._exit(3)
    return _REAL_RUN_GROUP(*payload)


@pytest.fixture
def armed(tmp_path):
    run = tmp_path / "super-obs"
    obs.configure(run)
    yield run
    obs.disarm()


class TestBatchKnob:
    """``batch`` is a ``run_tasks`` argument; no environment knob feeds it."""

    def test_default_is_auto(self, armed):
        assert list(parallel.run_tasks(_square, [(2,), (3,)], jobs=1)) == [4, 9]
        (start,) = [e for e in read_events(armed) if e["kind"] == "engine.start"]
        assert start["batch"] == "auto"

    def test_explicit_wins_over_env(self, armed, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_BATCH", "huge")  # not a knob: ignored, never parsed
        assert "REPRO_TASK_BATCH" not in envcfg.KNOBS
        out = parallel.run_tasks(_square, [(i,) for i in range(8)], jobs=2, batch=4)
        assert sorted(out) == [i * i for i in range(8)]
        assert max(e["size"] for e in read_events(armed) if e["kind"] == "engine.batch") == 4

    @pytest.mark.parametrize("bad", [0, -3, 3.5, "huge", "off"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            list(parallel.run_tasks(_square, [(2,), (3,)], jobs=2, batch=bad))

    def test_explicit_zero_rejected(self):
        # Checked before the serial/pooled split: a serial run rejects it too.
        with pytest.raises(ValueError):
            list(parallel.run_tasks(_square, [(2,), (3,)], jobs=1, batch=0))


class TestBatchedBitIdentity:
    """1 == auto == fixed == serial, and a worker death mid-batch."""

    @pytest.fixture(scope="class")
    def reference(self):
        return sorted(parallel.run_tasks(eol_digest, PAYLOADS, jobs=1))

    @pytest.mark.parametrize("batch", [1, "auto", 3, len(PAYLOADS)])
    def test_modes_match_serial(self, batch, reference):
        out = parallel.run_tasks(eol_digest, PAYLOADS, jobs=3, batch=batch)
        assert sorted(out) == reference

    @pytest.mark.parametrize("batch", ["auto", 4])
    def test_worker_death_inside_batches(self, batch, reference):
        """A worker dying inside a batch fails the campaign; every result
        that did arrive is the serial one, and the rerun is the serial run."""
        dying = [(i == 5, *p) for i, p in enumerate(PAYLOADS)]
        got = []
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(eol_or_exit, dying, jobs=3, batch=batch):
                got.append(r)
        failed = {f.index for f in ei.value.failures}
        assert 5 in failed and len(got) + len(failed) == len(PAYLOADS)
        assert all(r in reference for r in got)
        rerun = parallel.run_tasks(eol_digest, PAYLOADS, jobs=3, batch=batch)
        assert sorted(rerun) == reference

    def test_batch_events_and_paths(self, armed):
        out = list(parallel.run_tasks(_square, [(i,) for i in range(24)], jobs=2, batch=4))
        assert sorted(out) == [i * i for i in range(24)]
        events = read_events(armed)
        batches = [e for e in events if e["kind"] == "engine.batch"]
        assert batches and all(e["size"] == len(e["indices"]) for e in batches)
        assert any(e["size"] == 4 for e in batches)
        submitted = [e["index"] for e in events if e["kind"] == "engine.submit"]
        assert sorted(submitted) == list(range(24))
        # The bulk travels batched; the queue tail may drain as singles
        # (the fair-share cap keeps the last tasks spread over the pool).
        assert sum(e["size"] for e in batches if e["size"] > 1) >= 16
        oks = [e["index"] for e in events if e["kind"] == "engine.ok"]
        assert sorted(oks) == list(range(24))

    def test_auto_calibrates_up_from_singles(self, armed):
        list(parallel.run_tasks(_square, [(i,) for i in range(40)], jobs=2, batch="auto"))
        events = read_events(armed)
        sizes = [e["size"] for e in events if e["kind"] == "engine.batch"]
        # Calibration singles first, then measured-cost batches.
        assert sizes[0] == 1
        assert any(size > 1 for size in sizes)


class TestInnerTaskAttribution:
    """Failures attach to inner tasks, not batches."""

    def test_inner_exception_charged_individually(self, armed):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_raise_on_three, [(i,) for i in range(8)], jobs=2, batch=4))
        (f,) = ei.value.failures
        assert f.index == 3 and f.kind == "exception"
        events = read_events(armed)
        assert [e["index"] for e in events if e["kind"] == "engine.fail"] == [3]
        # The other seven inner tasks completed exactly once.
        oks = sorted(e["index"] for e in events if e["kind"] == "engine.ok")
        assert oks == [0, 1, 2, 4, 5, 6, 7]

    def test_worker_traceback_chained_as_cause(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_raise_on_three, [(i,) for i in range(8)], jobs=2, batch=4))
        (f,) = ei.value.failures
        assert isinstance(f.cause, ValueError) and f.index == 3
        # The worker's formatted traceback, as concurrent.futures chains it.
        assert "_raise_on_three" in str(f.cause.__cause__)


def _batch_cells(monkeypatch, batch):
    """Pin the batch size of every evaluation-matrix campaign."""
    monkeypatch.setattr(parallel, "run_cells", functools.partial(parallel.run_cells, batch=batch))


class TestMatrixBatching:
    """The evaluation matrix is bit-identical across batching modes."""

    @pytest.mark.parametrize("mode", [1, "auto", 2])
    def test_matrix_modes_bit_identical(self, mode, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        serial_cache = json.loads(next((tmp_path / "serial").glob("*.json")).read_text())

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / str(mode))
        _batch_cells(monkeypatch, mode)
        par = evaluation_matrix("quad", fidelity=TINY, **CELLS)
        par_cache = json.loads(next((tmp_path / str(mode)).glob("*.json")).read_text())

        assert par == serial
        assert json.dumps(par_cache, sort_keys=True) == json.dumps(
            serial_cache, sort_keys=True
        )

    def test_worker_death_batched_matrix_resumes_to_serial(self, tmp_path, monkeypatch):
        """A pooled sweep whose worker dies on one cell fails; its rerun
        computes only the cells the checkpoint lacks, and the compacted
        cache bytes equal a serial sweep's."""
        keys = {f"{w}|{k}" for w in CELLS["workloads"] for k in CELLS["config_keys"]}
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "batched")
        _batch_cells(monkeypatch, 2)
        monkeypatch.setattr(parallel, "_run_group", _run_group_or_exit)
        with pytest.raises(parallel.CampaignError) as ei:
            evaluation_matrix("quad", fidelity=TINY, jobs=2, **CELLS)
        failed = {f"{f.payload[1]}|{k}" for f in ei.value.failures for k in f.payload[2]}
        assert "sjeng|lot_ecc5_ep" in failed
        cache_path = next((tmp_path / "batched").glob("*.json"))
        checkpointed = set(json.loads(cache_path.read_text())) - {"__meta__"}
        assert checkpointed | failed == keys and not checkpointed & failed

        simulated = []

        def counting(*args):
            simulated.extend(f"{args[1]}|{k}" for k in args[2])
            return _REAL_RUN_GROUP(*args)

        monkeypatch.setattr(parallel, "_run_group", counting)
        resumed = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert set(simulated) == failed and len(simulated) == len(failed)

        monkeypatch.setattr(parallel, "_run_group", _REAL_RUN_GROUP)
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert resumed == serial
        assert cache_path.read_bytes() == next((tmp_path / "serial").glob("*.json")).read_bytes()

    def test_batched_cache_resumes_serial_checkpoint(self, tmp_path, monkeypatch):
        """Cells checkpointed by a serial run are honoured by a batched one."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "shared")
        partial = evaluation_matrix(
            "quad", fidelity=TINY, jobs=1,
            workloads=["streamcluster"], config_keys=CELLS["config_keys"],
        )
        cache_path = next((tmp_path / "shared").glob("*.json"))
        checkpointed = json.loads(cache_path.read_text())
        checkpointed.pop("__meta__")  # schema stamp, not a cell
        assert len(checkpointed) == 2

        monkeypatch.setenv("REPRO_JOBS", "4")
        _batch_cells(monkeypatch, 2)
        resumed = evaluation_matrix("quad", fidelity=TINY, **CELLS)
        # The checkpointed cells were reused verbatim, the rest computed.
        for key, cell in partial.items():
            assert resumed[key] == cell

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "fresh")
        fresh = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert resumed == fresh


class TestDecodeGuards:
    """Empty / degenerate campaigns must not trip the batched transport."""

    def test_empty_payloads(self):
        assert list(parallel.run_tasks(_square, [], batch=8)) == []

    def test_single_payload_stays_serial(self, armed):
        assert list(parallel.run_tasks(_square, [(3,)], jobs=4, batch=8)) == [9]
        events = read_events(armed)
        starts = [e for e in events if e["kind"] == "engine.start"]
        assert starts[0]["path"] == "serial"
