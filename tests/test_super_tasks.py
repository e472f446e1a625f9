"""Granularity-aware dispatch: super-task batching, spooled results, warmth.

The contract under test (ISSUE 6 tentpole): coalescing small campaign
tasks into batched super-tasks must be *invisible* to every caller —
the ``batch`` argument in any mode yields bit-identical campaign results,
per-inner-task retry/timeout/chaos attribution matches the unbatched
engine, a crash mid-batch recovers without recomputing the inner tasks
whose results already reached the spool, and checkpointed caches written
by batched runs resume interchangeably with serial ones.
"""

import functools
import json
import multiprocessing
import os

import pytest

import repro.experiments.evaluation as ev
from repro import obs
from repro.experiments import parallel, resultcodec
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.faults.montecarlo import _eol_cell
from repro.obs.summarize import read_events
from repro.util import envcfg

PAYLOADS = [(2, 400, s, 61320.0, 1 << 16) for s in range(8)]

TINY = Fidelity("tiny", scale=64, access_target=4000)

CELLS = dict(workloads=["streamcluster", "sjeng"], config_keys=["chipkill18", "lot_ecc5_ep"])


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError(f"bad cell {x}")
    return x * x


def _traced_square(dirpath, x):
    """Appends one byte per execution so tests can count recomputations."""
    with open(os.path.join(dirpath, f"c{x}"), "ab") as fh:
        fh.write(b"x")
    return x * x


def _exec_counts(dirpath):
    return {
        name: os.path.getsize(os.path.join(dirpath, name))
        for name in sorted(os.listdir(dirpath))
    }


@pytest.fixture
def armed(tmp_path):
    run = tmp_path / "super-obs"
    obs.configure(run)
    yield run
    obs.disarm()
    obs.REGISTRY.reset()


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
    """1 == auto == fixed == serial, with and without chaos."""

    @pytest.fixture(scope="class")
    def reference(self):
        return sorted(parallel.run_tasks(_eol_cell, PAYLOADS, jobs=1))

    @pytest.mark.parametrize("batch", [1, "auto", 3, len(PAYLOADS)])
    def test_modes_match_serial(self, batch, reference):
        out = parallel.run_tasks(_eol_cell, PAYLOADS, jobs=3, batch=batch)
        assert sorted(out) == reference

    @pytest.mark.parametrize("batch", ["auto", 4])
    def test_chaos_storm_inside_batches(self, batch, reference):
        out = parallel.run_tasks(
            _eol_cell, PAYLOADS, jobs=3, batch=batch,
            chaos="crash@1,corrupt@4,corrupt@0#1", retries=2, backoff=0, timeout=10,
        )
        assert sorted(out) == reference

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
    """Retries, timeouts, and failures attach to inner tasks, not batches."""

    def test_corrupt_inner_charged_individually(self, armed):
        with pytest.raises(parallel.CampaignError) as ei:
            list(
                parallel.run_tasks(
                    _eol_cell, PAYLOADS, jobs=2, batch=4,
                    chaos="corrupt@2#*", retries=1, backoff=0,
                )
            )
        (f,) = ei.value.failures
        assert f.index == 2 and f.kind == "corrupt" and f.attempts == 2
        events = read_events(armed)
        retried = [e for e in events if e["kind"] == "engine.retry"]
        assert [(e["index"], e["reason"]) for e in retried] == [(2, "corrupt")]
        # The other seven inner tasks completed exactly once.
        oks = sorted(e["index"] for e in events if e["kind"] == "engine.ok")
        assert oks == [0, 1, 3, 4, 5, 6, 7]

    def test_worker_traceback_chained_as_cause(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(
                parallel.run_tasks(
                    _raise_on_three, [(i,) for i in range(8)], jobs=2, batch=4,
                    retries=0, backoff=0,
                )
            )
        (f,) = ei.value.failures
        assert isinstance(f.cause, ValueError) and f.index == 3
        # The worker's formatted traceback, as concurrent.futures chains it.
        assert "_raise_on_three" in str(f.cause.__cause__)

    def test_hang_inside_batch_charges_hung_inner_only(self, armed):
        out = list(
            parallel.run_tasks(
                _eol_cell, PAYLOADS, jobs=2, batch=4,
                chaos="hang=30@1", retries=2, backoff=0, timeout=1.5,
            )
        )
        assert sorted(out) == sorted(parallel.run_tasks(_eol_cell, PAYLOADS, jobs=1))
        events = read_events(armed)
        timeouts = [e["index"] for e in events if e["kind"] == "engine.timeout"]
        assert timeouts == [1]
        # Batch-mates of the hung task were requeued, not timed out.
        assert any(e["kind"] == "engine.requeue" for e in events)

    def test_finished_sibling_settles_while_inner_hangs(self, armed):
        """A spooled result must not wait out a sibling's hang.

        Regression guard: settling batch-mates only at deadline expiry
        delays their retries past the hung task's rebuilds, resetting the
        consecutive-rebuild counter and blocking the degrade-to-serial
        recovery a persistent hang depends on.  The parent drains the
        spool live, so the pre-hang inner's ``engine.ok`` must land well
        before the hang releases its super-task.
        """
        list(
            parallel.run_tasks(
                _square, [(i,) for i in range(4)], jobs=2, batch=2,
                chaos="hang=1.5@1", retries=0, backoff=0,
            )
        )
        events = read_events(armed)
        ok_ts = {e["index"]: e["ts"] for e in events if e["kind"] == "engine.ok"}
        assert sorted(ok_ts) == [0, 1, 2, 3]
        # Index 0 shares a batch with the 1.5 s hang at index 1; it must
        # settle on drain, not when the batch future finally completes.
        assert ok_ts[1] - ok_ts[0] > 1.0

    def test_retried_tasks_travel_alone(self, armed):
        list(
            parallel.run_tasks(
                _eol_cell, PAYLOADS, jobs=2, batch=4,
                chaos="corrupt@5#1", retries=2, backoff=0,
            )
        )
        events = read_events(armed)
        retried = {e["index"] for e in events if e["kind"] == "engine.submit" and e["attempt"] > 1}
        assert retried
        for index in retried:
            sizes = [e["size"] for e in events if e["kind"] == "engine.batch" and index in e["indices"]]
            # The first submission may share a batch; every retry goes alone.
            assert len(sizes) > 1 and all(size == 1 for size in sizes[1:])


class TestCrashRecovery:
    def test_finished_inners_not_recomputed_after_crash(self, tmp_path, armed):
        """A crash mid-batch recovers from the spool, not by re-execution."""
        counts = tmp_path / "exec"
        counts.mkdir()
        payloads = [(str(counts), i) for i in range(16)]
        out = list(
            parallel.run_tasks(
                _traced_square, payloads, jobs=2, batch=4,
                chaos="crash@6", retries=2, backoff=0,
            )
        )
        assert sorted(out) == sorted(i * i for i in range(16))
        # Every inner task ran exactly once: the crashed batch's finished
        # inners were settled from the spool, the unfinished rest requeued.
        assert _exec_counts(counts) == {f"c{i}": 1 for i in range(16)}
        events = read_events(armed)
        assert any(e["kind"] == "engine.rebuild" for e in events)
        crashed_batch = next(
            e for e in events if e["kind"] == "engine.batch" and 6 in e["indices"]
        )
        finished_before_crash = [i for i in crashed_batch["indices"] if i < 6]
        oks = {e["index"]: e for e in events if e["kind"] == "engine.ok"}
        for i in finished_before_crash:
            assert oks[i]["attempt"] == 1


    def test_flipped_spool_bit_is_recomputed_not_settled(self, tmp_path, armed, monkeypatch):
        """A spool record that fails its CRC is never settled live.

        Pool workers are forked from this process, so they inherit the
        patched frame builder: it flips one payload bit of inner 2's record
        exactly once (an O_EXCL marker file arbitrates between workers).
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers must inherit the patched frame builder")
        counts = tmp_path / "exec"
        counts.mkdir()
        marker = str(tmp_path / "flipped")
        real_frame = resultcodec.frame

        def flipping_frame(record):
            data = real_frame(record)
            if record[0] != 2:
                return data
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return data
            # Lowest byte of the encoded int 4: would settle as 5 unchecked.
            return data[:-8] + bytes([data[-8] ^ 0x01]) + data[-7:]

        monkeypatch.setattr(resultcodec, "frame", flipping_frame)
        payloads = [(str(counts), i) for i in range(8)]
        out = list(parallel.run_tasks(_traced_square, payloads, jobs=2, batch=4, backoff=0))
        assert os.path.exists(marker)
        assert sorted(out) == sorted(i * i for i in range(8))
        # Reading stops at the damaged record: inner 2 and the batch-mate
        # spooled after it are recomputed, everything else ran once.
        assert _exec_counts(counts) == {f"c{i}": 2 if i in (2, 3) else 1 for i in range(8)}
        events = read_events(armed)
        oks = {e["index"]: e["attempt"] for e in events if e["kind"] == "engine.ok"}
        assert oks[2] == 2 and oks[3] == 2
        requeued = {e["index"] for e in events if e["kind"] == "engine.requeue"}
        assert requeued == {2, 3}


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

    def test_chaos_armed_batched_matrix_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash@1,corrupt@2")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        monkeypatch.setenv("REPRO_JOBS", "4")
        _batch_cells(monkeypatch, 2)
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "batched")
        par = evaluation_matrix("quad", fidelity=TINY, **CELLS)

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert par == serial

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

    def test_codec_rejects_empty_buffer(self):
        with pytest.raises(ValueError):
            resultcodec.decode(b"")

    def test_codec_rejects_trailing_garbage(self):
        with pytest.raises(ValueError):
            resultcodec.decode(resultcodec.encode((1, 2)) + b"x")

    def test_codec_roundtrip_is_type_exact(self):
        import numpy as np

        values = [
            None, True, False, 0, -1, 1 << 62, -(1 << 62), 1 << 80,
            0.0, -0.0, 2.5, float("inf"), "", "héllo", b"\x00\xff",
            (), [], {}, (1, [2.0, "3"], {"k": (True, None)}),
            {"a": 1, 2: "b"}, np.arange(6, dtype=np.int32).reshape(2, 3),
            np.zeros((0, 4)), frozenset({1, 2}),
        ]
        for v in values:
            got = resultcodec.decode(resultcodec.encode(v))
            if isinstance(v, np.ndarray):
                assert got.dtype == v.dtype and got.shape == v.shape
                assert (got == v).all()
            else:
                assert got == v and type(got) is type(v)
        assert resultcodec.decode(resultcodec.encode(True)) is True
        assert type(resultcodec.decode(resultcodec.encode(1))) is int
