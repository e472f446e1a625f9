"""Failure contract of the campaign engine.

The contract under test: every task runs once; a task that raises
becomes a structured failure record, raised in one ``CampaignError``
*after* every healthy task completed; a dead pool worker ends the
campaign at once, failing every unfinished task and leaving no worker
behind; cancellation (abandoned generator / KeyboardInterrupt) cleans
the pool up without losing checkpointed work; an interrupted campaign
resumes from its cache recomputing only the unfinished cells; and every
campaign driver's pooled run is bit-identical to its serial run.
"""

import functools
import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.experiments.evaluation as ev
from repro.ecc import Chipkill36, LotEcc5, LotEcc5RS
from repro.experiments import parallel
from repro.experiments.collision import two_fault_collision_mc
from repro.experiments.coverage import coverage_study
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.experiments.reliability import figure8, figure8_tail
from repro.faults.rareevent import run_is_coverage
from repro.util import envcfg
from repro.util.cachefile import load_json_cache, write_json_cache_atomic

TINY = Fidelity("tiny", scale=64, access_target=4000)
CELLS = dict(
    workloads=["streamcluster", "sjeng"],
    config_keys=["chipkill18", "lot_ecc5_ep"],
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad cell {x}")


def _boom_on_three(x):
    if x == 3:
        raise ValueError("cell 3 is cursed")
    return x * x


def _count_then_boom(marker_dir, x):
    """Appends one byte per execution, then fails."""
    with open(os.path.join(marker_dir, f"c{x}"), "ab") as fh:
        fh.write(b"x")
    raise RuntimeError(f"cell {x} failed")


def _exit_on(target, x):
    """Kills its worker process (as the OOM killer would) on task *target*."""
    if x == target:
        os._exit(3)
    return x


def _slow_touch(out_dir, i, delay):
    """Sleep *delay* seconds, then leave a proof-of-execution file."""
    time.sleep(delay)
    with open(os.path.join(out_dir, f"task-{i}"), "w"):
        pass
    return i


class TestTaskFailures:
    """A failing task runs once and is recorded; the others complete."""

    def test_exceptions_collected_as_failures(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_boom, [(i,) for i in range(3)], jobs=1))
        err = ei.value
        assert err.total == 3 and len(err.failures) == 3
        for f in err.failures:
            assert f.kind == "exception"
            assert "ValueError: bad cell" in f.error
        assert {f.payload for f in err.failures} == {(0,), (1,), (2,)}
        assert "bad cell" in str(err)

    def test_healthy_tasks_complete_before_campaign_error(self):
        got = []
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(_boom_on_three, [(i,) for i in range(6)], jobs=2):
                got.append(r)
        assert sorted(got) == [0, 1, 4, 16, 25]
        (f,) = ei.value.failures
        assert f.payload == (3,) and f.index == 3 and f.kind == "exception"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_task_runs_once(self, tmp_path, jobs):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_count_then_boom, [(str(tmp_path), i) for i in range(4)], jobs=jobs))
        assert len(ei.value.failures) == 4
        assert {p.name: p.stat().st_size for p in tmp_path.iterdir()} == {
            f"c{i}": 1 for i in range(4)
        }


class TestWorkerDeath:
    """A dead worker ends the campaign; the rerun is the recovery."""

    @pytest.mark.parametrize("batch", [1, 3, "auto"])
    def test_worker_death_fails_every_unfinished_task(self, batch):
        tasks = 12
        got = []
        t0 = time.monotonic()
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(_exit_on, [(5, i) for i in range(tasks)], jobs=2, batch=batch):
                got.append(r)
        elapsed = time.monotonic() - t0
        err = ei.value
        failed = [f.index for f in err.failures]
        # The dying task and every task not yet yielded fail, once each;
        # every yielded result is a real one.
        assert 5 in failed
        assert sorted(got + failed) == list(range(tasks))
        assert all(f.kind == "worker died" for f in err.failures)
        assert "BrokenProcessPool" in err.failures[0].error
        assert "task #5 (5, 5): worker died" in str(err)
        assert elapsed < 30.0
        assert multiprocessing.active_children() == []

    def test_serial_path_has_no_worker_to_lose(self):
        # jobs=1 is the reference path: tasks run in the driver, in order.
        assert list(parallel.run_tasks(_exit_on, [(-1, i) for i in range(4)], jobs=1)) == [0, 1, 2, 3]


class TestHungWorkerTeardown:
    def test_hung_worker_is_killed_under_flag_only_sigterm_handler(self, tmp_path):
        """A driver's flag-only SIGTERM handler must not reach the pool
        workers it forks: abandoning a campaign must kill a busy worker."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            payloads = [(str(tmp_path), 0, 60.0)] + [(str(tmp_path), i, 0.0) for i in (1, 2)]
            t0 = time.monotonic()
            gen = parallel.run_tasks(_slow_touch, payloads, jobs=2, batch=1)
            assert next(gen) in (1, 2)
            gen.close()
            elapsed = time.monotonic() - t0
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert multiprocessing.active_children() == []
        assert elapsed < 10.0  # the 60 s task was killed, not waited for
        assert not (tmp_path / "task-0").exists()


class TestEnvKnobs:
    def test_shared_parser_reaches_jobs_and_trials(self, monkeypatch):
        """REPRO_JOBS and REPRO_MC_TRIALS route through the same helper."""
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert parallel.default_jobs() == 6
        assert envcfg.jobs(1) == 6
        monkeypatch.setenv("REPRO_MC_TRIALS", "123")
        assert envcfg.mc_trials(None, 20000) == 123


class TestCancellation:
    """Abandoned and interrupted campaigns."""

    def test_abandoned_generator_cancels_pending_work(self, tmp_path):
        payloads = [(str(tmp_path), i, 0.2) for i in range(12)]
        gen = parallel.run_tasks(_slow_touch, payloads, jobs=2)
        next(gen)
        gen.close()  # GeneratorExit at the yield -> cancel_futures + pool kill
        time.sleep(1.0)  # anything still running would finish in this window
        done = [p for p in tmp_path.iterdir() if p.name.startswith("task-")]
        assert 1 <= len(done) < 12

    def test_keyboard_interrupt_propagates_and_finishes_generator(self, tmp_path):
        payloads = [(str(tmp_path), i, 0.05) for i in range(8)]
        gen = parallel.run_tasks(_slow_touch, payloads, jobs=2)
        next(gen)
        with pytest.raises(KeyboardInterrupt):
            gen.throw(KeyboardInterrupt)
        with pytest.raises(StopIteration):
            next(gen)

    def test_interrupted_matrix_checkpoints_and_resumes(self, tmp_path, monkeypatch):
        """A campaign killed mid-flight resumes from its checkpoint and
        recomputes only the unfinished cells."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        real_run_cells = parallel.run_cells

        def interrupted(*args, **kwargs):
            inner = real_run_cells(*args, **kwargs)

            def wrapper():
                yield next(inner)  # let exactly one cell finish
                inner.close()
                raise KeyboardInterrupt

            return wrapper()

        monkeypatch.setattr(parallel, "run_cells", interrupted)
        with pytest.raises(KeyboardInterrupt):
            evaluation_matrix("quad", fidelity=TINY, jobs=2, **CELLS)

        cache_file = next(tmp_path.glob("matrix-*.json"))
        checkpointed = json.loads(cache_file.read_text())
        checkpointed.pop("__meta__")  # schema stamp, not a cell
        assert len(checkpointed) == 1  # exactly the finished cell survived

        # Resume: only the three unfinished cells are simulated.
        monkeypatch.setattr(parallel, "run_cells", real_run_cells)
        simulated = []
        real_cell = parallel._run_cell

        def counting(*args):
            simulated.append(f"{args[1]}|{args[2]}")
            return real_cell(*args)

        monkeypatch.setattr(parallel, "_run_cell", counting)
        resumed = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert len(simulated) == 3
        all_keys = {f"{w}|{k}" for w in CELLS["workloads"] for k in CELLS["config_keys"]}
        assert set(simulated) | set(checkpointed) == all_keys
        assert not (set(simulated) & set(checkpointed))

        # And the resumed matrix equals an uninterrupted serial run.
        monkeypatch.setattr(parallel, "_run_cell", real_cell)
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "fresh")
        fresh = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert resumed == fresh


@pytest.fixture(params=["auto", 1])
def batch(request, monkeypatch):
    """Pin the batch size of every engine campaign the drivers start."""
    monkeypatch.setattr(parallel, "run_tasks", functools.partial(parallel.run_tasks, batch=request.param))
    monkeypatch.setattr(parallel, "run_cells", functools.partial(parallel.run_cells, batch=request.param))
    return request.param


class TestDriverBitIdentity:
    """Every campaign driver: pooled (``jobs=2``) == serial, bit for bit,
    under both the calibrated and the one-task-per-submission dispatch."""

    def test_fig8_driver(self, batch):
        assert figure8(trials=800, seed=0, jobs=2) == figure8(trials=800, seed=0, jobs=1)

    @pytest.mark.parametrize("mode", ["is", "strat"])
    def test_fig8_tail_driver(self, batch, mode):
        kw = dict(trials=400, seed=1, mode=mode)
        assert figure8_tail(jobs=2, **kw) == figure8_tail(jobs=1, **kw)

    def test_coverage_driver(self, batch):
        schemes = [Chipkill36(), LotEcc5()]
        assert coverage_study(schemes, trials=40, seed=2, jobs=2) == coverage_study(
            schemes, trials=40, seed=2, jobs=1
        )

    def test_collision_driver(self, batch):
        par = two_fault_collision_mc(trials=48, seed=0, jobs=2)
        serial = two_fault_collision_mc(trials=48, seed=0, jobs=1)
        assert (par.collisions, par.trials) == (serial.collisions, serial.trials)

    @pytest.mark.parametrize("scheme", [Chipkill36, LotEcc5RS], ids=lambda c: c.__name__)
    def test_is_coverage_driver(self, batch, scheme):
        kw = dict(trials=1_500, rate=0.5, tilt=8.0, chunk_size=1_000, seed=3)
        pooled = run_is_coverage(scheme(), jobs=2, **kw)
        assert pooled.to_dict() == run_is_coverage(scheme(), jobs=1, **kw).to_dict()

    def test_evaluation_matrix_driver(self, batch, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "par")
        par = evaluation_matrix("quad", fidelity=TINY, jobs=2, **CELLS)
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert par == serial
        par_bytes = next((tmp_path / "par").glob("*.json")).read_bytes()
        assert par_bytes == next((tmp_path / "serial").glob("*.json")).read_bytes()


class TestCacheMerge:
    """Merge-on-write hardening of the shared checkpoint files."""

    def test_concurrent_campaigns_keep_each_others_cells(self, tmp_path):
        # Interleaved read-modify-write of two campaigns sharing one file:
        # before merge-on-write the second writer dropped the first's cell.
        path = tmp_path / "matrix.json"
        a = load_json_cache(path)
        b = load_json_cache(path)  # both campaigns start from a cold file
        a["wl1|cfg"] = {"epi": 1}
        write_json_cache_atomic(path, a)
        b["wl2|cfg"] = {"epi": 2}
        write_json_cache_atomic(path, b)
        assert load_json_cache(path) == {"wl1|cfg": {"epi": 1}, "wl2|cfg": {"epi": 2}}

    def test_writer_wins_per_key(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1, "b": 1})
        write_json_cache_atomic(path, {"b": 2})
        assert load_json_cache(path) == {"a": 1, "b": 2}

    def test_merge_tolerates_corrupt_disk(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"torn": ')
        write_json_cache_atomic(path, {"a": 1})
        assert load_json_cache(path) == {"a": 1}
        # The corrupt original was quarantined, not merged; no temp litter.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["c.json", "c.json.quarantine"]
        assert any((tmp_path / "c.json.quarantine").iterdir())

    def test_interrupted_write_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        with pytest.raises(TypeError):  # aborts mid-write, before the rename
            write_json_cache_atomic(path, {"b": object()})
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        assert load_json_cache(path) == {"a": 1}  # old checkpoint intact

    def test_caller_dict_not_mutated(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        mine = {"b": 2}
        write_json_cache_atomic(path, mine)
        assert mine == {"b": 2}
