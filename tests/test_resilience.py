"""Resilience layer of the campaign engine.

The contract under test: transient worker failures are retried with a
bounded budget, exhausted tasks become structured failure records raised
in one ``CampaignError`` *after* every healthy task completed, per-task
timeouts reclaim hung workers by rebuilding the pool, cancellation
(abandoned generator / KeyboardInterrupt) cleans the pool up without
losing checkpointed work, and an interrupted campaign resumes from its
cache recomputing only the unfinished cells.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.experiments.evaluation as ev
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix
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


def _flaky(marker_dir, x):
    """Deterministically fails on its first call per (marker_dir, x)."""
    marker = os.path.join(marker_dir, f"marker-{x}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient {x}")
    return x * x


def _slow_touch(out_dir, i, delay):
    """Sleep *delay* seconds, then leave a proof-of-execution file."""
    time.sleep(delay)
    with open(os.path.join(out_dir, f"task-{i}"), "w"):
        pass
    return i


class TestRetries:
    def test_serial_flaky_retried_in_order(self, tmp_path):
        out = list(
            parallel.run_tasks(
                _flaky, [(str(tmp_path), i) for i in range(5)], jobs=1, retries=1, backoff=0
            )
        )
        assert out == [0, 1, 4, 9, 16]

    def test_pooled_flaky_retried(self, tmp_path):
        out = list(
            parallel.run_tasks(
                _flaky, [(str(tmp_path), i) for i in range(6)], jobs=3, retries=2, backoff=0
            )
        )
        assert sorted(out) == [0, 1, 4, 9, 16, 25]

    def test_exhausted_budget_collected_as_failures(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_boom, [(i,) for i in range(3)], jobs=1, retries=1, backoff=0))
        err = ei.value
        assert err.total == 3 and len(err.failures) == 3
        for f in err.failures:
            assert f.kind == "exception" and f.attempts == 2
            assert "ValueError: bad cell" in f.error
        assert {f.payload for f in err.failures} == {(0,), (1,), (2,)}
        assert "bad cell" in str(err)

    def test_healthy_tasks_complete_before_campaign_error(self):
        got = []
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(
                _boom_on_three, [(i,) for i in range(6)], jobs=2, retries=1, backoff=0
            ):
                got.append(r)
        assert sorted(got) == [0, 1, 4, 16, 25]
        (f,) = ei.value.failures
        assert f.payload == (3,) and f.index == 3 and f.kind == "exception"

    def test_zero_retries_single_attempt(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_boom, [(0,), (1,)], jobs=1, retries=0, backoff=0))
        assert all(f.attempts == 1 for f in ei.value.failures)


class TestTimeout:
    def test_hung_task_fails_others_complete(self, tmp_path):
        payloads = [(str(tmp_path), i, 20.0 if i == 1 else 0.0) for i in range(5)]
        t0 = time.monotonic()
        got = []
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(
                _slow_touch, payloads, jobs=2, timeout=0.5, retries=1, backoff=0
            ):
                got.append(r)
        assert sorted(got) == [0, 2, 3, 4]
        (f,) = ei.value.failures
        assert f.kind == "timeout" and f.index == 1 and f.attempts == 2
        assert "0.5" in f.error
        # Two timeout windows plus rebuilds, nowhere near the 20s sleep.
        assert time.monotonic() - t0 < 15.0

    def test_timeout_disabled_by_default(self, tmp_path):
        # a 0.7s task survives with no timeout configured
        out = list(parallel.run_tasks(_slow_touch, [(str(tmp_path), 0, 0.7), (str(tmp_path), 1, 0.0)], jobs=2))
        assert sorted(out) == [0, 1]


class TestHungWorkerTeardown:
    def test_hung_worker_is_killed_under_flag_only_sigterm_handler(self):
        """A driver's flag-only SIGTERM handler must not reach the pool
        workers it forks: a hung worker has to die on terminate()."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            t0 = time.monotonic()
            res = list(
                parallel.run_tasks(
                    _square, [(i,) for i in range(4)], jobs=2, chaos="hang=60@1",
                    timeout=0.5, retries=2, backoff=0, batch=1,
                )
            )
            elapsed = time.monotonic() - t0
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert sorted(res) == [0, 1, 4, 9]
        assert multiprocessing.active_children() == []
        assert elapsed < 5.0  # the teardown join never timed out


class TestEnvKnobs:
    """Timeout and retry budgets are ``run_tasks`` arguments.  Its module
    defaults are the only other source (tests of whole drivers patch
    them); the environment reaches neither."""

    def test_task_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")  # a deleted knob: inert
        assert parallel._budget(None, None)[0] is None
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 2.5)
        assert parallel._budget(None, None)[0] == 2.5
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 0)
        assert parallel._budget(None, None)[0] is None

    def test_task_timeout_explicit_wins(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 2.5)
        assert parallel._budget(7, None)[0] == 7.0
        assert parallel._budget(0, None)[0] is None  # explicit 0 disables

    @pytest.mark.parametrize("bad", ["soon", "-1"])
    def test_task_timeout_invalid(self, bad):
        with pytest.raises(ValueError):
            list(parallel.run_tasks(_square, [(1,)], jobs=1, timeout=bad))

    def test_task_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")  # a deleted knob: inert
        assert parallel._budget(None, None)[1] == parallel.DEFAULT_TASK_RETRIES == 2
        assert parallel._budget(None, 5)[1] == 5
        monkeypatch.setattr(parallel, "DEFAULT_TASK_RETRIES", 0)
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_boom, [(1,)], jobs=1, backoff=0))
        assert ei.value.failures[0].attempts == 1

    @pytest.mark.parametrize("bad", ["-1", "lots"])
    def test_task_retries_invalid(self, bad):
        with pytest.raises(ValueError):
            list(parallel.run_tasks(_square, [(1,)], jobs=1, retries=bad))

    def test_shared_parser_reaches_jobs_and_trials(self, monkeypatch):
        """REPRO_JOBS and REPRO_MC_TRIALS route through the same helper."""
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert parallel.default_jobs() == 6
        assert envcfg.jobs(1) == 6
        monkeypatch.setenv("REPRO_MC_TRIALS", "123")
        assert envcfg.mc_trials(None, 20000) == 123


class TestCancellation:
    """The pre-existing cancellation path (satellite: previously untested)."""

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
