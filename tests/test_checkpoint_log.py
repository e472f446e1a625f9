"""The checkpoint log: append per result, replay on resume, compact per sweep.

``cachefile.Checkpoint.save`` appends one CRC-framed record to
``<cache>.log``; a ``with ckpt:`` block compacts the log into the JSON
cache on exit.  The contract under test: a killed sweep resumes from its
log computing only the missing cells, a torn tail reads back as its clean
prefix and never hides a later append, compaction is byte-identical to
the per-result rewrite it replaced, and no log or temp file outlives a
sweep, finished or failed.
"""

import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.evaluation as ev
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.util import chaos
from repro.util.cachefile import Checkpoint, load_json_cache, read_frames, write_json_cache_atomic

SRC = Path(__file__).resolve().parent.parent / "src"
TINY = Fidelity("tiny", scale=64, access_target=4000)
CELLS = dict(workloads=["streamcluster"], config_keys=["chipkill18", "lot_ecc5_ep", "chipkill36"])
SWEEP = f"evaluation_matrix('quad', fidelity=TINY, jobs=1, **{CELLS!r})"


@pytest.fixture(autouse=True)
def _disarm():
    yield
    chaos.arm_io(None)


def _killed(cache_dir: Path, call: str, spec: str) -> None:
    """Run *call* in a fresh interpreter that SIGKILLs itself at *spec*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache_dir))
    code = (
        "from repro.util import chaos\n"
        "from repro.experiments.evaluation import Fidelity, evaluation_matrix\n"
        "TINY = Fidelity('tiny', scale=64, access_target=4000)\n"
        f"chaos.arm_io({spec!r})\n"
        f"{call}\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == -signal.SIGKILL


def _counting(monkeypatch) -> list:
    """Record the payloads every ``parallel.run_tasks`` call is handed."""
    ran = []
    original = parallel.run_tasks

    def counting(fn, payloads, **kwargs):
        ran.extend(payloads)
        return original(fn, payloads, **kwargs)

    monkeypatch.setattr(parallel, "run_tasks", counting)
    return ran


def _records(log: Path) -> list:
    return read_frames(log)[0]


def _sweep(**kw):
    return evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS, **kw)


class TestKillAndResume:
    def test_killed_sweep_resumes_from_its_log(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        _killed(cache, SWEEP, "kill@cache.write#3")
        # Two appends landed, the third killed the sweep before compaction.
        (log,) = cache.iterdir()
        assert log.name.endswith(".json.log")
        assert len(_records(log)) == 2

        monkeypatch.setattr(ev, "CACHE_DIR", cache)
        simulated = []
        real_cell = parallel._run_cell

        def counting(*args):
            simulated.append(f"{args[1]}|{args[2]}")
            return real_cell(*args)

        monkeypatch.setattr(parallel, "_run_cell", counting)
        resumed = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert simulated == ["streamcluster|chipkill36"]  # only the missing cell
        assert [p.name for p in cache.iterdir()] == [log.name[: -len(".log")]]

        monkeypatch.setattr(parallel, "_run_cell", real_cell)
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "cold")
        assert resumed == evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)


class TestTornTail:
    @staticmethod
    def _ckpt(path):
        return Checkpoint(path, lambda v: isinstance(v, int))

    def test_torn_append_reads_back_clean_prefix(self, tmp_path):
        path = tmp_path / "c.json"
        ckpt = self._ckpt(path)
        ckpt.save("a", 1)
        chaos.arm_io("torn=8@cache.write#1")
        with pytest.raises(OSError):
            ckpt.save("b", 2)
        chaos.arm_io(None)
        assert ckpt.values == {"a": 1}  # the failed write recorded nothing
        assert read_frames(ckpt.log)[2]  # the torn bytes are on disk
        assert self._ckpt(path).values == {"a": 1}
        # The next append cuts the torn tail first, so it reads back too.
        ckpt.save("c", 3)
        assert self._ckpt(path).values == {"a": 1, "c": 3}
        assert not path.exists()  # nothing compacted outside a with block

    def test_hand_truncated_log_reads_back_clean_prefix(self, tmp_path):
        path = tmp_path / "c.json"
        ckpt = self._ckpt(path)
        for i, key in enumerate("abc"):
            ckpt.save(key, i)
        os.truncate(ckpt.log, ckpt.log.stat().st_size - 5)  # mid third frame
        resumed = self._ckpt(path)
        assert resumed.values == {"a": 0, "b": 1}
        assert resumed.missing("abc") == ["c"]
        resumed.save("c", 2)
        assert self._ckpt(path).values == {"a": 0, "b": 1, "c": 2}

    def test_torn_driver_append_recomputes_lost_cell(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        name = ev._cache_path("quad", TINY, 0).name
        chaos.arm_io("torn=8@cache.write#2")
        with pytest.raises(OSError) as info:
            _sweep()
        assert info.value.errno == errno.EIO
        chaos.arm_io(None)
        assert len(load_json_cache(tmp_path / name)) == 1
        assert os.listdir(tmp_path) == [name]

        ran = _counting(monkeypatch)
        resumed = _sweep()
        assert len(ran) == 2
        assert resumed == _sweep(use_cache=False)

    #: One record of the earlier log format, which framed a typed-codec
    #: ``(text,)`` tuple around the JSON text ``["a", 9.0]``.
    TYPED_FRAME = bytes.fromhex("c2b35df1140000007401000000730a0000005b2261222c20392e305d")

    def test_log_of_the_typed_format_recomputes(self, tmp_path):
        """A log of the earlier format is no clean prefix: its cells recompute
        and its values are never served."""
        path = tmp_path / "c.json"
        log = tmp_path / "c.json.log"
        log.write_bytes(self.TYPED_FRAME)
        assert read_frames(log) == ([], 0, True)
        ckpt = Checkpoint(path, lambda v: isinstance(v, float))
        assert ckpt.values == {}
        assert ckpt.missing(["a"]) == ["a"]
        ckpt.save("a", 1.5)  # cuts the old record before appending
        assert read_frames(log) == ([["a", 1.5]], log.stat().st_size, False)
        assert Checkpoint(path, lambda v: True).values == {"a": 1.5}

    def test_truncated_driver_log_recomputes_lost_cell(self, tmp_path, monkeypatch):
        name = ev._cache_path("quad", TINY, 0).name
        log = tmp_path / f"{name}.log"
        _killed(tmp_path, SWEEP, "kill@cache.write#3")
        first, _ = _records(log)
        os.truncate(log, log.stat().st_size - 3)  # tear the second record
        # A rerun killed after one append: the record it wrote lands after
        # the clean prefix, not after the torn bytes.
        _killed(tmp_path, SWEEP, "kill@cache.write#2")
        assert _records(log)[0] == first and len(_records(log)) == 2
        assert not read_frames(log)[2]

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        ran = _counting(monkeypatch)
        resumed = _sweep()
        assert len(ran) == 1  # the torn cell was recomputed by the second run
        assert os.listdir(tmp_path) == [name]
        assert resumed == _sweep(use_cache=False)


class TestByteIdentity:
    """Compaction writes what one rewrite per result used to leave."""

    @staticmethod
    def _per_save(path, start, saves):
        # The old Checkpoint.save: record the value, rewrite the file.
        if start is not None:
            write_json_cache_atomic(path, start)
        values = load_json_cache(path)
        for key, value in saves:
            values[key] = value
            write_json_cache_atomic(path, values)
        return path.read_bytes()

    @staticmethod
    def _logged(path, start, saves, kill_after=None):
        if start is not None:
            write_json_cache_atomic(path, start)
        ckpt = Checkpoint(path, lambda v: True)
        if kill_after is not None:  # a killed run leaves its log uncompacted
            for key, value in saves[:kill_after]:
                ckpt.save(key, value)
            ckpt = Checkpoint(path, lambda v: True)
            saves = saves[kill_after:]
        with ckpt:
            for key, value in saves:
                ckpt.save(key, value)
        assert not ckpt.log.exists()
        return path.read_bytes()

    SAVES = [("x", {"epi": 1.5, "v": [1, 2]}), ("bad", 7), ("y", [0.1, None, True]), ("z", "s")]

    @pytest.mark.parametrize("start", [None, {"bad": "stale", "w": 0}], ids=["cold", "warm"])
    @pytest.mark.parametrize("kill_after", [None, 2], ids=["whole", "resumed"])
    def test_compaction_matches_per_save_rewrites(self, tmp_path, start, kill_after):
        old = self._per_save(tmp_path / "old.json", start, self.SAVES)
        new = self._logged(tmp_path / "new.json", start, self.SAVES, kill_after)
        assert new == old

    def test_compaction_ignores_save_order(self, tmp_path):
        # A pooled sweep saves in completion order; compaction writes the
        # task order the driver passed to missing(), as a serial sweep does.
        keys = [k for k, _ in self.SAVES]
        written = []
        for name, saves in (("a.json", self.SAVES), ("b.json", self.SAVES[::-1])):
            with Checkpoint(tmp_path / name, lambda v: True) as ckpt:
                assert ckpt.missing(keys) == keys
                for key, value in saves:
                    ckpt.save(key, value)
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1] == self._per_save(tmp_path / "old.json", None, self.SAVES)

    def test_driver_cache_matches_per_save_rewrites(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "new")
        evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        (new,) = (tmp_path / "new").iterdir()
        saves = list(load_json_cache(new).items())
        assert new.read_bytes() == self._per_save(tmp_path / "old.json", None, saves)


class TestNoLitter:
    def test_finished_sweep_leaves_only_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        _sweep()
        # A warm sweep that adds cells to the same cache compacts too.
        more = dict(workloads=["sjeng"], config_keys=["chipkill18"])
        evaluation_matrix("quad", fidelity=TINY, jobs=1, **more)
        path = ev._cache_path("quad", TINY, 0)
        assert os.listdir(tmp_path) == [path.name]
        assert len(load_json_cache(path)) == 4

    def test_failed_sweep_compacts_what_finished(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        real_run_cells = parallel.run_cells

        def failing(*args, **kwargs):
            inner = real_run_cells(*args, **kwargs)
            yield next(inner)  # one cell finishes, then the sweep dies
            inner.close()
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(parallel, "run_cells", failing)
        with pytest.raises(RuntimeError, match="sweep failed"):
            evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        path = ev._cache_path("quad", TINY, 0)
        assert os.listdir(tmp_path) == [path.name]
        assert list(load_json_cache(path)) == ["streamcluster|chipkill18"]
