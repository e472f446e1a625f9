"""Host/I-O chaos plane and the cachefile hardening it exercises.

Covers the I/O chaos spec grammar, the per-site occurrence counters,
each fault mode's mechanics at :func:`repro.util.chaos.io_fire`, and the
cache-layer recovery contract: an injected ENOSPC/EIO/torn write at
``cache.write``/``cache.rename`` must leave the previous cache intact and
no temp litter behind; stale temps from dead writers are swept; caches
with missing/alien schema stamps or corrupt bytes quarantine instead of
half-merging; and a matrix sweep whose checkpoint write fails resumes
with only the missing cells recomputed.
"""

import errno
import json
import os

import pytest

from repro import obs
from repro.experiments import evaluation, parallel
from repro.util import cachefile, chaos

TINY = evaluation.Fidelity("tiny", scale=64, access_target=4000)


def _sweep(**kw):
    """Three quad matrix cells at tiny fidelity."""
    return evaluation.evaluation_matrix(
        "quad",
        fidelity=TINY,
        workloads=["streamcluster"],
        config_keys=["chipkill18", "lot_ecc5_ep", "chipkill36"],
        jobs=1,
        **kw,
    )


@pytest.fixture(autouse=True)
def _disarmed():
    chaos.arm_io(None)
    yield
    chaos.arm_io(None)


class TestIoSpecParsing:
    def test_defaults(self):
        (f,) = chaos.parse_io("enospc@cache.write")
        assert f == chaos.IOFault("enospc", "cache.write", 1, 0.0)

    def test_params_occurrences_and_star(self):
        faults = chaos.parse_io(
            "torn=7@cache.write#2, kill@cache.rename#*, eio@cache.rename"
        )
        assert faults == (
            chaos.IOFault("torn", "cache.write", 2, 7.0),
            chaos.IOFault("kill", "cache.rename", None, 0.0),
            chaos.IOFault("eio", "cache.rename", 1, 0.0),
        )

    def test_torn_default_cap(self):
        (f,) = chaos.parse_io("torn@cache.write")
        assert f.param == chaos.DEFAULT_TORN_BYTES

    def test_matches(self):
        every = chaos.IOFault("eio", "cache.write", None, 0.0)
        third = chaos.IOFault("eio", "cache.write", 3, 0.0)
        assert every.matches("cache.write", 1) and every.matches("cache.write", 9)
        assert third.matches("cache.write", 3) and not third.matches("cache.write", 2)
        assert not every.matches("cache.rename", 1)

    @pytest.mark.parametrize(
        "bad",
        [
            "enospc",  # no @op
            "explode@cache.write",  # unknown mode
            "enospc=3@cache.write",  # parameter on a parameterless mode
            "eio@",  # empty op
            "eio@cache..write",  # empty dotted component
            "eio@cache.write#0",  # occurrence below 1
            "eio@cache.write#x",  # non-integer occurrence
            "torn=-1@cache.write",  # negative byte cap
            "rss=2e9@cache.write",  # removed mode
            "eio@cache.wirte",  # misspelt site: would arm and never fire
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            chaos.parse_io(bad)

    def test_empty_entries_skipped(self):
        assert chaos.parse_io(" , eio@cache.rename ,, ") == (
            chaos.IOFault("eio", "cache.rename", 1, 0.0),
        )

    def test_arm_io_validates(self):
        with pytest.raises(ValueError):
            chaos.arm_io("explode@cache.write")
        assert chaos.io_fire("cache.write") is None  # nothing was armed


class TestIoFire:
    def test_disarmed_is_silent_and_uncounted(self):
        assert chaos.io_fire("cache.write", size=100) is None
        assert chaos.io_counts() == {}

    def test_occurrence_counting_and_reset(self):
        chaos.arm_io("eio@cache.write#3")
        assert chaos.io_fire("cache.write") is None
        assert chaos.io_fire("cache.write") is None
        with pytest.raises(OSError) as exc:
            chaos.io_fire("cache.write")
        assert exc.value.errno == errno.EIO
        assert chaos.io_counts() == {"cache.write": 3}
        chaos.arm_io("eio@cache.write#3")  # re-arming resets counters
        assert chaos.io_counts() == {}
        assert chaos.io_fire("cache.write") is None

    def test_enospc_raises(self):
        chaos.arm_io("enospc@cache.rename")
        with pytest.raises(OSError) as exc:
            chaos.io_fire("cache.rename")
        assert exc.value.errno == errno.ENOSPC

    def test_star_fires_every_time(self):
        chaos.arm_io("eio@cache.write#*")
        for _ in range(3):
            with pytest.raises(OSError):
                chaos.io_fire("cache.write")

    def test_torn_returns_byte_cap(self):
        chaos.arm_io("torn=10@cache.write")
        assert chaos.io_fire("cache.write", size=100) == 10
        chaos.arm_io("torn=10@cache.write")
        assert chaos.io_fire("cache.write", size=4) == 4  # capped at payload

    def test_other_sites_untouched(self):
        chaos.arm_io("eio@cache.write")
        assert chaos.io_fire("cache.rename") is None


class TestCacheFaultRecovery:
    """Injected write faults leave the previous cache intact and no litter."""

    def _write(self, path, payload):
        cachefile.write_json_cache_atomic(path, payload)

    @pytest.mark.parametrize(
        "spec", ["enospc@cache.write", "eio@cache.write", "torn=8@cache.write", "eio@cache.rename"]
    )
    def test_fault_preserves_previous_cache(self, tmp_path, spec):
        path = tmp_path / "cache.json"
        self._write(path, {"a": 1})
        chaos.arm_io(spec)
        with pytest.raises(OSError):
            self._write(path, {"b": 2})
        chaos.arm_io(None)
        assert cachefile.load_json_cache(path) == {"a": 1}
        assert os.listdir(tmp_path) == ["cache.json"]  # no tmp litter

    def test_recovery_after_fault(self, tmp_path):
        path = tmp_path / "cache.json"
        chaos.arm_io("enospc@cache.write")
        with pytest.raises(OSError):
            self._write(path, {"a": 1})
        chaos.arm_io(None)
        self._write(path, {"a": 1})
        self._write(path, {"b": 2})
        assert cachefile.load_json_cache(path) == {"a": 1, "b": 2}


class TestDriverResumeAfterFault:
    """A sweep whose second checkpoint append hits ENOSPC resumes cleanly.

    The error surfaces, the cache keeps exactly the first finished cell,
    and the rerun computes only the missing cells and matches an uncached
    sweep.
    """

    def test_sweep_resumes_after_failed_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
        name = evaluation._cache_path("quad", TINY, 0).name
        # With telemetry armed the engine's first run writes the run
        # manifest through the same cache path; write it up front so the
        # armed occurrence counts checkpoints only.
        obs.ensure_manifest()
        chaos.arm_io("enospc@cache.write#2")
        with pytest.raises(OSError) as info:
            _sweep()
        assert info.value.errno == errno.ENOSPC
        chaos.arm_io(None)
        partial = cachefile.load_json_cache(tmp_path / name)
        assert len(partial) == 1
        assert os.listdir(tmp_path) == [name]  # no tmp litter

        ran = []
        original = parallel.run_tasks

        def counting(fn, payloads, **k):
            ran.extend(payloads)
            return original(fn, payloads, **k)

        monkeypatch.setattr(parallel, "run_tasks", counting)
        resumed = _sweep()
        assert len(ran) == 2
        final = cachefile.load_json_cache(tmp_path / name)
        assert len(final) == 3
        assert list(final.items())[0] == next(iter(partial.items()))  # first cell kept as is
        assert resumed == _sweep(use_cache=False)


class TestStaleTmpSweep:
    def test_dead_writer_tmp_removed(self, tmp_path):
        dead = tmp_path / "cache.json.tmp999999999"  # pid far beyond pid_max
        dead.write_text("{")
        removed = cachefile.sweep_stale_tmps(tmp_path)
        assert removed == [dead]
        assert not dead.exists()

    def test_own_and_live_tmps_kept(self, tmp_path):
        mine = tmp_path / f"cache.json.tmp{os.getpid()}"
        mine.write_text("{")
        live = tmp_path / "cache.json.tmp1"  # pid 1 is always alive
        live.write_text("{")
        plain = tmp_path / "cache.json"
        plain.write_text("{}")
        assert cachefile.sweep_stale_tmps(tmp_path) == []
        assert mine.exists() and live.exists() and plain.exists()

    def test_write_path_sweeps_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cachefile, "_swept_dirs", set())
        dead = tmp_path / "old.json.tmp999999999"
        dead.write_text("{")
        cachefile.write_json_cache_atomic(tmp_path / "cache.json", {"a": 1})
        assert not dead.exists()
        # Memoized: a stale tmp appearing later is not re-swept on this path.
        dead.write_text("{")
        cachefile.write_json_cache_atomic(tmp_path / "cache.json", {"b": 2})
        assert dead.exists()


class TestSchemaQuarantine:
    def _quarantined(self, tmp_path, name="cache.json"):
        qdir = tmp_path / f"{name}.quarantine"
        return sorted(qdir.iterdir()) if qdir.is_dir() else []

    def test_round_trip_stamps_and_strips(self, tmp_path):
        path = tmp_path / "cache.json"
        cachefile.write_json_cache_atomic(path, {"a": 1})
        raw = json.loads(path.read_text())
        assert raw[cachefile.META_KEY] == {"schema": cachefile.SCHEMA_VERSION}
        assert cachefile.load_json_cache(path) == {"a": 1}

    def test_old_format_unstamped_quarantines(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"a": 1}))  # pre-stamp format
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cachefile.load_json_cache(path) == {}
        assert not path.exists()
        (moved,) = self._quarantined(tmp_path)
        assert json.loads(moved.read_text()) == {"a": 1}  # bytes survive

    def test_alien_schema_version_quarantines(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"a": 1, cachefile.META_KEY: {"schema": 999}}))
        with pytest.warns(RuntimeWarning, match="schema"):
            assert cachefile.load_json_cache(path) == {}
        assert len(self._quarantined(tmp_path)) == 1

    def test_truncated_file_quarantines(self, tmp_path):
        path = tmp_path / "cache.json"
        cachefile.write_json_cache_atomic(path, {"a": 1})
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # torn install
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cachefile.load_json_cache(path) == {}
        assert len(self._quarantined(tmp_path)) == 1

    def test_non_object_quarantines(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="not a JSON object"):
            assert cachefile.load_json_cache(path) == {}

    def test_opt_outs_for_readers(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"a": 1}))  # unstamped
        assert cachefile.load_json_cache(path, schema=False, quarantine=False) == {"a": 1}
        assert path.exists()  # reader mode never moves foreign files
        assert cachefile.load_json_cache(path, schema=True, quarantine=False) == {}
        assert path.exists()

    def test_merge_quarantines_then_recovers(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{corrupt")
        with pytest.warns(RuntimeWarning):
            cachefile.write_json_cache_atomic(path, {"b": 2})
        assert cachefile.load_json_cache(path) == {"b": 2}
        assert len(self._quarantined(tmp_path)) == 1
