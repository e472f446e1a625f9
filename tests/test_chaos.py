"""Chaos harness: spec parsing, injection mechanics, and engine recovery.

The acceptance bar for the resilience layer: under injected crashes,
hangs, and corrupted payloads, every campaign driver completes and its
merged results are *bit-identical* to a fault-free serial run at the same
seed.  Serial (``jobs=1``) runs ignore chaos entirely, so they serve as
the reference even while the chaos env vars are armed.
"""

import json
import time

import pytest

import repro.experiments.evaluation as ev
from repro import obs
from repro.ecc.chipkill import Chipkill36
from repro.ecc.lot_ecc import LotEcc5
from repro.experiments import parallel
from repro.experiments.collision import two_fault_collision_mc
from repro.experiments.coverage import coverage_study
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.faults.montecarlo import _eol_cell, eol_fraction_by_channels
from repro.util import chaos

PAYLOADS = [(2, 400, s, 61320.0, 1 << 16) for s in range(6)]


class TestSpecParsing:
    def test_defaults(self):
        (f,) = chaos.parse("crash@3")
        assert f == chaos.ChaosFault("crash", 3, 1, float(chaos.DEFAULT_EXIT_CODE))

    def test_params_and_attempts(self):
        faults = chaos.parse("hang=2.5@0#2, corrupt@1#*, crash=3@4")
        assert faults == (
            chaos.ChaosFault("hang", 0, 2, 2.5),
            chaos.ChaosFault("corrupt", 1, None, 0.0),
            chaos.ChaosFault("crash", 4, 1, 3.0),
        )

    def test_hang_default_param(self):
        (f,) = chaos.parse("hang@2")
        assert f.param == chaos.DEFAULT_HANG_S

    def test_matches(self):
        every = chaos.ChaosFault("corrupt", 1, None, 0.0)
        first = chaos.ChaosFault("crash", 1, 1, 76.0)
        assert every.matches(1, 1) and every.matches(1, 7)
        assert first.matches(1, 1) and not first.matches(1, 2)
        assert not every.matches(2, 1)

    def test_empty_entries_skipped(self):
        assert chaos.parse(" crash@0 , , ") == (chaos.ChaosFault("crash", 0, 1, 76.0),)

    @pytest.mark.parametrize(
        "bad",
        ["crash", "explode@1", "crash@x", "crash@-1", "corrupt=9@1", "hang@1#y", "hang=soon@1"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            chaos.parse(bad)

    def test_arm_validates(self):
        try:
            chaos.arm("crash@2")
            assert chaos.armed() == "crash@2"
            with pytest.raises(ValueError):
                chaos.arm("explode@2")
            assert chaos.armed() == "crash@2"  # a rejected spec changes nothing
        finally:
            chaos.arm(None)
        assert chaos.armed() is None


def _double(x):
    return 2 * x


def _nap_then(seconds, value):
    time.sleep(seconds)
    return value


class TestChaosCall:
    def test_no_match_is_transparent(self):
        assert chaos.chaos_call("crash@5", _double, 0, 1, (21,)) == 42

    def test_attempt_filter(self):
        out = chaos.chaos_call("corrupt@0#1", _double, 0, 2, (21,))
        assert out == 42  # fault armed for attempt 1 only

    def test_corrupt_wraps_real_result(self):
        out = chaos.chaos_call("corrupt@0", _double, 0, 1, (21,))
        assert isinstance(out, chaos.Corrupted)
        assert out.original == 42


class TestEngineRecovery:
    """Each injected fault class recovers to the fault-free serial result."""

    @pytest.fixture(scope="class")
    def reference(self):
        return list(parallel.run_tasks(_eol_cell, PAYLOADS, jobs=1))

    def _chaotic(self, spec, **kw):
        kw.setdefault("retries", 2)
        kw.setdefault("backoff", 0)
        return list(parallel.run_tasks(_eol_cell, PAYLOADS, jobs=3, chaos=spec, **kw))

    def test_crash_recovered(self, reference):
        assert sorted(self._chaotic("crash@2")) == sorted(reference)

    def test_hang_recovered(self, reference):
        out = self._chaotic("hang=30@1", timeout=0.75)
        assert sorted(out) == sorted(reference)

    def test_corrupt_recovered(self, reference):
        assert sorted(self._chaotic("corrupt@0")) == sorted(reference)

    def test_multi_fault_storm(self, reference):
        out = self._chaotic("crash@1,corrupt@4,corrupt@0#1", timeout=5)
        assert sorted(out) == sorted(reference)

    def test_persistent_crasher_degrades_to_serial(self, reference):
        # crash on *every* attempt: the pool can never finish task 3, so the
        # engine must stop rebuilding and complete the campaign in-process
        # (the degraded path injects no chaos).
        out = self._chaotic("crash@3#*")
        assert sorted(out) == sorted(reference)

    def test_persistent_corrupt_exhausts_budget(self, reference):
        with pytest.raises(parallel.CampaignError) as ei:
            self._chaotic("corrupt@2#*", retries=1)
        (f,) = ei.value.failures
        assert f.index == 2 and f.kind == "corrupt" and f.attempts == 2


TINY = Fidelity("tiny", scale=64, access_target=4000)


class TestDriverChaos:
    """End-to-end: every campaign driver survives armed chaos.

    The drivers do not thread ``chaos``/``timeout``/``retries`` through,
    so the storm arms :func:`chaos.arm` and patches the engine defaults.
    """

    @pytest.fixture
    def storm(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 2.0)
        monkeypatch.setattr(parallel, "DEFAULT_TASK_RETRIES", 2)
        chaos.arm("crash@1,hang=30@0")
        yield
        chaos.arm(None)

    def test_fig8_driver(self, storm):
        par = eol_fraction_by_channels([2, 4, 8], trials=800, seed=0, jobs=3)
        serial = eol_fraction_by_channels([2, 4, 8], trials=800, seed=0, jobs=1)
        for n in serial:
            assert serial[n].mean == par[n].mean
            assert serial[n].percentile(99.9) == par[n].percentile(99.9)

    def test_coverage_driver(self, storm):
        schemes = [Chipkill36(), LotEcc5()]
        par = coverage_study(schemes, trials=40, seed=2, jobs=3)
        serial = coverage_study(schemes, trials=40, seed=2, jobs=1)
        key = lambda r: (r.scheme, r.pattern, r.corrected, r.detected_uncorrectable, r.silent_or_wrong)
        assert [key(r) for r in par] == [key(r) for r in serial]

    def test_collision_driver(self, storm):
        par = two_fault_collision_mc(trials=48, seed=0, jobs=4)
        serial = two_fault_collision_mc(trials=48, seed=0, jobs=1)
        assert par.collisions == serial.collisions
        assert par.trials == serial.trials == 48

    def test_evaluation_matrix_driver(self, tmp_path, monkeypatch):
        # crash + corrupt only: evaluation cells are the slowest (~0.1s), so
        # no hang/timeout here to keep the test immune to CI load spikes.
        monkeypatch.setattr(parallel, "DEFAULT_TASK_RETRIES", 2)
        monkeypatch.setenv("REPRO_JOBS", "4")
        cells = dict(
            workloads=["streamcluster", "sjeng"],
            config_keys=["chipkill18", "lot_ecc5_ep"],
        )
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "par")
        chaos.arm("crash@1,corrupt@2")
        try:
            par = evaluation_matrix("quad", fidelity=TINY, **cells)
        finally:
            chaos.arm(None)
        par_cache = json.loads(next((tmp_path / "par").glob("*.json")).read_text())

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **cells)
        serial_cache = json.loads(next((tmp_path / "serial").glob("*.json")).read_text())

        assert par == serial
        assert json.dumps(par_cache, sort_keys=True) == json.dumps(
            serial_cache, sort_keys=True
        )

    def test_serial_path_ignores_chaos(self, storm):
        # jobs=1 is the reference path: armed chaos must not touch it.
        t0 = time.monotonic()
        out = list(parallel.run_tasks(_eol_cell, PAYLOADS[:3], jobs=1))
        assert len(out) == 3
        assert time.monotonic() - t0 < 5.0  # hang=30@0 did not fire


class TestChaosEventStream:
    """Recovery paths asserted from the telemetry stream, not just results.

    Every firing is emitted worker-side *before* the fault applies (so
    even a crash reaches the JSONL), and each one must be followed by an
    ``engine.ok`` for the same task on a later attempt.
    """

    @pytest.fixture
    def armed(self, tmp_path):
        run = tmp_path / "chaos-obs"
        obs.configure(run)
        yield run
        obs.disarm()

    @staticmethod
    def _assert_recovered(events, fires):
        for fire in fires:
            assert any(
                e["kind"] == "engine.ok"
                and e["index"] == fire["index"]
                and e["ts"] > fire["ts"]
                and e["attempt"] > fire["attempt"]
                for e in events
            ), f"no recovery followed {fire}"

    def test_corrupt_firing_then_retry_then_ok(self, armed):
        from repro.obs.summarize import read_events

        out = list(
            parallel.run_tasks(_eol_cell, PAYLOADS, jobs=3, chaos="corrupt@4", retries=2, backoff=0)
        )
        assert len(out) == len(PAYLOADS)
        events = read_events(armed)
        fires = [e for e in events if e["kind"] == "chaos.fire"]
        assert [(e["mode"], e["index"]) for e in fires] == [("corrupt", 4)]
        self._assert_recovered(events, fires)
        assert any(
            e["kind"] == "engine.retry" and e["index"] == 4 and e["reason"] == "corrupt"
            for e in events
        )

    def test_crash_firing_then_rebuild_then_ok(self, armed):
        from repro.obs.summarize import read_events

        out = list(
            parallel.run_tasks(_eol_cell, PAYLOADS, jobs=3, chaos="crash@2", retries=2, backoff=0)
        )
        assert len(out) == len(PAYLOADS)
        events = read_events(armed)
        fires = [e for e in events if e["kind"] == "chaos.fire"]
        assert [(e["mode"], e["index"]) for e in fires] == [("crash", 2)]
        self._assert_recovered(events, fires)
        assert any(e["kind"] == "engine.rebuild" for e in events)
        assert any(e["kind"] == "engine.requeue" for e in events)

    def test_crash_requeues_in_flight_sibling_at_same_attempt(self, armed):
        """Task 1 kills its worker while task 0 naps on the other one: the
        pool break charges task 1 an attempt and requeues task 0 under
        the attempt number it already had."""
        from repro.obs.summarize import read_events

        out = list(
            parallel.run_tasks(
                _nap_then, [(2.0, 0), (0.0, 1)], jobs=2, batch=1,
                chaos="crash@1", retries=2, backoff=0,
            )
        )
        assert sorted(out) == [0, 1]
        events = read_events(armed)
        fires = [(e["mode"], e["index"]) for e in events if e["kind"] == "chaos.fire"]
        assert fires == [("crash", 1)]
        requeues = {e["index"]: e for e in events if e["kind"] == "engine.requeue"}
        assert requeues[0]["attempt"] == 1 and not requeues[0].get("charged")
        assert requeues[1]["attempt"] == 1 and requeues[1]["charged"]
        submits = [(e["index"], e["attempt"]) for e in events if e["kind"] == "engine.submit"]
        assert [a for i, a in submits if i == 0] == [1, 1]
        assert [a for i, a in submits if i == 1] == [1, 2]
        oks = {e["index"]: e["attempt"] for e in events if e["kind"] == "engine.ok"}
        assert oks == {0: 1, 1: 2}
