"""Telemetry plane: event bus, metrics, manifests, and the summarizer.

The acceptance bar for the observability layer (mirroring the chaos
suite's bit-identity bar): a chaos-storm campaign must be fully
reconstructible from its run directory's JSONL alone — every task's
outcome, every injected fault, and the recovery that followed it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cpu.ecc_traffic import EccTrafficModel
from repro.cpu.llc import LLC
from repro.cpu.system import SimSystem
from repro.dram.system import MemorySystem, MemorySystemConfig
from repro.ecc import Chipkill18
from repro.experiments import parallel
from repro.faults.fit_rates import MemoryOrg
from repro.faults.montecarlo import EolCapacitySim, _eol_cell
from repro.obs import history, metrics
from repro.obs.manifest import load_manifest, manifest_dict, write_manifest
from repro.obs.progress import Follower
from repro.obs.summarize import read_events, render, summarize
from repro.util import envcfg

PAYLOADS = [(2, 400, s, 61320.0, 1 << 14) for s in range(6)]


def _subprocess_env():
    """Env for -m invocations: the package's parent dir on PYTHONPATH."""
    src = str(Path(obs.__file__).resolve().parents[2])
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))


@pytest.fixture
def run_dir(tmp_path):
    """Arm the bus against a temp run dir; disarm and reset afterwards."""
    run = tmp_path / "obs-run"
    obs.configure(run)
    yield run
    obs.disarm()
    obs.REGISTRY.reset()


class TestObsFlag:
    @pytest.mark.parametrize(
        "raw", ["1", "true", "on", "yes", "all", "ALL", pytest.param(" On ", id="padded")]
    )
    def test_on_tokens(self, raw, monkeypatch):
        monkeypatch.setenv(obs.ENV_FLAG, raw)
        assert envcfg.flag(obs.ENV_FLAG)

    @pytest.mark.parametrize(
        "raw",
        [pytest.param("", id="empty"), pytest.param("  ", id="blank"), "0", "false", "off", "no", "NO"],
    )
    def test_off_tokens(self, raw, monkeypatch):
        monkeypatch.setenv(obs.ENV_FLAG, raw)
        assert not envcfg.flag(obs.ENV_FLAG)

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_FLAG, raising=False)
        assert not envcfg.flag(obs.ENV_FLAG)

    @pytest.mark.parametrize("raw", ["engine", "engine,mc", "telepathy", "all,engine"])
    def test_rejected(self, raw, monkeypatch):
        obs.disarm()
        monkeypatch.setenv(obs.ENV_FLAG, raw)
        with pytest.raises(ValueError):
            envcfg.flag(obs.ENV_FLAG)
        with pytest.raises(ValueError):
            obs.init_from_env()
        assert not obs.enabled()


class TestEventBus:
    def test_disarmed_emit_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.ENV_DIR, str(tmp_path))
        obs.disarm()
        obs.emit("test.noop", x=1)
        assert not (tmp_path / obs.EVENTS_FILE).exists()
        assert not obs.enabled()

    def test_emit_stamps_reserved_fields(self, run_dir):
        obs.emit("test.ev", x=1, ts="caller-junk", pid="caller-junk")
        (rec,) = read_events(run_dir)
        assert rec["kind"] == "test.ev" and rec["x"] == 1
        assert isinstance(rec["ts"], float)
        assert isinstance(rec["pid"], int)

    def test_non_json_values_rendered_with_repr(self, run_dir):
        obs.emit("test.obj", obj=Path("/x"))
        (rec,) = read_events(run_dir)
        assert "x" in rec["obj"]

    def test_init_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.ENV_FLAG, "1")
        monkeypatch.setenv(obs.ENV_DIR, str(tmp_path / "envrun"))
        try:
            assert obs.init_from_env() == tmp_path / "envrun"
            assert obs.enabled()
        finally:
            monkeypatch.delenv(obs.ENV_FLAG)
            obs.init_from_env()
        assert not obs.enabled()

    def test_worker_config_round_trip(self, run_dir):
        cfg = obs.worker_config()
        obs.disarm()
        obs.ensure_worker(cfg)
        try:
            assert obs.run_dir() == run_dir
            assert obs.enabled()
        finally:
            obs.disarm()
        assert obs.worker_config() is None
        obs.ensure_worker(None)  # no-op
        assert not obs.enabled()


class TestMetrics:
    def test_counter_gauge_timer(self):
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        reg.timer("t").observe(0.5)
        reg.timer("t").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        t = snap["timers"]["t"]
        assert t["count"] == 2 and t["total_s"] == 2.0
        assert t["min_s"] == 0.5 and t["max_s"] == 1.5 and t["mean_s"] == 1.0

    def test_timer_context_manager(self):
        reg = metrics.MetricsRegistry()
        with reg.timer("t").time():
            pass
        assert reg.timer("t").count == 1

    def test_reset(self):
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestManifest:
    def test_manifest_dict_contents(self):
        man = manifest_dict(extra_fact=7)
        assert man["package"]["name"] == "repro"
        assert man["extra_fact"] == 7
        assert set(man["knobs"]) == set(envcfg.KNOBS)
        for knob in man["knobs"].values():
            assert knob["source"] in ("env", "default")

    def test_write_load_merge(self, tmp_path):
        write_manifest(tmp_path, campaign="a")
        write_manifest(tmp_path, other="b")
        man = load_manifest(tmp_path)
        assert man["campaign"] == "a" and man["other"] == "b"

    def test_ensure_manifest(self, run_dir):
        assert obs.ensure_manifest() == run_dir / obs.MANIFEST_FILE
        first = load_manifest(run_dir)["captured_at"]
        obs.ensure_manifest()  # existing manifest, no extras: untouched
        assert load_manifest(run_dir)["captured_at"] == first
        obs.ensure_manifest(seeds=[1, 2])
        assert load_manifest(run_dir)["seeds"] == [1, 2]

    def test_ensure_manifest_disarmed_noop(self, tmp_path):
        obs.disarm()
        assert obs.ensure_manifest() is None


class TestEnvcfgIntrospection:
    def test_describe_covers_every_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        rows = {r["name"]: r for r in envcfg.describe()}
        assert set(rows) == set(envcfg.KNOBS)
        assert rows["REPRO_JOBS"]["current"] == "3"
        assert rows["REPRO_JOBS"]["source"] == "env"
        assert rows["REPRO_TASK_RETRIES"]["source"] == "default"

    def test_invalid_env_renders_not_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        rows = {r["name"]: r for r in envcfg.describe()}
        assert rows["REPRO_JOBS"]["current"].startswith("INVALID")

    def test_render_plain_and_markdown(self):
        plain = envcfg.render_knobs()
        md = envcfg.render_knobs(markdown=True)
        for name in envcfg.KNOBS:
            assert name in plain and f"`{name}`" in md
        assert md.splitlines()[1].startswith("|---")

    def test_cli(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.util.envcfg"],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        assert "REPRO_OBS" in out.stdout and "REPRO_JOBS" in out.stdout


class TestMcEvents:
    def test_chunk_events_and_bit_identity(self, run_dir):
        org = MemoryOrg(channels=2)
        armed = EolCapacitySim(org, seed=5).run(trials=600, chunk_size=256)
        obs.disarm()
        quiet = EolCapacitySim(MemoryOrg(channels=2), seed=5).run(trials=600, chunk_size=256)
        assert (armed.fractions == quiet.fractions).all()
        chunks = [e for e in read_events(run_dir) if e["kind"] == "mc.chunk"]
        assert [c["n"] for c in chunks] == [256, 256, 88]
        assert chunks[-1]["done"] == 600
        assert chunks[-1]["running_mean"] == pytest.approx(armed.fractions.mean())


class TestSimEvents:
    def _run_sim(self):
        scheme = Chipkill18()
        mem = MemorySystem(
            MemorySystemConfig(
                channels=2,
                ranks_per_channel=1,
                chip_widths=scheme.chip_widths(),
                line_size=scheme.line_size,
            )
        )
        sys_ = SimSystem(
            mem,
            [iter([(10, a, False) for a in range(40)])],
            EccTrafficModel.for_scheme(scheme),
            llc=LLC(size_bytes=64 * 1024, line_size=scheme.line_size),
        )
        return sys_.run(0, 10_000)

    def test_sim_run_event(self, run_dir):
        self._run_sim()
        (ev,) = [e for e in read_events(run_dir) if e["kind"] == "sim.run"]
        assert ev["events_scheduled"] > 0
        assert ev["llc_misses"] > 0
        assert ev["issued_requests"] >= ev["fast_picks"] > 0
        assert 0 < ev["fast_pick_rate"] <= 1
        snap = obs.REGISTRY.snapshot()
        assert snap["counters"]["sim.runs"] == 1
        assert snap["counters"]["sim.events"] == ev["events_scheduled"]


class TestSummarizeChaosStorm:
    """Acceptance: reconstruct a chaos-storm campaign from JSONL alone."""

    @pytest.fixture(scope="class")
    def storm_summary(self, tmp_path_factory):
        run = tmp_path_factory.mktemp("storm") / "run"
        obs.configure(run)
        try:
            out = list(
                parallel.run_tasks(
                    _eol_cell,
                    PAYLOADS,
                    jobs=3,
                    # The hang fires on *every* attempt (#*) so at least
                    # one of them is guaranteed to trip the deadline in a
                    # pool — a single-attempt hang could be requeued by
                    # the crash's pool break before its timeout expires.
                    # Recovery then comes from the degraded serial path,
                    # which injects no chaos.
                    chaos="crash@1,corrupt@4,hang=30@5#*",
                    timeout=2.0,
                    retries=2,
                    backoff=0,
                )
            )
        finally:
            obs.disarm()
            obs.REGISTRY.reset()
        assert len(out) == len(PAYLOADS)
        return summarize(run)

    def test_every_task_outcome_reconstructed(self, storm_summary):
        eng = storm_summary["engine"]
        assert set(eng["tasks"]) == set(range(len(PAYLOADS)))
        assert all(t["status"] == "ok" for t in eng["tasks"].values())
        assert eng["totals"]["ok"] == len(PAYLOADS)
        assert eng["totals"]["failed"] == 0

    def test_every_fault_and_recovery_reconstructed(self, storm_summary):
        fired = {(c["mode"], c["index"]) for c in storm_summary["chaos"]}
        assert fired == {("crash", 1), ("corrupt", 4), ("hang", 5)}
        assert all(c["recovered"] for c in storm_summary["chaos"])
        for c in storm_summary["chaos"]:
            assert c["recovery"]["attempt"] >= 2

    def test_recovery_mechanics_in_stream(self, storm_summary):
        kinds = storm_summary["kinds"]
        assert kinds.get("engine.rebuild", 0) >= 1  # crash and/or hang
        assert kinds.get("engine.timeout", 0) >= 1  # hang tripped the deadline
        assert kinds.get("engine.retry", 0) >= 1  # corrupt consumed a retry
        assert storm_summary["engine"]["start"]["tasks"] == len(PAYLOADS)
        assert storm_summary["engine"]["done"]["ok"] == len(PAYLOADS)

    def test_manifest_captured(self, storm_summary):
        man = storm_summary["manifest"]
        assert man["package"]["name"] == "repro"
        assert set(man["knobs"]) == set(envcfg.KNOBS)

    def test_render_and_cli(self, storm_summary):
        text = render(storm_summary)
        assert "recovered on attempt" in text
        assert "NOT RECOVERED" not in text
        out = subprocess.run(
            [sys.executable, "-m", "repro.obs.summarize", storm_summary["run_dir"], "--json"],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        parsed = json.loads(out.stdout)
        assert parsed["engine"]["totals"]["ok"] == len(PAYLOADS)


class TestTornLines:
    """read_events skips torn lines anywhere, loudly, and follows rotation."""

    def _events_file(self, tmp_path, text):
        (tmp_path / "events.jsonl").write_text(text)
        return tmp_path

    #: A torn line that is not even UTF-8, between two intact records.
    NON_UTF8 = b'{"a":1}\n\xff\xfe{"b"\n{"c":3}\n'

    @pytest.mark.parametrize("reader", ["read_events", "history.load", "Follower"])
    def test_non_utf8_line_skipped_by_every_reader(self, tmp_path, capsys, reader):
        path = tmp_path / "events.jsonl"
        path.write_bytes(self.NON_UTF8)
        if reader == "read_events":
            got = read_events(tmp_path)
        elif reader == "history.load":
            got = history.load(path)
        else:
            follower = Follower(tmp_path)
            got = follower.poll()
            follower.close()
        assert got == [{"a": 1}, {"c": 3}]
        assert f"{path}:2: skipping torn" in capsys.readouterr().err

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path, capsys):
        run = self._events_file(
            tmp_path,
            '{"kind":"a","ts":1}\n{"kind":"b","ts":2}\n{"kind":"c","ts":',
        )
        events = read_events(run)
        assert [e["kind"] for e in events] == ["a", "b"]
        err = capsys.readouterr().err
        assert "skipping torn JSONL record" in err
        assert ":3:" in err  # names the torn line

    def test_midfile_corruption_skipped_with_warning(self, tmp_path, capsys):
        run = self._events_file(
            tmp_path, '{"kind":"a","ts":1}\nnot json\n{"kind":"b","ts":2}\n'
        )
        events = read_events(run)
        assert [e["kind"] for e in events] == ["a", "b"]
        err = capsys.readouterr().err
        assert "skipping torn JSONL record" in err
        assert ":2:" in err  # names the corrupt interior line

    def test_clean_file_is_quiet(self, tmp_path, capsys):
        run = self._events_file(tmp_path, '{"kind":"a","ts":1}\n')
        assert len(read_events(run)) == 1
        assert capsys.readouterr().err == ""

    def test_torn_only_line_yields_empty(self, tmp_path, capsys):
        run = self._events_file(tmp_path, '{"kind":"a"')
        assert read_events(run) == []
        assert "torn JSONL record" in capsys.readouterr().err

    def test_rotated_generation_read_first(self, tmp_path):
        (tmp_path / "events.jsonl.1").write_text('{"kind":"old","ts":1}\n')
        run = self._events_file(tmp_path, '{"kind":"new","ts":2}\n')
        assert [e["kind"] for e in read_events(run)] == ["old", "new"]

    def test_cli_tolerates_torn_tail(self, tmp_path):
        self._events_file(
            tmp_path, '{"kind":"engine.start","ts":1,"tasks":1}\n{"kind":"en'
        )
        out = subprocess.run(
            [sys.executable, "-m", "repro.obs.summarize", str(tmp_path)],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        assert "torn JSONL record" in out.stderr
        assert "events: 1" in out.stdout


class TestSupervisorSummary:
    """supervisor.* events reconstruct the durability accounting."""

    @pytest.fixture
    def paused_run(self, tmp_path):
        from repro.experiments import supervisor
        from repro.util import chaos
        from tests._supervisor_worker import square

        run = tmp_path / "run"
        state = tmp_path / "state"
        obs.configure(run)
        try:
            chaos.arm_io("enospc@journal.append#4")
            with pytest.raises(supervisor.CampaignPaused):
                supervisor.run_campaign(
                    square, [(i,) for i in range(4)], name="obs",
                    directory=state, jobs=1, watchdog=False,
                )
            chaos.arm_io(None)
            supervisor.run_campaign(
                square, [(i,) for i in range(4)], name="obs",
                directory=state, jobs=1, watchdog=False,
            )
        finally:
            chaos.arm_io(None)
            obs.disarm()
            obs.REGISTRY.reset()
        return run

    def test_pause_resume_reconstructed(self, paused_run):
        summary = summarize(paused_run)
        sup = summary["supervisor"]
        assert sup["campaigns"] == 2
        assert sup["pauses"] == 1
        assert sup["replayed"] == 1  # one settle survived the first run
        assert sup["settled"] == 4  # live settles across both runs
        assert sup["done"]["settled"] == 4
        assert sup["done"]["computed"] == 3
        assert sup["last_begin"]["resumed"] == 1

    def test_render_has_supervisor_section(self, paused_run):
        text = render(summarize(paused_run))
        assert "supervisor: 2 campaign(s)" in text
        assert "1 replayed from journal" in text
        assert "finished: 4 settled / 4 total (recomputed 3)" in text
        assert "1 pause(s)" in text
