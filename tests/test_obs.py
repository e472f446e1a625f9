"""Telemetry plane: event bus, manifests, and the summarizer.

The acceptance bar for the observability layer: a campaign whose pool
worker died must be fully reconstructible from its run directory's JSONL
alone — every task's outcome, and the worker death that ended it.
"""

import json
import operator
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
from repro.faults.montecarlo import EolCapacitySim, _eol_cell, eol_fraction_by_channels
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
    """Arm the bus against a temp run dir; disarm afterwards."""
    run = tmp_path / "obs-run"
    obs.configure(run)
    yield run
    obs.disarm()


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
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        rows = {r["name"]: r for r in envcfg.describe()}
        assert set(rows) == set(envcfg.KNOBS)
        assert rows["REPRO_JOBS"]["current"] == "3"
        assert rows["REPRO_JOBS"]["source"] == "env"
        assert rows["REPRO_SIM_KERNEL"]["source"] == "default"

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

    def test_registry_guards_src(self):
        """Every ``REPRO_*`` name under src/ is a registered knob, and no
        code under src/ writes to ``os.environ``."""
        import re

        write = re.compile(
            r"os\.environ\[[^]]*\]\s*=(?!=)|del os\.environ"
            r"|os\.environ\.(pop|update|setdefault|clear)\(|os\.(putenv|unsetenv)\("
        )
        tokens, writes = set(), []
        for path in Path(obs.__file__).resolve().parents[1].rglob("*.py"):
            text = path.read_text()
            tokens |= set(re.findall(r"\bREPRO_[A-Z_]+", text))
            writes += [f"{path.name}: {m.group()}" for m in write.finditer(text)]
        assert tokens and tokens <= set(envcfg.KNOBS), sorted(tokens - set(envcfg.KNOBS))
        assert writes == []

    def test_readme_table_is_current(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = envcfg.render_knobs(markdown=True, defaults_only=True)
        assert "\n" + table + "\n" in readme, "regenerate: python -m repro.util.envcfg --markdown --defaults"

    def test_blank_cache_dir_means_default(self, tmp_path):
        """A blank ``REPRO_CACHE_DIR=`` / ``REPRO_OBS_DIR=`` is unset, not
        the working directory."""
        script = (
            "from repro import obs\n"
            "from repro.experiments import evaluation\n"
            "from repro.util import envcfg\n"
            "rows = {r['name']: r['current'] for r in envcfg.describe()}\n"
            "print(evaluation.CACHE_DIR, obs.configure(), rows['REPRO_CACHE_DIR'])\n"
        )
        env = dict(_subprocess_env(), REPRO_CACHE_DIR="", REPRO_OBS_DIR="")
        env.pop("REPRO_OBS", None)
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=env, cwd=tmp_path,
        )
        assert out.stdout.split() == [".repro_cache", ".repro_obs", ".repro_cache"]


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

    def test_pooled_totals_match_serial(self, tmp_path):
        """Pool workers' chunks reach the stream: totals do not depend on jobs."""
        totals = {}
        for jobs in (1, 2):
            run = obs.configure(tmp_path / f"jobs{jobs}")
            try:
                eol_fraction_by_channels([2, 4], trials=4000, jobs=jobs)
            finally:
                obs.disarm()
            summary = summarize(run)
            totals[jobs] = (summary["mc"]["trials"], summary["kinds"]["engine.ok"])
        assert totals[1] == totals[2] == (8000, 2)


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
        sys_.run(0, 10_000)
        return sys_

    def test_sim_run_event(self, run_dir):
        sys_ = self._run_sim()
        (ev,) = [e for e in read_events(run_dir) if e["kind"] == "sim.run"]
        assert ev["events_scheduled"] == sys_.events_scheduled > 0
        assert ev["llc_misses"] > 0
        assert ev["issued_requests"] >= ev["fast_picks"] > 0
        assert 0 < ev["fast_pick_rate"] <= 1
        assert summarize(run_dir)["sim"]["runs"] == 1


def _eol_or_exit(die, *payload):
    """``_eol_cell``, except that the worker process dies when *die* is set."""
    if die:
        os._exit(3)
    return _eol_cell(*payload)


class TestSummarizeWorkerDeath:
    """Acceptance: reconstruct a campaign whose worker died from JSONL alone."""

    DIES = 4

    @pytest.fixture(scope="class")
    def death_summary(self, tmp_path_factory):
        run = tmp_path_factory.mktemp("death") / "run"
        obs.configure(run)
        payloads = [(i == self.DIES, *p) for i, p in enumerate(PAYLOADS)]
        got = []
        try:
            with pytest.raises(parallel.CampaignError) as ei:
                for r in parallel.run_tasks(_eol_or_exit, payloads, jobs=3, batch=1):
                    got.append(r)
        finally:
            obs.disarm()
        # The results that arrived are the serial ones.
        reference = list(parallel.run_tasks(_eol_cell, PAYLOADS, jobs=1))
        assert all(r in reference for r in got)
        failed = sorted(f.index for f in ei.value.failures)
        return summarize(run), len(got), failed

    def test_every_task_outcome_reconstructed(self, death_summary):
        summary, ok, failed = death_summary
        eng = summary["engine"]
        assert [(t["campaign"], t["index"]) for t in eng["tasks"]] == [
            (0, i) for i in range(len(PAYLOADS))
        ]
        for t in eng["tasks"]:
            assert t["status"] == ("failed" if t["index"] in failed else "ok")
            # One-shot: an ok task names its worker, a failed one its error.
            if t["status"] == "ok":
                assert t["worker_pid"] is not None and t["error"] is None
            else:
                assert t["worker_pid"] is None and t["error"]
        assert eng["totals"] == {"campaigns": 1, "ok": ok, "failed": len(failed)}

    def test_worker_death_in_stream(self, death_summary):
        summary, ok, failed = death_summary
        (dead,) = [t for t in summary["engine"]["tasks"] if t["index"] == self.DIES]
        assert dead["status"] == "failed"
        assert dead["error"].startswith("worker died: BrokenProcessPool")
        assert summary["engine"]["start"]["tasks"] == len(PAYLOADS)
        assert summary["kinds"]["engine.fail"] == len(failed)
        assert summary["engine"]["done"]["failed"] == len(failed)

    def test_manifest_captured(self, death_summary):
        man = death_summary[0]["manifest"]
        assert man["package"]["name"] == "repro"
        assert set(man["knobs"]) == set(envcfg.KNOBS)

    def test_render_and_cli(self, death_summary):
        summary, ok, failed = death_summary
        text = render(summary)
        assert f"engine: 1 campaign(s), {ok} ok, {len(failed)} failed" in text
        assert "campaign  task  status  worker" in text
        out = subprocess.run(
            [sys.executable, "-m", "repro.obs.summarize", summary["run_dir"], "--json"],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        parsed = json.loads(out.stdout)
        assert parsed["engine"]["totals"]["failed"] == len(failed)


class TestSummarizeCampaigns:
    def test_campaigns_sharing_a_run_dir_keep_their_own_rows(self, run_dir):
        """Two campaigns reusing task indices in one run dir: one row per
        (campaign, task), each submitted once."""
        for payloads in ([(1, 2), (3, 4), (5, 6)], [(7, 8), (9, 10)]):
            out = parallel.run_tasks(operator.add, payloads, jobs=2, batch=1)
            assert sorted(out) == sorted(a + b for a, b in payloads)
        eng = summarize(run_dir)["engine"]
        assert [(t["campaign"], t["index"]) for t in eng["tasks"]] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1)
        ]
        assert all(t["status"] == "ok" and t["error"] is None for t in eng["tasks"])
        assert all(isinstance(t["worker_pid"], int) for t in eng["tasks"])
        # start and done describe the run: the first campaign's start, the
        # second (last to end) campaign's done.
        assert (eng["start"]["tasks"], eng["done"]["tasks"]) == (3, 2)
        assert eng["totals"] == {"campaigns": 2, "ok": 5, "failed": 0}


class TestTornLines:
    """read_events skips torn lines anywhere, loudly."""

    def _events_file(self, tmp_path, text):
        (tmp_path / "events.jsonl").write_text(text)
        return tmp_path

    #: A torn line that is not even UTF-8, between two intact records.
    NON_UTF8 = b'{"a":1}\n\xff\xfe{"b"\n{"c":3}\n'

    @pytest.mark.parametrize("reader", ["read_events", "Follower"])
    def test_non_utf8_line_skipped_by_every_reader(self, tmp_path, capsys, reader):
        path = tmp_path / "events.jsonl"
        path.write_bytes(self.NON_UTF8)
        if reader == "read_events":
            got = read_events(tmp_path)
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
