"""Live progress follower: tailing, torn lines, determinism, campaigns.

The ``--json`` stream is a contract: one line per settlement carrying
only deterministic fields, so a serial and a parallel run of the same
campaign produce *byte-identical* streams even though tasks finish in
different orders.  Its per-campaign counts are the ones ``summarize``
reports, nested campaigns included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.experiments import parallel
from repro.obs.progress import Follower, json_lines
from repro.obs.summarize import read_events, summarize


def _square(x):
    return x * x


def _inner(x):
    if x == 5:
        raise ValueError("inner task fails")
    return x * x


def _outer(base):
    """A campaign task that runs a 3-task campaign of its own."""
    return sum(parallel.run_tasks(_inner, [(base + i,) for i in range(3)], jobs=1))


PAYLOADS = [(i,) for i in range(8)]


def _subprocess_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@pytest.fixture
def armed(tmp_path):
    run = tmp_path / "progress"
    obs.configure(run)
    yield run
    obs.disarm()


class TestFollower:
    def _write(self, path, text, mode="a"):
        with open(path, mode) as fh:
            fh.write(text)

    def test_incremental_tailing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write(path, '{"kind":"a","ts":1}\n', "w")
        f = Follower(tmp_path)
        assert [e["kind"] for e in f.poll()] == ["a"]
        assert f.poll() == []
        self._write(path, '{"kind":"b","ts":2}\n')
        assert [e["kind"] for e in f.poll()] == ["b"]
        f.close()

    def test_partial_line_buffered_until_complete(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write(path, '{"kind":"a","ts":1}\n{"kind":"b",', "w")
        f = Follower(tmp_path)
        assert [e["kind"] for e in f.poll()] == ["a"]  # half line held back
        self._write(path, '"ts":2}\n')
        assert [e["kind"] for e in f.poll()] == ["b"]  # completed across polls
        f.close()

    def test_torn_interior_line_warned_and_skipped(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        self._write(path, '{"kind":"a","ts":1}\nnot json\n{"kind":"b","ts":2}\n', "w")
        f = Follower(tmp_path)
        assert [e["kind"] for e in f.poll()] == ["a", "b"]
        err = capsys.readouterr().err
        assert "skipping torn JSONL record" in err and ":2:" in err
        f.close()

    def test_missing_file_polls_empty_then_attaches(self, tmp_path):
        f = Follower(tmp_path)
        assert f.poll() == []
        self._write(tmp_path / "events.jsonl", '{"kind":"a","ts":1}\n', "w")
        assert [e["kind"] for e in f.poll()] == ["a"]
        f.close()


class TestTrackerDeterminism:
    def _json_stream(self, run_dir):
        return "\n".join(json_lines(read_events(run_dir)))

    def _run(self, tmp_path, label, jobs):
        run = tmp_path / label
        obs.configure(run)
        try:
            list(parallel.run_tasks(_square, PAYLOADS, jobs=jobs))
        finally:
            obs.disarm()
        return run

    def test_serial_and_parallel_streams_bit_identical(self, tmp_path):
        serial = self._json_stream(self._run(tmp_path, "serial", 1))
        pooled = self._json_stream(self._run(tmp_path, "pooled", 4))
        assert serial == pooled
        lines = [json.loads(l) for l in serial.splitlines()]
        assert [l["done"] for l in lines] == list(range(1, len(PAYLOADS) + 1))
        assert all(set(l) == {"campaign", "done", "failed", "total"} for l in lines)

    def test_cli_json_stream_bit_identical(self, tmp_path):
        runs = [self._run(tmp_path, label, jobs) for label, jobs in (("s", 1), ("p", 4))]
        outs = []
        for run in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.obs.progress", str(run), "--json"],
                capture_output=True,
                text=True,
                check=True,
                env=_subprocess_env(),
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].strip()

    def test_failed_tasks_counted_separately(self):
        events = [
            {"kind": "engine.start", "ts": 1.0, "tasks": 2},
            {"kind": "engine.ok", "ts": 2.0, "index": 0},
            {"kind": "engine.fail", "ts": 3.0, "index": 1},
            {"kind": "engine.done", "ts": 4.0},
        ]
        lines = [json.loads(l) for l in json_lines(events)]
        assert lines == [
            {"campaign": "campaign-1", "done": 1, "failed": 0, "total": 2},
            {"campaign": "campaign-1", "done": 1, "failed": 1, "total": 2},
        ]

    def test_two_campaigns_in_one_trace_by_campaign_stamp(self):
        """Nested campaigns share a trace; the campaign stamp tells them apart."""
        events = [
            {"kind": "engine.start", "ts": 1.0, "tasks": 1, "trace": "t", "campaign": "aa"},
            {"kind": "engine.start", "ts": 1.1, "tasks": 2, "trace": "t", "campaign": "bb"},
            {"kind": "engine.ok", "ts": 2.0, "index": 0, "trace": "t", "campaign": "bb"},
            {"kind": "engine.ok", "ts": 2.1, "index": 0, "trace": "t", "campaign": "aa"},
        ]
        lines = [json.loads(l) for l in json_lines(events)]
        assert lines == [
            {"campaign": "campaign-2", "done": 1, "failed": 0, "total": 2},
            {"campaign": "campaign-1", "done": 1, "failed": 0, "total": 1},
        ]


class TestNestedCampaigns:
    def test_progress_and_summarize_agree(self, armed):
        """A serial campaign whose tasks each run a 3-task campaign: the last
        progress line of every campaign carries summarize's ok/failed counts."""
        with pytest.raises(parallel.CampaignError):
            list(parallel.run_tasks(_outer, [(0,), (3,)], jobs=1))
        progress = {}
        for line in json_lines(read_events(armed)):
            c = json.loads(line)
            progress[c["campaign"]] = (c["done"], c["failed"])
        rows = {}
        for t in summarize(armed)["engine"]["tasks"]:
            ok, failed = rows.get(f"campaign-{t['campaign'] + 1}", (0, 0))
            rows[f"campaign-{t['campaign'] + 1}"] = (
                ok + (t["status"] == "ok"), failed + (t["status"] == "failed")
            )
        # The outer campaign, then one inner campaign per outer task.
        assert progress == rows == {
            "campaign-1": (1, 1), "campaign-2": (3, 0), "campaign-3": (2, 1)
        }
        # The run starts and ends with the outer campaign.
        eng = summarize(armed)["engine"]
        assert eng["start"]["tasks"] == 2
        assert eng["done"]["campaign"] == eng["start"]["campaign"]


class TestLiveFollow:
    def test_follow_tails_concurrent_writer(self, tmp_path):
        """The follower process streams settlements while the campaign runs."""
        run = tmp_path / "live"
        follower = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.obs.progress",
                str(run),
                "--json",
                "--follow",
                "--poll",
                "0.05",
                "--idle-timeout",
                "2.0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        obs.configure(run)
        try:
            list(parallel.run_tasks(_square, PAYLOADS, jobs=2))
        finally:
            obs.disarm()
        out, err = follower.communicate(timeout=60)
        assert follower.returncode == 0, err
        lines = [json.loads(l) for l in out.splitlines()]
        assert [l["done"] for l in lines] == list(range(1, len(PAYLOADS) + 1))
