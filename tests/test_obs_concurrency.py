"""Event-bus concurrency: many processes, one JSONL file, zero torn lines.

The bus writes each record with a single ``os.write`` on an ``O_APPEND``
descriptor, which POSIX makes atomic per call — so workers started under
*either* start method (``fork`` inherits the parent's armed sink,
``spawn`` re-arms from the shipped config) may append to the same
``events.jsonl`` concurrently and every line must still parse.  These
tests hammer exactly that property, plus the no-op guarantee of the
disarmed sink.
"""

import json
import multiprocessing as mp

import pytest

from repro import obs
from repro.experiments import parallel
from repro.obs.summarize import read_events

#: Events per worker process; large enough that writes genuinely overlap.
EVENTS_PER_WORKER = 300
WORKERS = 4


def _blast(cfg, worker_id, barrier):
    """Child entry point: arm from *cfg*, then emit a burst of events."""
    obs.ensure_worker(cfg)
    barrier.wait(timeout=30)
    for i in range(EVENTS_PER_WORKER):
        obs.emit("test.blast", worker=worker_id, i=i, pad="x" * 64)


def _emit_disarmed(_cfg, worker_id, barrier):
    """Child that never arms: every emit must be a no-op."""
    barrier.wait(timeout=30)
    for i in range(EVENTS_PER_WORKER):
        obs.emit("test.noop", worker=worker_id, i=i)


def _obs_state(run_dir_s):
    """Worker probe used by the engine-integration test."""
    import os

    return os.getpid(), str(obs.run_dir()), obs.enabled()


def _hammer(ctx, target):
    cfg = obs.worker_config()
    barrier = ctx.Barrier(WORKERS)
    procs = [
        ctx.Process(target=target, args=(cfg, wid, barrier)) for wid in range(WORKERS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0


@pytest.fixture
def run_dir(tmp_path):
    run = tmp_path / "run"
    obs.configure(run)
    yield run
    obs.disarm()


@pytest.mark.parametrize("method", ["fork", "spawn"])
class TestConcurrentAppends:
    def test_every_line_parses_and_none_lost(self, method, run_dir):
        _hammer(mp.get_context(method), _blast)
        events = read_events(run_dir)  # warns-and-skips torn lines; count check catches loss
        assert len(events) == WORKERS * EVENTS_PER_WORKER
        by_worker = {}
        for e in events:
            assert e["kind"] == "test.blast"
            by_worker.setdefault(e["worker"], set()).add(e["i"])
        assert set(by_worker) == set(range(WORKERS))
        for seen in by_worker.values():
            assert seen == set(range(EVENTS_PER_WORKER))
        # Per-worker attribution: each worker stamped its own pid.
        pids = {e["pid"] for e in events}
        assert len(pids) == WORKERS

    def test_raw_bytes_are_newline_terminated_json(self, method, run_dir):
        _hammer(mp.get_context(method), _blast)
        raw = (run_dir / obs.EVENTS_FILE).read_bytes()
        assert raw.endswith(b"\n")
        for line in raw.rstrip(b"\n").split(b"\n"):
            json.loads(line)  # would raise if two writes interleaved


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_disarmed_children_emit_nothing(method, tmp_path):
    obs.disarm()
    run = tmp_path / "quiet"
    ctx = mp.get_context(method)
    _hammer(ctx, _emit_disarmed)
    assert not (run / obs.EVENTS_FILE).exists()
    assert read_events(run) == []


def test_engine_workers_self_arm(run_dir):
    """Pool workers of an armed parent report the parent's run dir, armed."""
    payloads = [(str(run_dir),)] * 4
    out = list(parallel.run_tasks(_obs_state, payloads, jobs=2))
    assert len(out) == 4
    for pid, seen_dir, armed in out:
        assert seen_dir == str(run_dir)
        assert armed
