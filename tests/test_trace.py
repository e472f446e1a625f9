"""Causal trace plane: spans, cross-process forests, attribution, export.

The acceptance bar for the span plane: an engine campaign whose pool
worker dies mid-batch yields one complete span forest — every stamped
engine event resolves to the campaign root through batches and the
crashed parent — with critical-path and wall-time bucket attribution
covering >= 95% of the campaign's wall-clock, and the Chrome trace-event
export validating against the schema ``chrome://tracing`` / Perfetto
load.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.faults.montecarlo import _eol_cell
from repro.obs import trace
from repro.obs.export import export_events, export_run
from repro.obs.spantree import (
    BUCKETS,
    attribute,
    build_forest,
    critical_path,
    primary_root,
    resolve_root,
    trace_summary,
)
from repro.obs.summarize import read_events, summarize

from tests.eol_workers import eol_digest, eol_or_exit

PAYLOADS = [(2, 400, s, 61320.0, 1 << 16) for s in range(6)]


def _subprocess_env():
    import os

    env = dict(os.environ)
    src = str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@pytest.fixture
def traced(tmp_path):
    """Arm the bus (events and spans); restore on exit."""
    run = tmp_path / "traced"
    obs.configure(run)
    yield run
    obs._current.set(None)  # drop any ambient context a test installed
    obs.disarm()


class TestSpanPrimitives:
    def test_disarmed_span_is_shared_noop(self):
        assert not obs.enabled()
        s1 = trace.span("x", "compute")
        s2 = trace.span("y")
        assert s1 is s2 is trace.NOOP
        with s1:
            s1.annotate(k=1)
        assert s1.span_id is None and s1.trace_id is None

    def test_span_emits_ids_window_and_fields(self, traced):
        with trace.span("unit.outer", "compute", foo=1) as outer:
            with trace.span("unit.inner", "codec") as inner:
                pass
        events = [e for e in read_events(traced) if e["kind"] == "trace.span"]
        by_name = {e["name"]: e for e in events}
        assert set(by_name) == {"unit.outer", "unit.inner"}
        o, i = by_name["unit.outer"], by_name["unit.inner"]
        assert o["span"] == outer.span_id and i["span"] == inner.span_id
        assert i["parent"] == o["span"] and o["parent"] is None
        assert i["trace"] == o["trace"] == outer.trace_id
        assert len(o["span"]) == 16 and len(o["trace"]) == 16
        assert o["t0"] <= i["t0"] <= i["t1"] <= o["t1"]
        assert o["foo"] == 1

    def test_ambient_context_restored_after_exit(self, traced):
        def ambient():  # the span context the engine ships to workers
            return obs.worker_config()[1]

        assert ambient() is None
        with trace.span("a"):
            outer_ctx = ambient()
            with trace.span("b"):
                assert ambient() != outer_ctx
            assert ambient() == outer_ctx
        assert ambient() is None

    def test_exception_recorded_and_reraised(self, traced):
        with pytest.raises(RuntimeError):
            with trace.span("unit.bang"):
                raise RuntimeError("boom")
        (rec,) = [e for e in read_events(traced) if e["kind"] == "trace.span"]
        assert "RuntimeError" in rec["error"]

    def test_adopt_parents_across_contexts(self, traced):
        with trace.span("parent") as p:
            shipped = obs.worker_config()
        # Simulate a worker process adopting the shipped context.
        obs.ensure_worker(shipped)
        with trace.span("child") as c:
            pass
        recs = {e["name"]: e for e in read_events(traced) if e["kind"] == "trace.span"}
        assert recs["child"]["parent"] == p.span_id
        assert recs["child"]["trace"] == p.trace_id
        assert c.trace_id == p.trace_id

    def test_events_stamped_with_ambient_span(self, traced):
        with trace.span("stamping") as s:
            obs.emit("unit.probe", mode="engine", x=1)
        probe = [e for e in read_events(traced) if e["kind"] == "unit.probe"]
        assert probe and probe[0]["span"] == s.span_id
        assert probe[0]["trace"] == s.trace_id


class TestCampaignForest:
    """The tentpole acceptance: one forest through a worker death."""

    #: Dies as the second inner task of its super-task (``batch=2``).
    DIES = 3

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        """Run the traced campaign once for the whole class.

        Returns ``(results, events, run_dir)``; the bus is armed (as
        :func:`traced` does) only while the campaign runs.
        """
        base = tmp_path_factory.mktemp("forest")
        run = base / "traced"
        obs.configure(run)
        payloads = [(i == self.DIES, *p) for i, p in enumerate(PAYLOADS)]
        results = []
        try:
            with pytest.raises(parallel.CampaignError) as ei:
                for r in parallel.run_tasks(eol_or_exit, payloads, jobs=3, batch=2):
                    results.append(r)
        finally:
            obs._current.set(None)
            obs.disarm()
        assert self.DIES in {f.index for f in ei.value.failures}
        return results, read_events(run), run

    def test_results_match_fault_free_serial(self, campaign):
        results, _, _ = campaign
        reference = list(parallel.run_tasks(eol_digest, PAYLOADS, jobs=1))
        # Pooled results arrive in completion order; every cell's seed
        # gives a distinct output, so membership pins each one.
        assert all(r in reference for r in results)
        rerun = parallel.run_tasks(eol_digest, PAYLOADS, jobs=3, batch=2)
        assert sorted(rerun) == sorted(reference)

    def test_every_stamped_event_resolves_to_campaign_root(self, campaign):
        _, events, _ = campaign
        forest = build_forest(events)
        root = primary_root(forest)
        assert root is not None and root.name == "engine.campaign"
        stamped = [
            e for e in events
            if e.get("span") is not None
            and e["kind"] != "trace.span"
            and e["kind"].startswith("engine.")
        ]
        assert stamped, "no stamped engine events in the stream"
        for e in stamped:
            resolved = resolve_root(forest, e["trace"], e["span"])
            assert resolved is root, f"{e['kind']} did not resolve to campaign root"

    def test_all_span_kinds_present_and_rooted(self, campaign):
        _, events, _ = campaign
        forest = build_forest(events)
        root = primary_root(forest)
        names = {n.name for n in root.walk()}
        # Dispatch and compute layers appear under the single campaign root.
        for expected in ("engine.campaign", "engine.task"):
            assert expected in names, f"{expected} missing from forest"

    def test_crashed_parents_are_synthesized_not_lost(self, campaign):
        _, events, _ = campaign
        forest = build_forest(events)
        root = primary_root(forest)
        all_nodes = list(root.walk())
        synthetic = [n for n in all_nodes if n.synthetic]
        # The dying worker finished one inner task of its super-task, so
        # that task's span is orphaned and still hangs off the root.
        assert synthetic
        for n in synthetic:
            assert n.name == "(lost)"

    def test_critical_path_and_attribution_cover_wall(self, campaign):
        _, events, _ = campaign
        forest = build_forest(events)
        root = primary_root(forest)
        path = critical_path(root)
        assert path[0] is root and len(path) >= 2
        assert all(b.t1 >= path[-1].t0 for b in path)  # chain is causal
        buckets = attribute(root)
        assert set(buckets) == set(BUCKETS)
        assert root.wall_s > 0
        coverage = sum(buckets.values()) / root.wall_s
        assert coverage >= 0.95  # acceptance bar (sums exactly by construction)
        assert buckets["compute"] > 0  # the tasks actually ran somewhere
        assert buckets["mc"] > 0  # the MC chunk loops inside them

    def test_trace_summary_section_in_report(self, campaign):
        _, events, run = campaign
        section = trace_summary(events)
        assert section["spans"] > 0 and section["traces"] >= 1
        assert section["root"]["name"] == "engine.campaign"
        assert section["coverage"] >= 0.95
        full = summarize(run)
        assert full["trace"]["root"]["name"] == "engine.campaign"


class TestEnvArming:
    def test_repro_obs_alone_records_a_rooted_forest(self, tmp_path):
        """``REPRO_OBS=1`` by itself arms spans, in the driver and its workers."""
        run = tmp_path / "env"
        env = {k: v for k, v in _subprocess_env().items() if not k.startswith("REPRO_")}
        env.update(REPRO_OBS="1", REPRO_OBS_DIR=str(run))
        code = (
            "from repro.experiments import parallel\n"
            "from repro.faults.montecarlo import _eol_cell\n"
            f"list(parallel.run_tasks(_eol_cell, {PAYLOADS[:4]!r}, jobs=2))\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        events = read_events(run)
        forest = build_forest(events)
        assert [len(roots) for roots in forest.values()] == [1]
        root = primary_root(forest)
        assert root.name == "engine.campaign" and not root.synthetic
        driver = {e["pid"] for e in events if e["kind"] == "engine.start"}
        tasks = [e for e in events if e["kind"] == "trace.span" and e["name"] == "engine.task"]
        assert len(tasks) == 4
        for e in tasks:
            assert e["pid"] not in driver
            assert resolve_root(forest, e["trace"], e["span"]) is root


class TestChromeExport:
    def _validate(self, doc):
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i", "M")
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            assert isinstance(ev["name"], str) and ev["name"]
            if ev["ph"] == "X":
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
                assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
                assert isinstance(ev["cat"], str)
            elif ev["ph"] == "i":
                assert ev["s"] == "p"
        json.dumps(doc)  # must be serializable as-is

    def test_export_validates_chrome_schema(self, traced):
        list(parallel.run_tasks(_eol_cell, PAYLOADS[:3], jobs=2))
        doc = export_run(traced)
        self._validate(doc)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i", "M"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "engine.campaign" for e in spans)

    def test_export_cli_writes_loadable_json(self, traced, tmp_path):
        with trace.span("cli.root", "compute"):
            obs.emit("cli.probe", mode="engine")
        out = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.export", str(traced), "-o", str(out)],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        self._validate(json.loads(out.read_text()))

    def test_export_without_spans_still_valid(self, tmp_path):
        run = tmp_path / "plain"
        obs.configure(run)
        try:
            obs.emit("engine.start", mode="engine", tasks=1)
        finally:
            obs.disarm()
        self._validate(export_events(read_events(run)))


class TestLayerBuckets:
    """Simulator and MC spans get their own buckets above ``compute``."""

    def test_traced_sweep_charges_sim(self, traced):
        evaluation_matrix(
            "quad",
            fidelity=Fidelity("tiny", scale=64, access_target=4000),
            workloads=["streamcluster"],
            config_keys=["chipkill18", "lot_ecc5_ep"],
            jobs=1,
            use_cache=False,
        )
        section = trace_summary(read_events(traced))
        assert section["root"]["name"] == "engine.campaign"
        assert section["buckets"]["sim"] > 0
        assert section["buckets"]["mc"] == 0

    def test_sim_outranks_compute(self):
        def node(span, parent, cat, t0, t1):
            return {
                "kind": "trace.span", "trace": "t", "span": span, "parent": parent,
                "name": span, "cat": cat, "t0": t0, "t1": t1, "pid": 1,
            }

        events = [
            node("root", None, "dispatch", 0.0, 4.0),
            node("task", "root", "compute", 0.0, 3.0),
            node("sim", "task", "sim", 1.0, 2.0),
            node("mc", "task", "mc", 1.5, 2.5),
        ]
        buckets = attribute(primary_root(build_forest(events)))
        assert buckets == {
            "sim": 1.0, "mc": 0.5, "compute": 1.5, "dispatch": 0.0, "idle": 1.0,
        }
