"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

A reduced-size smoke run (``--smoke``: the paper workload at
``Fidelity("tiny", 64, 4000)``, ``--seconds 0``: the minimum of two timed
passes) is executed twice, once traced, and its output is checked against
``BENCHMARK.json``; the tracer's self-time arithmetic, attribute restoration
and ``compare``'s verdicts are checked in-process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from compare import compare  # noqa: E402
from spans import TARGETS, Span, Tracer, layer_self_times, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _smoke(tmp_path: Path, trace: int) -> "tuple[dict, dict, str]":
    out = tmp_path / f"report-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper_quick", "--smoke",
         "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())["workloads"]["paper_quick"], proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {trace: _smoke(tmp, trace) for trace in (1, 0)}


def test_spec_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_every_metric_computed_and_printed_with_unit(smoke):
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(smoke[0][1]["end_to_end"])
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.layer_values(smoke[1][1]))
    for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line = smoke[trace][0]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in table}
        for m in table:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    for m in SPEC["end_to_end"]:
        assert smoke[0][0]["metrics"][m["name"]]["value"] > 0


def test_self_times_bounded_by_traced_wall(smoke):
    layers = smoke[1][1]["per_layer"]
    times = [layers[k] for k in run.SELF_TIMES]
    assert all(t >= 0 for t in times)
    assert sum(times) <= layers["trace.wall_s"] * (1 + 1e-9)
    assert layers["cpu.native_epoch_s"] + layers["cpu.python_epoch_s"] + layers["cpu.event_loop_s"] > 0
    assert layers["cpu.sims"] == 256 and layers["util.cachefile.writes"] == 256


def test_modelled_counts_repeat_exactly(smoke):
    assert smoke[0][1]["modelled"] == smoke[1][1]["modelled"]
    assert smoke[0][1]["modelled"]["cpu.llc.accesses"] > 0


def test_self_time_algorithm_on_nested_spans():
    spans = [
        Span("pass", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union is covered once
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 5.0, 12.0, parent=2),  # runs past its parent: clipped to it
        Span("c", 7.0, 7.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 2.0, 1.0, 7.0, 0.5])
    assert layer_self_times(spans) == pytest.approx({"pass": 4.5, "a": 2.0, "b": 2.0, "c": 1.5, "d": 7.0})


def test_every_patched_attribute_is_restored():
    import repro.ecc  # noqa: F401  (loads every scheme class)
    import repro.experiments.evaluation  # noqa: F401

    tracer = Tracer()
    before = {}
    with tracer:
        assert not tracer.missing
        assert len(tracer._patches) >= len(TARGETS)
        for owner, attr, original in tracer._patches:
            before[(owner, attr)] = original
            assert owner.__dict__[attr] is not original
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


def _report(wall: float = 5.0, wall_spread: float = 0.0, failed: int = 0) -> dict:
    """A one-workload ``--out`` report with every end-to-end metric at 1
    except ``wall_s``."""

    def summary(v, spread=0.0):
        lo, hi = v * (1 - spread / 2), v * (1 + spread / 2)
        return {"value": v, "n": 3, "q1": lo, "q3": hi, "values": [lo, v, hi]}

    e2e = {m["name"]: summary(1.0) for m in SPEC["end_to_end"]}
    e2e["wall_s"] = summary(wall, wall_spread)
    section = {
        "end_to_end": e2e,
        "modelled": {"digest": "d"},
        "checks": {"attempted": 100, "failed": failed, "failures": []},
        "fail_frac": failed / 100,
    }
    return {"seed": 0, "workloads": {"w": section}}


def test_compare_verdicts():
    # Bounds are at most 0.25, so these ratios are past any bound.
    lines, worse = compare(_report(), _report(), SPEC)
    assert not worse
    assert "wall_s 1.000x of 5 s (no worse)" in lines[0]
    assert lines[1] == "  failed: A 0/100, B 0/100" and lines[2] == "  modelled: identical"
    lines, worse = compare(_report(), _report(wall=7.5), SPEC)
    assert worse and "wall_s 1.500x of 5 s (worse)" in lines[0]
    lines, worse = compare(_report(), _report(wall=3.5), SPEC)
    assert not worse and "wall_s 0.700x of 5 s (improved)" in lines[0]
    lines, worse = compare(_report(), _report(wall=7.5, wall_spread=0.6), SPEC)
    assert not worse and "(unresolved)" in lines[0]


def test_compare_counts_more_failures_as_worse():
    lines, worse = compare(_report(), _report(failed=1), SPEC)
    assert worse and lines[1] == "  failed: A 0/100, B 1/100 (worse)"
    assert all("(worse)" not in cell for cell in lines[0].split(";"))
    lines, worse = compare(_report(failed=1), _report(), SPEC)
    assert not worse
