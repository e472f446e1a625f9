"""Perf guard: baseline regression, floors, ceilings, history trends.

``benchmarks/perf_guard.py`` is plain tooling, not a package module, so
it is loaded by path; its ``check``/``check_trends`` take injectable
results/repo/history paths exactly so these tests can drive them against
synthetic fixtures instead of the real committed baselines.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from repro.obs import history

_SPEC = importlib.util.spec_from_file_location(
    "perf_guard", Path(__file__).resolve().parent.parent / "benchmarks" / "perf_guard.py"
)
perf_guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_guard)


def _write_bench(results: Path, filename: str, doc: dict):
    results.mkdir(parents=True, exist_ok=True)
    (results / filename).write_text(json.dumps(doc))


@pytest.fixture
def git_repo(tmp_path):
    """A tiny git repo with a committed results/ baseline."""
    repo = tmp_path / "repo"
    results = repo / "results"
    _write_bench(
        results,
        "BENCH_simloop_throughput.json",
        {"single_sim": {"events_per_sec": 1000, "quick_mode": False}},
    )
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", "commit", "-qm", "baseline"],
        cwd=repo,
        check=True,
    )
    return repo


class TestBaselineRegression:
    def test_within_tolerance_passes(self, git_repo):
        _write_bench(
            git_repo / "results",
            "BENCH_simloop_throughput.json",
            {"single_sim": {"events_per_sec": 900, "quick_mode": False}},
        )
        failures = perf_guard.check(results_dir=git_repo / "results", repo=git_repo)
        assert failures == []

    def test_regression_detected(self, git_repo):
        _write_bench(
            git_repo / "results",
            "BENCH_simloop_throughput.json",
            {"single_sim": {"events_per_sec": 500, "quick_mode": False}},
        )
        failures = perf_guard.check(results_dir=git_repo / "results", repo=git_repo)
        assert any("single_sim.events_per_sec regressed" in f for f in failures)

    def test_quick_mode_mismatch_skips_loudly(self, git_repo, capsys):
        _write_bench(
            git_repo / "results",
            "BENCH_simloop_throughput.json",
            {"single_sim": {"events_per_sec": 1, "quick_mode": True}},
        )
        failures = perf_guard.check(results_dir=git_repo / "results", repo=git_repo)
        assert failures == []
        assert "quick_mode mismatch" in capsys.readouterr().out

    def test_missing_results_skip_loudly(self, tmp_path, capsys):
        failures = perf_guard.check(results_dir=tmp_path / "nothing", repo=tmp_path)
        assert failures == []
        assert "SKIP" in capsys.readouterr().out


class TestUnchangedBaseline:
    """A fresh file no bench rewrote is the baseline: say so, check nothing."""

    def test_committed_file_skips_and_checks_nothing(self, git_repo, capsys):
        tally = perf_guard.Tally()
        failures = perf_guard.check(results_dir=git_repo / "results", repo=git_repo, tally=tally)
        assert failures == []
        out = capsys.readouterr().out
        assert "fresh file is the committed baseline (no bench ran)" in out
        assert " ok " not in out
        assert tally.compared == 0
        assert tally.summary().endswith("checked nothing")

    def test_committed_file_below_floor_is_not_checked(self, git_repo, capsys):
        doc = {"matrix_sweep": {"speedup": 0.8, "cpus": 8, "jobs": 4}}
        _write_bench(git_repo / "results", "BENCH_simloop_throughput.json", doc)
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", "commit", "-qam", "floor"],
            cwd=git_repo,
            check=True,
        )
        tally = perf_guard.Tally()
        assert perf_guard.check(results_dir=git_repo / "results", repo=git_repo, tally=tally) == []
        assert "matrix_sweep.speedup: fresh file is the committed baseline" in capsys.readouterr().out
        assert tally.compared == 0

    def test_rewritten_file_is_compared(self, git_repo):
        # Same numbers, new bytes: a bench ran and reproduced the baseline.
        _write_bench(
            git_repo / "results",
            "BENCH_simloop_throughput.json",
            {"single_sim": {"quick_mode": False, "events_per_sec": 1000}},
        )
        tally = perf_guard.Tally()
        assert perf_guard.check(results_dir=git_repo / "results", repo=git_repo, tally=tally) == []
        assert tally.compared == 1
        assert "checked nothing" not in tally.summary()

    def test_summary_counts_trend_checks(self, tmp_path):
        tally = perf_guard.Tally()
        perf_guard.check_trends(history_path=_ledger(tmp_path, [1000, 1050], latest=990), tally=tally)
        assert tally.compared == 1
        assert tally.summary().startswith("perf_guard: 1 compared, ")


class TestFloors:
    def test_parallel_slower_than_serial_fails(self, tmp_path):
        _write_bench(
            tmp_path,
            "BENCH_simloop_throughput.json",
            {"matrix_sweep": {"speedup": 0.8, "cpus": 8, "jobs": 4}},
        )
        failures = perf_guard.check(results_dir=tmp_path, repo=tmp_path)
        assert any("below absolute floor" in f for f in failures)

    def test_cpus_below_jobs_skips_loudly(self, tmp_path, capsys):
        _write_bench(
            tmp_path,
            "BENCH_simloop_throughput.json",
            {"matrix_sweep": {"speedup": 0.8, "cpus": 1, "jobs": 4}},
        )
        failures = perf_guard.check(results_dir=tmp_path, repo=tmp_path)
        assert failures == []
        assert "floor not meaningful" in capsys.readouterr().out


class TestCeilings:
    def test_trace_overhead_over_budget_fails(self, tmp_path):
        _write_bench(
            tmp_path,
            "BENCH_obs_overhead.json",
            {
                "trace_disabled": {
                    "sim_overhead_pct": 5.0,
                    "sim_epoch_overhead_pct": 0.001,
                    "mc_overhead_pct": 0.001,
                }
            },
        )
        failures = perf_guard.check(results_dir=tmp_path, repo=tmp_path)
        assert any("above absolute ceiling" in f and "sim_overhead_pct" in f for f in failures)

    def test_trace_overhead_under_budget_passes(self, tmp_path):
        _write_bench(
            tmp_path,
            "BENCH_obs_overhead.json",
            {
                "trace_disabled": {
                    "sim_overhead_pct": 0.01,
                    "sim_epoch_overhead_pct": 0.01,
                    "mc_overhead_pct": 0.01,
                }
            },
        )
        assert perf_guard.check(results_dir=tmp_path, repo=tmp_path) == []


def _ledger(tmp_path, values, quick=False, latest=None, filename="BENCH_mc_throughput.json"):
    path = tmp_path / "PERF_HISTORY.jsonl"
    entries = [
        {
            "file": filename,
            "quick": quick,
            "metrics": {"fig8_mc.batched_trials_per_sec": v},
        }
        for v in values
    ]
    if latest is not None:
        entries.append(
            {
                "file": filename,
                "quick": quick,
                "metrics": {"fig8_mc.batched_trials_per_sec": latest},
            }
        )
    with path.open("w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")
    return path


class TestTrends:
    def test_drop_below_windowed_median_fails(self, tmp_path):
        path = _ledger(tmp_path, [1000, 1050, 950, 1020], latest=500)
        failures = perf_guard.check_trends(history_path=path)
        assert any("below trend floor" in f for f in failures)

    def test_steady_rate_passes(self, tmp_path):
        path = _ledger(tmp_path, [1000, 1050, 950, 1020], latest=990)
        assert perf_guard.check_trends(history_path=path) == []

    def test_window_limits_how_far_back_the_median_reaches(self, tmp_path):
        # Ancient glory days fall outside the window; only the recent
        # (already degraded) plateau sets the bar.
        path = _ledger(tmp_path, [10_000, 10_000, 10_000, 10_000, 10_000, 500, 500], latest=480)
        assert perf_guard.check_trends(history_path=path, window=2) == []
        assert perf_guard.check_trends(history_path=path, window=7) != []

    def test_too_little_history_skips_loudly(self, tmp_path, capsys):
        path = _ledger(tmp_path, [1000], latest=10)
        assert perf_guard.check_trends(history_path=path) == []
        assert "trend needs >= 2" in capsys.readouterr().out

    def test_quick_entries_not_compared_to_full(self, tmp_path, capsys):
        # Prior entries are quick runs; the latest is a full run - no
        # comparable history, so the trend must skip, not fail.
        path = tmp_path / "PERF_HISTORY.jsonl"
        rows = [
            {"file": "BENCH_mc_throughput.json", "quick": True,
             "metrics": {"fig8_mc.batched_trials_per_sec": v}}
            for v in (1000, 1000, 1000)
        ]
        rows.append(
            {"file": "BENCH_mc_throughput.json", "quick": False,
             "metrics": {"fig8_mc.batched_trials_per_sec": 10}}
        )
        with path.open("w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
        assert perf_guard.check_trends(history_path=path) == []
        assert "trend needs >= 2" in capsys.readouterr().out

    def test_missing_ledger_skips_loudly(self, tmp_path, capsys):
        assert perf_guard.check_trends(history_path=tmp_path / "none.jsonl") == []
        assert "no history ledger" in capsys.readouterr().out


class TestHistoryLedger:
    DOC = {
        "fig8_mc": {"batched_trials_per_sec": 1234.5, "quick_mode": False, "label": "x"},
        "other": {"n": 7},
        "provenance": {
            "manifest": {"knobs": {"REPRO_JOBS": 4}},
            "git": {"sha": "abc123", "dirty": False},
        },
    }

    def test_flatten_skips_provenance_bools_and_strings(self):
        flat = history.flatten_metrics(self.DOC)
        assert flat == {"fig8_mc.batched_trials_per_sec": 1234.5, "other.n": 7}

    def test_entry_prefers_stamped_git_provenance(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text(json.dumps(self.DOC))
        entry = history.entry_for(p)
        assert entry["git_sha"] == "abc123" and entry["git_dirty"] is False
        assert entry["manifest"] is not None
        assert entry["quick"] is False

    def test_append_and_load_roundtrip(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text(json.dumps(self.DOC))
        ledger = tmp_path / "PERF_HISTORY.jsonl"
        history.append([p], ledger)
        history.append([p], ledger)
        entries = history.load(ledger)
        assert len(entries) == 2
        assert all(e["file"] == "BENCH_x.json" for e in entries)

    def test_torn_ledger_line_skipped_loudly(self, tmp_path, capsys):
        ledger = tmp_path / "PERF_HISTORY.jsonl"
        ledger.write_text('{"file":"a","metrics":{}}\n{"torn...\n{"file":"b","metrics":{}}\n')
        entries = history.load(ledger)
        assert [e["file"] for e in entries] == ["a", "b"]
        assert "skipping torn history record" in capsys.readouterr().err

    def test_live_repo_fallback_stamps_sha(self, tmp_path):
        doc = {"s": {"v": 1}}
        p = tmp_path / "results" / "BENCH_y.json"
        p.parent.mkdir()
        p.write_text(json.dumps(doc))
        repo = Path(__file__).resolve().parent.parent
        entry = history.entry_for(p, repo=repo)
        assert entry["git_sha"] and len(entry["git_sha"]) == 40

    def test_cli_append(self, tmp_path):
        import os
        import subprocess as sp
        import sys

        p = tmp_path / "BENCH_x.json"
        p.write_text(json.dumps(self.DOC))
        ledger = tmp_path / "PERF_HISTORY.jsonl"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = sp.run(
            [
                sys.executable,
                "-m",
                "repro.obs.history",
                "append",
                str(p),
                "--history",
                str(ledger),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0, out.stderr
        assert "recorded BENCH_x.json" in out.stdout
        assert len(history.load(ledger)) == 1
