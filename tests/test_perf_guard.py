"""Perf guard: baseline regression, floors, ceilings; bench provenance.

``benchmarks/perf_guard.py`` and ``benchmarks/conftest.py`` are plain
tooling, not package modules, so they are loaded by path; ``check``
takes injectable results/repo paths exactly so these tests can drive it
against synthetic fixtures instead of the real committed baselines.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / filename)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


perf_guard = _load("perf_guard", "perf_guard.py")
bench_conftest = _load("bench_conftest", "conftest.py")


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


class TestProvenance:
    """Every BENCH_*.json a bench writes names the commit it ran at."""

    def test_merge_results_stamps_git_sha_and_dirty(self, git_repo):
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=git_repo, capture_output=True, text=True
        ).stdout.strip()
        path = git_repo / "results" / "BENCH_new.json"
        # Stamped before the write: the first call sees a clean tree, the
        # second sees the untracked file the first one wrote.
        for v, dirty in ((1, False), (2, True)):
            bench_conftest.merge_results(git_repo / "results", "BENCH_new.json", s={"v": v})
            doc = json.loads(path.read_text())
            assert doc["s"] == {"v": v}
            assert doc["provenance"]["git"] == {"sha": head, "dirty": dirty}
        assert "knobs" in doc["provenance"]["manifest"]

    def test_off_git_fields_are_none(self, tmp_path):
        assert bench_conftest.git_info(tmp_path) == {"sha": None, "dirty": None}
