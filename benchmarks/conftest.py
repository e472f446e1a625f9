"""Benchmark-harness fixtures.

Every bench regenerates one of the paper's tables or figures, prints it,
and writes it under ``results/`` so EXPERIMENTS.md can reference stable
artifacts.  The timing-plane benches share the cached evaluation matrix
(``.repro_cache/``); the first cold run simulates, later runs re-render.

Each ``BENCH_*.json`` also carries a ``provenance`` block - the run
manifest (knobs, seeds, package version, host) plus the git commit - so
an archived number can always be traced back to the exact configuration
that produced it.
"""

import json
import subprocess
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def results_dir():
    d = Path(__file__).resolve().parent.parent / "results"
    d.mkdir(exist_ok=True)
    return d


def git_info(repo) -> dict:
    """``{"sha": ..., "dirty": ...}`` of *repo* (None fields off-git)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=repo, capture_output=True, text=True
        )
    except OSError:
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {
        "sha": sha.stdout.strip(),
        "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
    }


def merge_results(results_dir, filename, **fields):
    """Read-update-write a ``BENCH_*.json``, stamping run provenance."""
    from repro.obs.manifest import manifest_dict

    path = results_dir / filename
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(fields)
    data["provenance"] = {
        "manifest": manifest_dict(),
        "git": git_info(results_dir.parent),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=repr) + "\n")


@pytest.fixture
def emit(results_dir):
    """Print a rendered figure/table and persist it to results/<name>.txt."""

    def _emit(name: str, text: str):
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


def once(benchmark, fn):
    """Run an expensive figure generator exactly once under timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
