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
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def results_dir():
    d = Path(__file__).resolve().parent.parent / "results"
    d.mkdir(exist_ok=True)
    return d


def merge_results(results_dir, filename, **fields):
    """Read-update-write a ``BENCH_*.json``, stamping run provenance."""
    from repro.obs.history import git_info
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
