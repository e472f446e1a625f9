"""CI names only files and modules that exist.

A step that runs a deleted test file or module fails only on the CI
runner, after the change that deleted it has landed.  This reads the
workflow as text (no YAML parser) and checks every ``tests/...`` and
``benchmarks/...`` path and every ``python -m repro...`` module it
names.
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = (REPO / ".github" / "workflows" / "ci.yml").read_text()

PATHS = sorted(set(re.findall(r"(?<![\w./-])((?:tests|benchmarks)/[\w./-]*\w)", WORKFLOW)))
MODULES = sorted(set(re.findall(r"python3? -m (repro(?:\.\w+)*)", WORKFLOW)))


def test_workflow_names_paths_and_modules():
    # The patterns must match something, or the checks below pass vacuously.
    assert "benchmarks/perf_guard.py" in PATHS
    assert "tests/test_resilience.py" in PATHS
    assert "repro.obs.summarize" in MODULES


@pytest.mark.parametrize("path", PATHS)
def test_named_path_exists(path):
    assert (REPO / path).exists(), f"ci.yml names {path}, which does not exist"


@pytest.mark.parametrize("module", MODULES)
def test_named_module_resolves(module):
    assert importlib.util.find_spec(module) is not None, f"ci.yml runs missing {module}"
