"""The shared cffi loader: build once per source hash, publish, clean up."""

import pytest

from repro.util import native
from repro.util.native import NativeCore

CDEF = "int twice(int x);"


def _core(tmp_path):
    # A per-test comment keeps the module name unique within the process.
    csrc = f"/* {tmp_path.name} */\nint twice(int x) {{ return 2 * x; }}\n"
    return NativeCore("_looptest", CDEF, csrc, str(tmp_path / "_native"))


def test_build_publishes_once_and_reuses_the_so(tmp_path):
    first = _core(tmp_path)
    if not first.available():
        pytest.skip("no C toolchain in this environment")
    assert first.load().lib.twice(21) == 42
    build_dir = tmp_path / "_native"
    published = sorted(p.name for p in build_dir.iterdir())
    assert len(published) == 1 and published[0].endswith(".so")
    assert published[0].startswith(first.modname + ".")
    assert not [p for p in build_dir.iterdir() if p.name.startswith("build-")]

    so = build_dir / published[0]
    stamp = so.stat().st_mtime_ns
    again = _core(tmp_path)  # a fresh loader, as in another process
    assert again.modname == first.modname
    assert again.load().lib.twice(4) == 8
    assert sorted(p.name for p in build_dir.iterdir()) == published
    assert so.stat().st_mtime_ns == stamp


def test_source_edit_changes_the_module_name(tmp_path):
    a = _core(tmp_path)
    b = NativeCore("_looptest", CDEF, a.csrc + "\n", a.build_dir)
    assert a.modname != b.modname


def test_compiler_flags_change_the_module_name(tmp_path, monkeypatch):
    a = _core(tmp_path)
    monkeypatch.setattr(native, "COMPILE_FLAGS", ("-O0",))
    b = _core(tmp_path)
    assert (a.flags, b.flags) == (("-O2",), ("-O0",))
    assert a.modname != b.modname


def test_build_failure_degrades_to_none(tmp_path):
    broken = NativeCore("_looptest", CDEF, "this is not C", str(tmp_path / "_native"))
    assert broken.load() is None
    assert not broken.available()
    assert not list((tmp_path / "_native").glob("build-*"))
