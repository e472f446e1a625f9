"""Build-once loader for the cffi-compiled cores.

:mod:`repro.cpu.epochnative` (the simulation core) and
:mod:`repro.gf.rsnative` (the GF/RS encode/syndrome/decode core) each
declare a C header (``cdef``) and a C source; :class:`NativeCore` turns
that pair into an importable extension module.  The C toolchain ships in
the base image; nothing is downloaded.

Build model: the module name carries a hash of the header, the source
and :data:`COMPILE_FLAGS`, so an edited core or flag never loads a stale
build.  A missing build compiles in a private ``build-*`` scratch
directory beside the published ``.so``, is moved into place with one
atomic rename (concurrent workers never import a half-written
extension), and the scratch directory is deleted.  Every
later load - in this process or any other - reuses the published file.

Any failure (no compiler, no ``cffi``, a read-only build directory)
makes :meth:`NativeCore.load` return ``None``; callers then take their
pure-Python path.  The attempt is made once per process.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import tempfile

#: Compiler flags of every core; part of the build's module name.
COMPILE_FLAGS = ("-O2",)


class NativeCore:
    """One cffi extension: *cdef* + *csrc*, built under *build_dir*."""

    def __init__(self, prefix: str, cdef: str, csrc: str, build_dir: str):
        self.cdef = cdef
        self.csrc = csrc
        self.build_dir = build_dir
        self.flags = COMPILE_FLAGS
        key = "\0".join((cdef, csrc, *self.flags))
        tag = hashlib.sha1(key.encode()).hexdigest()[:12]
        self.modname = f"{prefix}_{tag}"
        self._mod = None
        self._attempted = False

    def load(self):
        """The compiled module (``.ffi`` / ``.lib``), or None when unavailable."""
        if not self._attempted:
            self._attempted = True
            try:
                path = self._published() or self._build()
                spec = importlib.util.spec_from_file_location(self.modname, path)
                mod = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(mod)
                self._mod = mod
            except Exception:  # no compiler / sandboxed build dir / import failure
                self._mod = None
        return self._mod

    def available(self) -> bool:
        """True when the compiled core is importable (builds on first call)."""
        return self.load() is not None

    def _published(self) -> "str | None":
        if os.path.isdir(self.build_dir):
            for fn in os.listdir(self.build_dir):
                if fn.startswith(self.modname + ".") and fn.endswith(".so"):
                    return os.path.join(self.build_dir, fn)
        return None

    def _build(self) -> str:
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(self.cdef)
        ffi.set_source(self.modname, self.csrc, extra_compile_args=list(self.flags))
        os.makedirs(self.build_dir, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix="build-", dir=self.build_dir)
        try:
            built = ffi.compile(tmpdir=tmpdir)
            final = os.path.join(self.build_dir, os.path.basename(built))
            os.replace(built, final)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        return final
