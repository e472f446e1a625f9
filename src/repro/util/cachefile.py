"""Atomic, corruption-tolerant, merge-on-write JSON result caches.

A cache is a flat ``{key: value}`` JSON object plus, while a sweep runs,
a sibling ``<name>.log`` of results appended since the JSON was last
written.  The evaluation-matrix sweep resumes through a
:class:`Checkpoint`, which owns everything but the sweep's key format,
the ``valid`` test for its stored values and its worker payloads.  A
finished cell costs one append; the JSON file is rewritten atomically
(temp file + same-directory ``os.replace``) once, when the sweep leaves
its ``with ckpt:`` block, so interrupted or crashed sweeps resume where
they stopped and a corrupt/truncated cache is recomputed rather than
crashing.

Hardening layers protecting concurrent and crashing campaigns:

* **CRC-framed log instead of per-result fsync** — each log record is
  one :func:`repro.experiments.resultcodec.frame` written by a single
  ``os.write`` on an ``O_APPEND`` descriptor, and
  :func:`~repro.experiments.resultcodec.read_frames` trusts a record only
  once its CRC checks.  A machine crash can lose tail records but never
  serve a wrong one; a killed process loses nothing (its writes already
  sit in the page cache).  Rewriting and fsyncing the whole file after
  every result instead would make a sweep quadratic in its cell count.
* **fsync before rename** — the temp file is flushed and fsynced (and the
  directory entry synced, best-effort) before ``os.replace``, so a machine
  crash immediately after a checkpoint cannot leave a zero-length or
  truncated file where the rename landed.
* **merge-on-write** — the on-disk cache is reloaded and unioned under
  the new entries before every rewrite, so two concurrent campaigns
  sharing a cache file don't silently drop each other's finished cells
  (for identical keys the writer's value wins).
* **schema stamp + quarantine** — every cache carries a reserved
  ``__meta__`` entry recording :data:`SCHEMA_VERSION`.  A cache whose
  stamp is missing or wrong (written by an incompatible format), or whose
  content is corrupt/truncated, is moved aside into a sibling
  ``<name>.quarantine/`` directory and treated as empty: the campaign
  recomputes rather than half-merging foreign entries, and the original
  bytes survive for post-mortems.
* **stale-temp sweep** — temp files are named ``<name>.tmp<pid>``; the
  first write into a directory removes temp files whose writer pid is
  dead (an ENOSPC or SIGKILL mid-write strands them), and every failed
  write unlinks its own temp file on the way out.

Chaos instrumentation: the write paths call
:func:`repro.util.chaos.io_fire` at the ``cache.write`` (log append or
temp-file write, both torn-capable) and ``cache.rename`` (atomic
replace) sites, so tests can inject ENOSPC/EIO/torn-write faults
here and assert the recovery contract.  Disarmed, the hooks are
early-return no-ops.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import re
import warnings
from pathlib import Path
from typing import Callable, Iterable

from repro.util import chaos

#: Format version stamped into every cache under :data:`META_KEY`.  Bump it
#: when the cache encoding changes incompatibly; older files quarantine.
SCHEMA_VERSION = 1

#: Reserved top-level key holding the stamp; never returned to callers.
META_KEY = "__meta__"

_TMP_RE = re.compile(r"\.tmp(\d+)$")
_swept_dirs: "set[str]" = set()
_quarantine_seq = itertools.count()


def _codec():
    # Deferred: importing repro.experiments at module load would cycle
    # back into this module through the drivers.
    from repro.experiments import resultcodec

    return resultcodec


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # PermissionError and friends: the pid exists (or we can't tell) —
        # never treat an uncertain writer as dead.
        return True
    return True


def sweep_stale_tmps(directory: Path) -> "list[Path]":
    """Remove ``*.tmp<pid>`` files whose writer process is dead.

    An atomic write interrupted *after* creating its temp file but before
    the replace (ENOSPC, SIGKILL, power loss) strands the temp; this sweep
    reclaims them.  Live writers (including this process) are left alone.
    Returns the removed paths.
    """
    removed = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        match = _TMP_RE.search(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        victim = Path(directory) / name
        try:
            os.unlink(victim)
        except OSError:
            continue
        removed.append(victim)
    return removed


def _sweep_once(directory: Path) -> None:
    key = str(directory)
    if key not in _swept_dirs:
        _swept_dirs.add(key)
        sweep_stale_tmps(directory)


def quarantine_path(path: Path) -> Path:
    """The quarantine directory a bad *path* would be moved into."""
    return path.with_name(f"{path.name}.quarantine")


def quarantine_file(path: Path, reason: str) -> "Path | None":
    """Move a corrupt/incompatible file into ``<name>.quarantine/``.

    Best-effort (a read-only tree just leaves the file in place); returns
    the new location or ``None``.  The move uses ``os.replace`` so a
    concurrent quarantine of the same file cannot duplicate it.
    """
    qdir = quarantine_path(path)
    dest = qdir / f"{path.name}.{os.getpid()}.{next(_quarantine_seq)}"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)
    except OSError:
        return None
    warnings.warn(
        f"cache {path} quarantined to {dest} ({reason}); it will be recomputed",
        RuntimeWarning,
        stacklevel=3,
    )
    return dest


def load_json_cache(
    path: Path, *, schema: bool = True, quarantine: bool = True
) -> "dict[str, object]":
    """Read a cache file, treating missing/corrupt content as empty.

    Corrupt (undecodable/non-object) files, and — with ``schema=True`` —
    files missing the :data:`SCHEMA_VERSION` stamp or carrying a different
    one, are quarantined (unless ``quarantine=False``) and reported empty,
    so an incompatible cache is recomputed rather than half-merged.  The
    stamp itself is stripped from the returned dict.
    """
    try:
        cache = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except (json.JSONDecodeError, UnicodeDecodeError):
        if quarantine:
            quarantine_file(path, "corrupt or truncated JSON")
        return {}
    except OSError:
        return {}
    if not isinstance(cache, dict):
        if quarantine:
            quarantine_file(path, "not a JSON object")
        return {}
    meta = cache.pop(META_KEY, None)
    if schema:
        stamped = isinstance(meta, dict) and meta.get("schema") == SCHEMA_VERSION
        if not stamped:
            if quarantine:
                found = meta.get("schema") if isinstance(meta, dict) else None
                quarantine_file(
                    path,
                    f"schema {found!r} incompatible with version {SCHEMA_VERSION}",
                )
            return {}
    return cache


def write_json_cache_atomic(path: Path, cache: "dict[str, object]") -> None:
    """Replace the cache file atomically, merged with the disk copy.

    The current file is reloaded and the union (disk entries under *cache*
    entries) is written, preserving cells finished by a concurrent campaign
    between our loads.  *cache* keeps its key order, disk-only entries
    follow it, so a resumed sweep writes the bytes of an uninterrupted
    one.  The written file always carries the schema stamp.  The caller's
    *cache* dict is never mutated.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    _sweep_once(path.parent)
    on_disk = load_json_cache(path)
    if on_disk:
        cache = {**cache, **{k: v for k, v in on_disk.items() if k not in cache}}
    payload = {k: v for k, v in cache.items() if k != META_KEY}
    payload[META_KEY] = {"schema": SCHEMA_VERSION}
    data = json.dumps(payload)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        torn = chaos.io_fire("cache.write", size=len(data))
        with open(tmp, "w", encoding="utf-8") as fh:
            if torn is not None and torn < len(data):
                fh.write(data[:torn])
                fh.flush()
                raise OSError(5, f"chaos: torn write after {torn} bytes [{tmp}]")
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        chaos.io_fire("cache.rename")
        os.replace(tmp, path)
    except BaseException:
        # Any failure mid-write (Ctrl-C, ENOSPC, a torn write, a crash
        # being raised through us) must not litter the cache dir with temp
        # files; the previous cache file is still intact.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        # Best-effort directory sync so the rename itself survives a crash.
        dfd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass


class Checkpoint:
    """One campaign's resumable ``{key: value}`` results.

    Loads the cache at *path* (``None`` keeps results in memory only, as
    ``evaluation_matrix(use_cache=False)`` does), then replays the sibling
    ``<name>.log`` a killed run left behind; :meth:`missing` names the
    keys with no stored value or one that fails *valid*.  :meth:`save` appends one
    :func:`~repro.experiments.resultcodec.frame` record (the JSON text of
    ``[key, value]``) to the log: a single ``os.write`` on an ``O_APPEND``
    descriptor, with no reload, rename or fsync.  Leaving a ``with ckpt:``
    block, on success or error, compacts: one
    :func:`write_json_cache_atomic` (merge-on-write, fsync before rename)
    of every value, then the log is unlinked.  Compaction writes new
    values in the key order last passed to :meth:`missing` (task order),
    not the order they were saved in, so a pooled sweep that finishes
    cells in completion order writes the serial sweep's bytes.

    The log needs no per-record fsync because a record is trusted only
    after its CRC checks: a machine crash can lose tail records, never
    serve a wrong one, and a killed process loses nothing, since its
    writes already sit in the page cache.  A value enters :attr:`values`
    only once its append succeeded, so a compaction after a failed append
    never persists the result whose write failed.  Campaigns sharing a
    cache also share its log; each compacts its own values (merge-on-write
    keeps the other's); a compaction that unlinks the log under a live
    campaign costs that campaign, if it is killed before its own
    compaction, only the recomputation of the cells it had appended.
    """

    def __init__(self, path: "Path | None", valid: "Callable[[object], bool]") -> None:
        self.path = path
        self.valid = valid
        self.values: "dict[str, object]" = {}
        self._order: "dict[str, int]" = {}
        self._tail_cut = False
        if path is not None:
            self.log = path.with_name(f"{path.name}.log")
            self.values = load_json_cache(path)
            records, _, _ = _codec().read_frames(self.log)
            for (text,) in records:
                key, value = json.loads(text)
                self.values[key] = value

    def missing(self, keys: "Iterable[str]") -> "list[str]":
        """The *keys* still to compute, in the given order."""
        keys = list(keys)
        self._order = {k: i for i, k in enumerate(keys)}
        return [k for k in keys if k not in self.values or not self.valid(self.values[k])]

    def save(self, key: str, value: object) -> None:
        if self.path is not None:
            self._append(_codec().frame((json.dumps([key, value]),)))
        self.values[key] = value

    def _append(self, data: bytes) -> None:
        """One framed record onto the log (chaos site ``cache.write``)."""
        if not self._tail_cut:
            # A torn tail (a killed writer, a failed append) ends what
            # read_frames trusts: cut it, or every later record is lost.
            _, clean_end, torn = _codec().read_frames(self.log)
            if torn:
                os.truncate(self.log, clean_end)
            self.log.parent.mkdir(parents=True, exist_ok=True)
            self._tail_cut = True
        # Opened per append: a log another campaign's compaction unlinked
        # is recreated instead of written to an inode nobody reads.
        fd = os.open(self.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            torn = chaos.io_fire("cache.write", size=len(data))
            if torn is not None and torn < len(data):
                os.write(fd, data[:torn])
                raise OSError(errno.EIO, f"chaos: torn write after {torn} bytes [{self.log}]")
            if os.write(fd, data) != len(data):
                raise OSError(errno.ENOSPC, f"short write [{self.log}]")
        except BaseException:
            self._tail_cut = False  # the next append re-reads and cuts the tail
            raise
        finally:
            os.close(fd)

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.path is not None and self.log.exists():
            rank = self._order.get
            ordered = sorted(self.values.items(), key=lambda kv: rank(kv[0], -1))
            write_json_cache_atomic(self.path, dict(ordered))
            self.log.unlink(missing_ok=True)
