"""Environment-variable knobs: every ``REPRO_*`` setting the package reads.

Each knob has one resolver here, named after what it sets (:func:`jobs`,
:func:`mc_trials`, :func:`task_timeout`, :func:`sim_kernel`, ...).  The
resolvers share a few parsers by value type:

* numbers - :func:`positive_int` / :func:`positive_float` (and the
  byte-size parser :func:`parse_bytes` for ``64m``-style sizes);
* on/off switches - :func:`flag` (``REPRO_OBS``, ``REPRO_FULL``,
  ``REPRO_BENCH_QUICK``);
* enumerations - a per-knob choice check (``REPRO_MC_VR``,
  ``REPRO_SIM_KERNEL``, ``REPRO_GF_NATIVE``).

Blank or unset falls back to the default; malformed or out-of-range values
raise ``ValueError`` eagerly in the parent process.  An explicit argument
at a call site always wins over the environment.

Every knob is registered in :data:`KNOBS`, the single source of truth for
documentation and telemetry: run ``python -m repro.util.envcfg`` to print
each knob's parser, default, and current effective value (``--markdown``
emits the README table), and :mod:`repro.obs.manifest` embeds the same
registry into every run manifest so a campaign records exactly the knobs
it ran under.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

#: Default retry budget per campaign task (attempts = retries + 1).
DEFAULT_TASK_RETRIES = 2

#: Default Monte Carlo chunk size (trials per whole-array chunk): bounds
#: peak memory (a few MB of event arrays) while keeping array draws long
#: enough to amortize NumPy dispatch.  ``repro.faults.montecarlo`` re-exports
#: this as ``DEFAULT_CHUNK``.
DEFAULT_MC_CHUNK = 1 << 16

#: Default exponential-tilt factor of the importance-sampling estimator
#: (``repro.faults.rareevent``): the smallest-blast-radius fault modes'
#: Poisson rates are multiplied by this factor (heavier modes tilt harder,
#: scaled by banks materialized per event), pushing trials toward the
#: fault-heavy trajectories that resolve the 99.9th-percentile tail.
#: Tuned on the fig8 default organization: effective speedup at the p999
#: tail peaks (and plateaus) around tilt 4-6.
DEFAULT_MC_TILT = 6.0

#: Variance-reduction modes accepted by ``REPRO_MC_VR``.
MC_VR_MODES = ("off", "is", "strat", "auto")

#: Default supervisor journal directory (crash-safe campaign state).
DEFAULT_SUPERVISOR_DIR = "./.repro_supervisor"

#: Default resource-watchdog sampling period (seconds).
DEFAULT_SUPERVISOR_POLL = 0.5

#: Default free-disk floor (bytes) under which the watchdog pauses a
#: campaign instead of letting the next checkpoint hit ENOSPC.
DEFAULT_SUPERVISOR_MIN_DISK = 64 << 20

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_bytes(raw: str) -> int:
    """Parse a byte size: a plain integer, or with a binary suffix
    (``512m``, ``2g``, ``64k``; optional trailing ``b`` / ``ib``)."""
    text = raw.strip().lower()
    for tail in ("ib", "b"):
        if text.endswith(tail) and text[: -len(tail)][-1:] in _SIZE_SUFFIXES:
            text = text[: -len(tail)]
            break
    scale = 1
    if text[-1:] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    return int(float(text) * scale) if "." in text else int(text) * scale


def _env_number(name: str, cast, kind: str):
    """Parse ``os.environ[name]`` via *cast*; blank/unset returns ``None``."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{name} must be {kind}, got {raw!r}") from None


def positive_int(name: str, default: int, minimum: int = 1) -> int:
    """Shared positive-int knob: env var *name* if set, else *default*."""
    value = _env_number(name, int, "an integer")
    if value is None:
        return default
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def positive_float(name: str, default: "float | None") -> "float | None":
    """Shared positive-float knob: env var *name* if set, else *default*."""
    value = _env_number(name, float, "a number")
    if value is None:
        return default
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def mc_trials(explicit: "int | None", default: int) -> int:
    """Resolve a Monte Carlo trial count.

    Priority: an explicit caller argument, then ``REPRO_MC_TRIALS``, then
    the driver's own *default*.
    """
    if explicit is not None:
        return explicit
    return positive_int("REPRO_MC_TRIALS", default)


def mc_chunk(explicit: "int | None" = None) -> int:
    """Resolve the Monte Carlo chunk size (trials per whole-array chunk).

    Priority: an explicit caller argument, then ``REPRO_MC_CHUNK``, then
    :data:`DEFAULT_MC_CHUNK`.  The chunk size slices the shared draw stream,
    so two runs agree bit-for-bit only at a matched chunk size; campaign
    cache keys therefore record the resolved value.
    """
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 1:
            raise ValueError(f"mc chunk size must be >= 1, got {explicit}")
        return explicit
    return positive_int("REPRO_MC_CHUNK", DEFAULT_MC_CHUNK)


def mc_vr(explicit: "str | None" = None) -> str:
    """Resolve the rare-event variance-reduction mode of the MC plane.

    ``off`` (default) keeps plain Monte Carlo; ``is`` arms the
    exponential-tilt importance sampler; ``strat`` arms fault-count
    stratification; ``auto`` lets the driver pick per target (importance
    sampling for tail/threshold targets, stratification for means).  An
    explicit caller argument wins over ``REPRO_MC_VR``.
    """
    value = explicit if explicit is not None else os.environ.get("REPRO_MC_VR", "")
    value = value.strip() or "off"
    if value not in MC_VR_MODES:
        raise ValueError(
            f"REPRO_MC_VR must be one of {'|'.join(MC_VR_MODES)}, got {value!r}"
        )
    return value


def mc_tilt(explicit: "float | None" = None) -> float:
    """Resolve the importance-sampling tilt factor (``REPRO_MC_TILT``).

    Saturating-mode Poisson rates are multiplied by this factor under the
    proposal measure; ``1`` degenerates to plain MC (weights all one).
    Values below 1 would tilt *away* from faults and are rejected.
    """
    if explicit is not None:
        explicit = float(explicit)
        if explicit < 1:
            raise ValueError(f"mc tilt factor must be >= 1, got {explicit}")
        return explicit
    value = _env_number("REPRO_MC_TILT", float, "a number")
    if value is None:
        return DEFAULT_MC_TILT
    if value < 1:
        raise ValueError(f"REPRO_MC_TILT must be >= 1, got {value}")
    return value


def mc_target_rci(explicit: "float | None" = None) -> "float | None":
    """Resolve the early-stop target relative CI (``REPRO_MC_TARGET_RCI``).

    A rare-event campaign stops drawing once the 95% relative CI half-width
    of its primary estimator falls to this fraction (e.g. ``0.05`` = ±5%).
    ``None``/unset disables early stopping; ``0`` disables it explicitly.
    """
    if explicit is not None:
        explicit = float(explicit)
        if explicit < 0:
            raise ValueError(f"mc target rci must be >= 0, got {explicit}")
        return explicit or None
    value = _env_number("REPRO_MC_TARGET_RCI", float, "a number")
    if value is None:
        return None
    if value < 0:
        raise ValueError(f"REPRO_MC_TARGET_RCI must be >= 0, got {value}")
    return value or None


#: Tokens accepted by on/off knobs; anything else raises.
_FLAG_ON = frozenset({"1", "true", "on", "yes", "all"})
_FLAG_OFF = frozenset({"", "0", "false", "off", "no"})


def flag(name: str) -> bool:
    """Shared on/off knob: is env var *name* set to an on token?

    On is ``1``/``true``/``on``/``yes``/``all``; off is blank, unset, or
    ``0``/``false``/``off``/``no`` (case-insensitive).  Anything else
    raises ``ValueError``.
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in _FLAG_ON:
        return True
    if raw in _FLAG_OFF:
        return False
    raise ValueError(
        f"{name} must be a flag (1/true/on/yes/all or 0/false/off/no), got {raw!r}"
    )


def obs_max_bytes(explicit: "int | None" = None) -> "int | None":
    """Resolve the telemetry-stream size cap (``REPRO_OBS_MAX_BYTES``).

    When ``events.jsonl`` would exceed the cap, the sink rotates it to
    ``events.jsonl.1`` on a line boundary (every append is one whole-line
    write) and emits an ``obs.rotate`` event into the fresh stream, so
    week-long campaigns cannot fill the disk.  ``None``/unset disables
    rotation; ``0`` disables it explicitly.  Accepts byte-size suffixes
    (``64m``, ``2g``).
    """
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 0:
            raise ValueError(f"obs max bytes must be >= 0, got {explicit}")
        return explicit or None
    value = _env_number("REPRO_OBS_MAX_BYTES", parse_bytes, "a byte size (e.g. 64m, 2g)")
    if value is None:
        return None
    if value < 0:
        raise ValueError(f"REPRO_OBS_MAX_BYTES must be >= 0, got {value}")
    return value or None


def jobs(default: int) -> int:
    """Resolve the campaign worker count: ``REPRO_JOBS`` if set, else
    *default* (callers pass the machine's CPU count)."""
    return positive_int("REPRO_JOBS", default)


def task_timeout(explicit: "float | None" = None) -> "float | None":
    """Resolve the per-task timeout in seconds; ``None`` means disabled.

    An explicit argument wins (``0`` explicitly disables); otherwise
    ``REPRO_TASK_TIMEOUT`` applies (``0`` disables there too); the default
    is no timeout, preserving pre-resilience behaviour.
    """
    if explicit is not None:
        explicit = float(explicit)
        if explicit < 0:
            raise ValueError(f"task timeout must be >= 0, got {explicit}")
        return explicit or None
    value = _env_number("REPRO_TASK_TIMEOUT", float, "a number")
    if value is None:
        return None
    if value < 0:
        raise ValueError(f"REPRO_TASK_TIMEOUT must be >= 0, got {value}")
    return value or None


def sim_kernel(explicit: "str | None" = None) -> str:
    """Resolve the timing-simulation kernel: ``epoch`` (the compiled
    core, default; the event loop on hosts without a compiler) or
    ``event`` (the event-driven reference loop).

    An explicit caller argument wins; otherwise ``REPRO_SIM_KERNEL``
    applies.  Anything else raises eagerly.
    """
    value = explicit if explicit is not None else os.environ.get("REPRO_SIM_KERNEL", "")
    value = value.strip() or "epoch"
    if value not in ("event", "epoch"):
        raise ValueError(f"REPRO_SIM_KERNEL must be 'event' or 'epoch', got {value!r}")
    return value


def gf_native(explicit: "str | None" = None) -> str:
    """Resolve the RS codec's compiled-core policy: ``auto`` (default, use
    the cffi GF core when the code is eligible and a compiler is
    available), ``off`` (always the NumPy batch kernel), or ``on``
    (require the compiled core; error out rather than fall back).
    """
    value = explicit if explicit is not None else os.environ.get("REPRO_GF_NATIVE", "")
    value = value.strip() or "auto"
    if value not in ("auto", "off", "on"):
        raise ValueError(f"REPRO_GF_NATIVE must be 'auto', 'off' or 'on', got {value!r}")
    return value


def mem_budget(explicit: "int | None" = None) -> "int | None":
    """Resolve the driver's RSS budget in bytes (``REPRO_MEM_BUDGET``).

    When the supervisor's watchdog sees RSS above this budget it degrades
    gracefully — halving the super-task batch cap and shrinking
    ``REPRO_MC_CHUNK`` for campaigns not yet keyed — instead of letting
    the OOM killer pick a victim.  Accepts byte-size suffixes (``512m``,
    ``2g``).  ``None``/unset disables the memory watchdog; ``0`` disables
    it explicitly.
    """
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 0:
            raise ValueError(f"memory budget must be >= 0, got {explicit}")
        return explicit or None
    value = _env_number("REPRO_MEM_BUDGET", parse_bytes, "a byte size (e.g. 512m, 2g)")
    if value is None:
        return None
    if value < 0:
        raise ValueError(f"REPRO_MEM_BUDGET must be >= 0, got {value}")
    return value or None


def supervisor_dir(explicit: "str | None" = None) -> str:
    """Resolve the supervisor state directory (``REPRO_SUPERVISOR_DIR``):
    write-ahead journals and salvageable super-task spools live here."""
    if explicit:
        return str(explicit)
    return os.environ.get("REPRO_SUPERVISOR_DIR", "").strip() or DEFAULT_SUPERVISOR_DIR


def supervisor_poll(explicit: "float | None" = None) -> float:
    """Resolve the watchdog sampling period in seconds
    (``REPRO_SUPERVISOR_POLL``, default :data:`DEFAULT_SUPERVISOR_POLL`)."""
    if explicit is not None:
        explicit = float(explicit)
        if explicit <= 0:
            raise ValueError(f"supervisor poll period must be > 0, got {explicit}")
        return explicit
    return positive_float("REPRO_SUPERVISOR_POLL", DEFAULT_SUPERVISOR_POLL)


def supervisor_min_disk(explicit: "int | None" = None) -> int:
    """Resolve the free-disk floor in bytes (``REPRO_SUPERVISOR_MIN_DISK``,
    default :data:`DEFAULT_SUPERVISOR_MIN_DISK`; ``0`` disables the check).

    Below the floor the supervisor pauses-and-checkpoints rather than
    letting journal appends and cache renames start failing with ENOSPC.
    """
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 0:
            raise ValueError(f"supervisor min disk must be >= 0, got {explicit}")
        return explicit
    value = _env_number(
        "REPRO_SUPERVISOR_MIN_DISK", parse_bytes, "a byte size (e.g. 64m, 1g)"
    )
    if value is None:
        return DEFAULT_SUPERVISOR_MIN_DISK
    if value < 0:
        raise ValueError(f"REPRO_SUPERVISOR_MIN_DISK must be >= 0, got {value}")
    return value


def task_retries(explicit: "int | None" = None) -> int:
    """Resolve the per-task retry budget (``REPRO_TASK_RETRIES``, default
    :data:`DEFAULT_TASK_RETRIES`).  ``0`` means a single attempt."""
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 0:
            raise ValueError(f"task retries must be >= 0, got {explicit}")
        return explicit
    return positive_int("REPRO_TASK_RETRIES", DEFAULT_TASK_RETRIES, minimum=0)


# -- knob registry / introspection -----------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One registered REPRO_* environment knob."""

    name: str  #: environment variable name
    parser: str  #: human-readable parser/constraint ("int >= 1", "flag", ...)
    default: str  #: rendered default (what an unset variable means)
    description: str  #: one-line purpose
    resolve: Callable[[], str]  #: current *effective* value, rendered

    def current(self) -> str:
        """Rendered effective value; parser errors render as INVALID."""
        try:
            return self.resolve()
        except ValueError as exc:
            return f"INVALID ({exc})"


#: Registry of every REPRO_* knob, keyed by variable name.
KNOBS: "dict[str, Knob]" = {}


def register(name, parser, default, description, resolve) -> None:
    KNOBS[name] = Knob(name, parser, default, description, resolve)


def _resolve_chaos() -> str:
    from repro.util import chaos  # lazy: chaos -> obs -> envcfg

    return chaos.from_env() or "(off)"


register(
    "REPRO_JOBS",
    "int >= 1",
    "CPU count",
    "worker-process count of every campaign fan-out (1 = serial reference path)",
    lambda: str(jobs(os.cpu_count() or 1)),
)
register(
    "REPRO_MC_TRIALS",
    "int >= 1",
    "per driver (fig8: 20000)",
    "default trial count of every Monte Carlo driver; explicit trials= wins",
    lambda: str(positive_int("REPRO_MC_TRIALS", 0) or "(per-driver default)"),
)
register(
    "REPRO_MC_CHUNK",
    "int >= 1",
    str(DEFAULT_MC_CHUNK),
    "trials per whole-array Monte Carlo chunk; slices the draw stream, so cache keys record it",
    lambda: str(mc_chunk()),
)
register(
    "REPRO_MC_VR",
    "off|is|strat|auto",
    "off",
    "rare-event variance reduction: importance sampling, count stratification, or per-target auto",
    lambda: mc_vr(),
)
register(
    "REPRO_MC_TILT",
    "float >= 1",
    str(DEFAULT_MC_TILT),
    "exponential-tilt factor of the importance sampler (1 = plain MC weights)",
    lambda: f"{mc_tilt():g}",
)
register(
    "REPRO_MC_TARGET_RCI",
    "float >= 0",
    "disabled",
    "early-stop a rare-event campaign once the 95% relative CI reaches this fraction (0 = off)",
    lambda: (lambda v: f"{v:g}" if v else "(disabled)")(mc_target_rci()),
)
register(
    "REPRO_TASK_TIMEOUT",
    "float >= 0 (s)",
    "disabled",
    "per-task timeout for pooled campaign tasks; hung workers trigger a pool rebuild",
    lambda: (lambda v: f"{v:g}s" if v else "(disabled)")(task_timeout()),
)
register(
    "REPRO_TASK_RETRIES",
    "int >= 0",
    str(DEFAULT_TASK_RETRIES),
    "retry budget per campaign task beyond the first attempt (0 = single attempt)",
    lambda: str(task_retries()),
)
register(
    "REPRO_CHAOS",
    "chaos spec",
    "(off)",
    "deterministic fault injection into pool workers: mode[=param]@index[#attempt],...",
    _resolve_chaos,
)
def _resolve_chaos_io() -> str:
    from repro.util import chaos  # lazy: chaos -> obs -> envcfg

    return chaos.io_from_env() or "(off)"


register(
    "REPRO_CHAOS_IO",
    "io chaos spec",
    "(off)",
    "host/I-O fault injection for the supervisor: mode[=param]@op[#n],... "
    "(enospc|eio|torn|kill|rss)",
    _resolve_chaos_io,
)
register(
    "REPRO_MEM_BUDGET",
    "bytes (512m, 2g)",
    "disabled",
    "driver RSS budget; above it the watchdog shrinks batch caps and MC chunks (0 = off)",
    lambda: (lambda v: str(v) if v else "(disabled)")(mem_budget()),
)
register(
    "REPRO_SUPERVISOR_DIR",
    "path",
    DEFAULT_SUPERVISOR_DIR,
    "supervisor state directory: write-ahead campaign journals + salvageable spools",
    lambda: supervisor_dir(),
)
register(
    "REPRO_SUPERVISOR_POLL",
    "float > 0 (s)",
    str(DEFAULT_SUPERVISOR_POLL),
    "resource-watchdog sampling period for RSS and free-disk gauges",
    lambda: f"{supervisor_poll():g}s",
)
register(
    "REPRO_SUPERVISOR_MIN_DISK",
    "bytes (64m, 1g)",
    "64m",
    "free-disk floor under which a supervised campaign pauses-and-checkpoints (0 = off)",
    lambda: str(supervisor_min_disk()),
)
register(
    "REPRO_CACHE_DIR",
    "path",
    "./.repro_cache",
    "directory of the evaluation-matrix and Monte Carlo checkpoint caches",
    lambda: os.environ.get("REPRO_CACHE_DIR", "./.repro_cache"),
)
register(
    "REPRO_FULL",
    "flag",
    "unset (quick fidelity)",
    "select the full-fidelity evaluation preset used for EXPERIMENTS.md numbers",
    lambda: "full" if flag("REPRO_FULL") else "quick",
)
register(
    "REPRO_BENCH_QUICK",
    "flag",
    "unset (full budgets)",
    "shrink benchmark budgets so benchmarks/ finishes in CI-scale time",
    lambda: "quick" if flag("REPRO_BENCH_QUICK") else "full",
)
register(
    "REPRO_SIM_KERNEL",
    "event|epoch",
    "epoch",
    "timing-simulation kernel: compiled epoch core (event loop without a compiler) or the event-driven reference",
    lambda: sim_kernel(),
)
register(
    "REPRO_GF_NATIVE",
    "auto|off|on",
    "auto",
    "RS codec's compiled GF core: auto-detect, disable, or require (no fallback)",
    lambda: gf_native(),
)
register(
    "REPRO_OBS",
    "flag",
    "off",
    "arm the telemetry plane: JSONL events and causal trace.span records together",
    lambda: "on" if flag("REPRO_OBS") else "off",
)
register(
    "REPRO_OBS_DIR",
    "path",
    "./.repro_obs",
    "run directory for telemetry events.jsonl + manifest.json",
    lambda: os.environ.get("REPRO_OBS_DIR", "./.repro_obs"),
)
register(
    "REPRO_OBS_MAX_BYTES",
    "bytes (64m, 2g)",
    "disabled",
    "rotate events.jsonl to events.jsonl.1 on a line boundary past this size (0 = off)",
    lambda: (lambda v: str(v) if v else "(disabled)")(obs_max_bytes()),
)


def describe() -> "list[dict]":
    """Introspect every registered knob (name order).

    Returns dicts with ``name``, ``parser``, ``default``, ``current``
    (effective value, env or default), ``source`` (``env``/``default``),
    and ``description`` — the feed for the CLI table, the README knob
    table, and run manifests.
    """
    out = []
    for name in sorted(KNOBS):
        k = KNOBS[name]
        out.append(
            {
                "name": k.name,
                "parser": k.parser,
                "default": k.default,
                "current": k.current(),
                "source": "env" if os.environ.get(k.name, "").strip() else "default",
                "description": k.description,
            }
        )
    return out


def render_knobs(markdown: bool = False, defaults_only: bool = False) -> str:
    """Render the knob table (plain text, or a Markdown table for README).

    *defaults_only* drops the machine-specific ``current`` column so the
    output is stable enough to commit into documentation.
    """
    rows = describe()
    headers = ["knob", "parser", "default", "current", "description"]
    cells = [
        [r["name"], r["parser"], r["default"],
         r["current"] + (" *" if r["source"] == "env" else ""), r["description"]]
        for r in rows
    ]
    if defaults_only:
        headers = headers[:3] + headers[4:]
        cells = [c[:3] + c[4:] for c in cells]
    if markdown:
        lines = ["| " + " | ".join(["`" + c[0] + "`"] + c[1:]) + " |" for c in cells]
        return "\n".join(
            ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"] + lines
        )
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*c) for c in cells]
    if not defaults_only:
        lines.append("(* = set in the environment)")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro.util.envcfg``: print every registered knob."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.util.envcfg",
        description="List every REPRO_* knob: parser, default, current value.",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit the README-ready Markdown table"
    )
    parser.add_argument(
        "--defaults",
        action="store_true",
        help="omit the machine-specific 'current' column (for committed docs)",
    )
    args = parser.parse_args(argv)
    print(render_knobs(markdown=args.markdown, defaults_only=args.defaults))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
