"""Environment-variable knobs: every ``REPRO_*`` setting the package reads.

Eight knobs cover what the paper's results need: fidelity (``REPRO_FULL``),
worker count (``REPRO_JOBS``), Monte Carlo trial budget
(``REPRO_MC_TRIALS``), the simulation kernel (``REPRO_SIM_KERNEL``), the
result cache (``REPRO_CACHE_DIR``), telemetry (``REPRO_OBS``,
``REPRO_OBS_DIR``) and benchmark budgets (``REPRO_BENCH_QUICK``).  Every
other setting is a call argument at the point of use (``timeout=``,
``retries=``, ``chaos=``, ``chunk_size=``, ``tilt=``, the rare-event
estimator ``mode=``, ...).

Each knob has one resolver here, named after what it sets (:func:`jobs`,
:func:`mc_trials`, :func:`sim_kernel`, ...).  The resolvers share a few
parsers by value type:

* numbers - :func:`positive_int`;
* on/off switches - :func:`flag` (``REPRO_OBS``, ``REPRO_FULL``,
  ``REPRO_BENCH_QUICK``);
* directories - :func:`path` (``REPRO_CACHE_DIR``, ``REPRO_OBS_DIR``);
* enumerations - a per-knob choice check (``REPRO_SIM_KERNEL``).

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
from pathlib import Path
from typing import Callable

def positive_int(name: str, default: int, minimum: int = 1) -> int:
    """Shared positive-int knob: env var *name* if set, else *default*."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def mc_trials(explicit: "int | None", default: int) -> int:
    """Resolve a Monte Carlo trial count.

    Priority: an explicit caller argument, then ``REPRO_MC_TRIALS``, then
    the driver's own *default*.
    """
    if explicit is not None:
        return explicit
    return positive_int("REPRO_MC_TRIALS", default)


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


def jobs(default: int) -> int:
    """Resolve the campaign worker count: ``REPRO_JOBS`` if set, else
    *default* (callers pass the machine's CPU count)."""
    return positive_int("REPRO_JOBS", default)


def path(name: str) -> Path:
    """Shared directory knob: env var *name* if set, else its registered
    default (blank counts as unset, never as the working directory)."""
    return Path(os.environ.get(name, "").strip() or KNOBS[name].default)


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
    "REPRO_CACHE_DIR",
    "path",
    "./.repro_cache",
    "directory of the evaluation-matrix checkpoint caches",
    lambda: str(path("REPRO_CACHE_DIR")),
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
    lambda: str(path("REPRO_OBS_DIR")),
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
