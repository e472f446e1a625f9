"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # available artifacts
    python -m repro table3               # capacity overheads
    python -m repro fig18                # scrub-window risk
    python -m repro fig10 [--dual]       # EPI reductions (runs/loads the sweep)
    python -m repro report               # quick deployment report
"""

from __future__ import annotations

import argparse
import sys


def _fig_table(args) -> str:
    from repro.experiments import (
        figure1_breakdown,
        figure2,
        figure8,
        figure18,
        format_table,
        table3,
    )

    name = args.artifact
    if name == "fig1":
        rows = figure1_breakdown()
        return format_table(
            ["scheme", "detection", "correction", "total"],
            [[r.label, f"{r.detection:.1%}", f"{r.correction:.1%}", f"{r.total:.1%}"] for r in rows],
            title="Figure 1: ECC capacity overhead breakdown",
        )
    if name == "fig2":
        rows = figure2()
        return format_table(
            ["FIT/chip", "MTBF (days)"],
            [[r.fit_per_chip, f"{r.mtbf_days:.0f}"] for r in rows],
            title="Figure 2: mean time between faults in different channels",
        )
    if name == "fig8":
        rows = figure8(trials=args.trials)
        return format_table(
            ["channels", "avg", "p99.9"],
            [[r.channels, f"{r.mean_fraction:.3%}", f"{r.p999_fraction:.2%}"] for r in rows],
            title="Figure 8: EOL fraction of memory with materialized ECC bits",
        )
    if name == "fig18":
        rows = figure18()
        return format_table(
            ["window (h)"] + [f"@{f} FIT" for f in (25, 50, 100)],
            [[r.window_hours] + [f"{r.probabilities[f]:.2e}" for f in (25, 50, 100)] for r in rows],
            title="Figure 18: P(multi-channel faults within one scrub window, 7 yr)",
        )
    if name == "table3":
        rows = table3(trials=args.trials)
        return format_table(
            ["scheme", "overhead", "EOL avg"],
            [[r.label, f"{r.total:.1%}",
              f"{r.eol_average:.1%}" if r.eol_average is not None else "-"] for r in rows],
            title="Table III: capacity overheads",
        )
    raise SystemExit(f"unknown artifact {name!r}; try 'python -m repro list'")


def _sweep_figure(args) -> str:
    from repro.experiments import epi_report, perf_report, traffic_report

    sc = "dual" if args.dual else "quad"
    name = args.artifact
    if name in ("fig10", "fig11", "fig12", "fig13"):
        metric = {"fig10": "total", "fig11": "total", "fig12": "dynamic", "fig13": "background"}[name]
        rep = epi_report("dual" if name == "fig11" else sc, metric=metric)
        avgs = rep.averages()
        lines = [f"{name}: EPI reduction averages ({rep.system_class}, metric={metric})"]
        for (bin_name, prop, base), v in sorted(avgs.items()):
            lines.append(f"  {bin_name:5s} {prop:12s} vs {base:12s}: {v:+.1%}")
        return "\n".join(lines)
    if name in ("fig14", "fig15"):
        rep = perf_report("dual" if name == "fig15" else sc)
    elif name in ("fig16", "fig17"):
        rep = traffic_report("dual" if name == "fig17" else sc)
    else:
        raise SystemExit(f"unknown artifact {name!r}")
    from repro.experiments import COMPARISONS

    lines = [f"{name}: normalized geomeans ({rep.system_class})"]
    for prop, base in COMPARISONS:
        lines.append(f"  {prop:12s} vs {base:12s}: {rep.average(prop, base):.3f}")
    return "\n".join(lines)


def _report(args) -> str:
    from repro.core import ECCParityScheme
    from repro.ecc import LotEcc5
    from repro.experiments import format_table
    from repro.faults import (
        EolCapacitySim,
        MemoryOrg,
        added_uncorrectable_interval_years,
        mean_time_between_channel_faults_days,
    )
    from repro.faults.rareevent import run_plain

    ep = ECCParityScheme(LotEcc5(), args.channels)
    eol = run_plain(EolCapacitySim(MemoryOrg(channels=args.channels), seed=0), args.trials)
    return format_table(
        ["metric", "value"],
        [
            ["static capacity overhead", f"{ep.capacity_overhead:.2%}"],
            ["EOL average (7 yr)", f"{ep.eol_capacity_overhead(eol.mean):.2%}"],
            ["MTBF between channel faults", f"{mean_time_between_channel_faults_days(args.fit):,.0f} days"],
            ["added-UE interval (8h scrub)", f"{added_uncorrectable_interval_years(8.0, args.fit):,.0f} yr"],
        ],
        title=f"ECC Parity over LOT-ECC5, N={args.channels}, {args.fit:g} FIT/chip",
    )


ARTIFACTS = {
    "fig1": _fig_table, "fig2": _fig_table, "fig8": _fig_table,
    "fig18": _fig_table, "table3": _fig_table,
    "fig10": _sweep_figure, "fig11": _sweep_figure, "fig12": _sweep_figure,
    "fig13": _sweep_figure, "fig14": _sweep_figure, "fig15": _sweep_figure,
    "fig16": _sweep_figure, "fig17": _sweep_figure,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the ECC Parity paper (SC'14).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available artifacts")

    p_all = sub.add_parser("all", help="render every artifact (slow on a cold cache)")
    p_all.add_argument("--trials", type=int, default=10000)
    p_all.add_argument("--dual", action="store_true")

    for name in ARTIFACTS:
        p = sub.add_parser(name, help=f"render {name}")
        p.add_argument("--dual", action="store_true", help="dual-channel-equivalent class")
        p.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials")
        p.set_defaults(artifact=name)

    p_rep = sub.add_parser("report", help="quick ECC Parity deployment report")
    p_rep.add_argument("--channels", type=int, default=8)
    p_rep.add_argument("--fit", type=float, default=44.0)
    p_rep.add_argument("--trials", type=int, default=10000)

    args = parser.parse_args(argv)
    if args.command == "list":
        print("artifacts:", ", ".join(sorted(ARTIFACTS)), "+ report, all")
        return 0
    if args.command == "report":
        print(_report(args))
        return 0
    if args.command == "all":
        for name in sorted(ARTIFACTS):
            args.artifact = name
            print(ARTIFACTS[name](args))
            print()
        return 0
    print(ARTIFACTS[args.artifact](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
