"""Command-line front end.

Subcommands build variant graphs, print cost reports and comparison
tables, compute Pareto fronts and latency projections, and render SVG
scatter plots. Exit codes: 0 success, 1 domain error (one diagnostic
line on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

# arch, cost and svg are imported by the subcommands that use them, so a
# process that runs list, pareto, amdahl or plot never compiles graph code
from . import analysis
from .analysis import (SCOPES, TimingProfile, amdahl_max, fmt2, load_points,
                       map_of, pareto_front, project_fps)
from .core import PillarcostError, Variant, exact_fraction

if TYPE_CHECKING:
    from .arch import ArchConfig
    from .cost import CostReport

_GIGA = 10 ** 9


class CliError(PillarcostError):
    """Domain error surfaced as exit code 1."""


def _load_config(args: argparse.Namespace) -> ArchConfig:
    from .arch import ArchConfig
    cfg = ArchConfig.from_file(args.config) if args.config else ArchConfig()
    if args.set:
        cfg = cfg.with_overrides(args.set)
    return cfg


def _load_data(args: argparse.Namespace) -> list[analysis.DesignPoint]:
    path = Path(args.data) if args.data else analysis.default_dataset_path()
    return load_points(path)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: tuple[str, ...], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _gmadd_str(madds: int) -> str:
    return fmt2(Fraction(madds, _GIGA))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> None:
    _emit("".join(v.value + "\n" for v in Variant), args.output)


def _printable(report: CostReport) -> CostReport:
    """``report``, if Python will write its totals as text, else a CliError:
    ints over its 4,300-digit limit refuse conversion."""
    try:
        str(report.total_madds), str(report.total_params)
    except ValueError as err:
        raise CliError(str(err)) from None
    return report


def _report(args: argparse.Namespace) -> tuple[Variant, CostReport]:
    """Build and cost the variant that ``describe`` or ``cost`` names."""
    from .arch import build_pointpillars
    from .cost import graph_cost
    variant = Variant.parse(args.variant)
    graph = build_pointpillars(variant, _load_config(args))
    return variant, _printable(graph_cost(graph, count_batchnorm=not args.fold_batchnorm))


def _cmd_describe(args: argparse.Namespace) -> None:
    variant, report = _report(args)
    lines = [f"variant: {variant.value}", f"nodes: {len(report.per_node)}", ""]
    lines.append(f"{'stage':<12} {'MAdd':>16} {'params':>12}")
    for stage, (madds, params) in report.per_stage().items():
        lines.append(f"{stage:<12} {madds:>16} {params:>12}")
    lines.append("")
    lines.append(f"total MAdd:   {report.total_madds} ({_gmadd_str(report.total_madds)} GMAdd)")
    lines.append(f"total params: {report.total_params}")
    _emit("\n".join(lines) + "\n", args.output)


def _cmd_cost(args: argparse.Namespace) -> None:
    _, report = _report(args)
    if args.format == "csv":
        _emit(report.to_csv(), args.output)
        return
    if args.format == "json":
        _emit(report.to_json() + "\n", args.output)
        return
    lines = [f"{'name':<28} {'kind':<16} {'MAdd':>14} {'params':>10}"]
    for cost in report.per_node:
        lines.append(f"{cost.name:<28} {cost.kind:<16} {cost.madds:>14} {cost.params:>10}")
    lines.append(f"TOTAL {_gmadd_str(report.total_madds)} GMAdd")
    lines.append(f"TOTAL {report.total_params} params")
    _emit("\n".join(lines) + "\n", args.output)


def _cmd_compare(args: argparse.Namespace) -> None:
    from .arch import build_pointpillars
    from .cost import graph_cost
    cfg = _load_config(args)
    reports = [_printable(graph_cost(build_pointpillars(variant, cfg),
                                     count_batchnorm=not args.fold_batchnorm))
               for variant in Variant]
    base = reports[0].total_madds  # Variant.BASE comes first
    header = ("name", "madds", "params", "gmadds", "madd_speedup")
    rows = [(variant.value, r.total_madds, r.total_params, _gmadd_str(r.total_madds),
             fmt2(Fraction(base, r.total_madds))) for variant, r in zip(Variant, reports)]
    if args.format == "json":
        doc = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return
    if args.format == "csv":
        _emit(_csv_text(header, rows), args.output)
        return
    lines = [f"{'name':<14} {'GMAdd':>8} {'params':>10} {'speedup':>8}"]
    for name, _, params, gmadds, speedup in rows:
        lines.append(f"{name:<14} {gmadds:>8} {params:>10} {speedup:>8}")
    _emit("\n".join(lines) + "\n", args.output)


def _cmd_pareto(args: argparse.Namespace) -> None:
    points = _load_data(args)
    front = pareto_front(points, args.scope)
    if args.format == "json":
        _emit(json.dumps({"scope": args.scope, "front": front}, indent=2) + "\n",
              args.output)
        return
    if args.format == "csv":
        by_name = {p.name: p for p in points}
        _emit(_csv_text(("name", "gmadds", "map"),
                        ((p.name, fmt2(p.gmadds), fmt2(map_of(p, args.scope)))
                         for p in [by_name[name] for name in front])), args.output)
        return
    _emit("".join(name + "\n" for name in front), args.output)


def _parse_speedups(items: list[str]) -> dict[str, Fraction | float]:
    speedups: dict[str, Fraction | float] = {}
    for item in items:
        if "=" not in item:
            raise CliError(f"speedup {item!r} is not of the form stage=value")
        stage, raw = (part.strip() for part in item.split("=", 1))
        if stage in speedups:
            raise CliError(f"speedup for stage {stage!r} is given twice")
        if raw.lower() in ("inf", "infinity"):
            speedups[stage] = float("inf")
            continue
        try:
            value = exact_fraction(raw)
        except (ValueError, ZeroDivisionError) as err:
            raise CliError(f"bad speedup value {raw!r}: {err}") from err
        speedups[stage] = value
    return speedups


def _cmd_amdahl(args: argparse.Namespace) -> None:
    profile = TimingProfile.from_file(args.profile)
    speedups = _parse_speedups(args.speedup or [])
    fps = project_fps(profile, speedups)
    pipeline = fps / profile.base_fps
    rows = [
        ("base_fps", fmt2(profile.base_fps)),
        ("projected_fps", fmt2(fps)),
        ("pipeline_speedup", fmt2(pipeline)),
    ]
    for stage, frac in profile.stage_fractions.items():
        limit = "inf" if frac == 1 else fmt2(amdahl_max(frac))  # 1/(1-p) is unbounded at p = 1
        rows.append((f"limit_speedup_{stage}", limit))
    if args.format == "json":
        _emit(json.dumps(dict(rows), indent=2) + "\n", args.output)
        return
    if args.format == "csv":
        _emit(_csv_text(("quantity", "value"), rows), args.output)
        return
    _emit("".join(f"{name:<22} {value}\n" for name, value in rows), args.output)


def _cmd_plot(args: argparse.Namespace) -> None:
    from .svg import render_scatter
    points = _load_data(args)
    _emit(render_scatter(points, args.scope), args.output)


def _cmd_export(args: argparse.Namespace) -> None:
    from .arch import build_pointpillars
    variant = Variant.parse(args.variant)
    cfg = _load_config(args)
    _emit(build_pointpillars(variant, cfg).to_json() + "\n", args.output)


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="architecture config file (JSON or key = value)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        help="override one config field (repeatable)")


def _add_cost_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--fold-batchnorm", action="store_true",
                        help="treat batch norm as folded into convolutions")


def _add_io_flags(parser: argparse.ArgumentParser,
                  formats: tuple[str, ...] = ("table", "csv", "json")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", metavar="PATH",
                        help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillarcost",
        description="Cost-model toolkit for PointPillars backbone variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the supported backbone variants")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("describe", help="per-stage summary of one variant")
    p.add_argument("variant")
    _add_cost_flags(p)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("cost", help="per-node cost report for one variant")
    p.add_argument("variant")
    _add_cost_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("compare", help="cost table over all variants")
    _add_cost_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("pareto", help="non-dominated variants for a scope")
    p.add_argument("--scope", choices=SCOPES, default="overall")
    p.add_argument("--data", metavar="PATH",
                   help="design-point dataset (defaults to the shipped one)")
    _add_io_flags(p, formats=("lines", "csv", "json"))
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("amdahl", help="latency projection for stage speedups")
    p.add_argument("--profile", metavar="PATH", required=True,
                   help="timing profile JSON (stage fractions + base latency)")
    p.add_argument("--speedup", metavar="STAGE=VALUE", action="append",
                   help="per-stage speedup, 'inf' allowed (repeatable)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_amdahl)

    p = sub.add_parser("plot", help="SVG scatter of mAP versus GMAdd")
    p.add_argument("--scope", choices=SCOPES, default="overall")
    p.add_argument("--data", metavar="PATH")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("export", help="emit a variant's graph as JSON")
    p.add_argument("variant")
    _add_config_flags(p)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=_cmd_export)

    return parser


_DOMAIN_ERRORS = (PillarcostError, OSError)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        args.func(args)
    except _DOMAIN_ERRORS as err:
        message = str(err).replace("\n", " ") or err.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
