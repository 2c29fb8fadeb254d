"""Command-line front end.

Subcommands build variant graphs, print cost reports and comparison
tables, compute Pareto fronts and latency projections, and render SVG
scatter plots. Exit codes: 0 success, 1 domain error (one diagnostic
line on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
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
from .core import PillarcostError, Variant, _csv_field, exact_fraction, read_key_values

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

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


def _csv_text(header: tuple[str, ...], rows) -> str:
    return "".join([",".join([_csv_field(str(field)) for field in row]) + "\n"
                    for row in (header, *rows)])


def _render(fmt: str, header: tuple[str, ...], rows: list[tuple], line: str,
            title: tuple = (), doc: object = None) -> str:
    """CSV of ``header`` and ``rows``, JSON of ``doc`` (default: an object per row), or
    a ``line.format`` line for ``title`` and each row, refusing a field's line break."""
    if fmt == "csv":
        return _csv_text(header, rows)
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows] if doc is None else doc,
                          indent=2) + "\n"
    for field in [field for row in rows for field in row if isinstance(field, str)]:
        if "\n" in field or "\r" in field:
            raise CliError(f"cannot write {field!r} on one line; use --format csv or json")
    return "".join([line.format(*row) + "\n" for row in ([title] if title else []) + rows])


def _gmadd_str(madds: int) -> str:
    return fmt2(Fraction(madds, _GIGA))


# --------------------------------------------------------------------------
# Subcommands: each returns the text that ``run`` writes
# --------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> str:
    return "".join(v.value + "\n" for v in Variant)


def _printable(report: CostReport) -> CostReport:
    """``report``, if Python will write its totals as text, else a CliError:
    ints over its 4,300-digit limit refuse conversion."""
    try:
        str(report.total_madds), str(report.total_params)
    except ValueError as err:
        raise CliError(str(err)) from None
    return report


def _reports(args: argparse.Namespace, variants: Iterable[Variant]) -> list[CostReport]:
    """Build and cost each of ``variants`` under the config ``args`` names."""
    from .arch import build_pointpillars
    from .cost import graph_cost
    cfg = _load_config(args)
    return [_printable(graph_cost(build_pointpillars(variant, cfg),
                                  count_batchnorm=not args.fold_batchnorm))
            for variant in variants]


def _cmd_describe(args: argparse.Namespace) -> str:
    variant = Variant.parse(args.variant)
    [report] = _reports(args, [variant])
    rows = [(stage, *sums) for stage, sums in report.per_stage().items()]
    stages = _render("table", (), rows, "{0:<12} {1:>16} {2:>12}",
                     title=("stage", "MAdd", "params"))
    return (f"variant: {variant.value}\nnodes: {len(report.names)}\n\n{stages}\n"
            f"total MAdd:   {report.total_madds} ({_gmadd_str(report.total_madds)} GMAdd)\n"
            f"total params: {report.total_params}\n")


def _cmd_cost(args: argparse.Namespace) -> str:
    [report] = _reports(args, [Variant.parse(args.variant)])
    if args.format == "csv":
        return report.to_csv()
    if args.format == "json":
        return report.to_json() + "\n"
    rows = list(zip(report.names, report.kinds, report.madds, report.params))
    table = _render("table", (), rows, "{0:<28} {1:<16} {2:>14} {3:>10}",
                    title=("name", "kind", "MAdd", "params"))
    return (f"{table}TOTAL {_gmadd_str(report.total_madds)} GMAdd\n"
            f"TOTAL {report.total_params} params\n")


def _cmd_compare(args: argparse.Namespace) -> str:
    reports = _reports(args, Variant)
    base = reports[0].total_madds  # Variant.BASE comes first
    header = ("name", "madds", "params", "gmadds", "madd_speedup")
    rows = [(variant.value, r.total_madds, r.total_params, _gmadd_str(r.total_madds),
             fmt2(Fraction(base, r.total_madds))) for variant, r in zip(Variant, reports)]
    return _render(args.format, header, rows, "{0:<14} {3:>8} {2:>10} {4:>8}",
                   title=("name", "", "params", "GMAdd", "speedup"))


def _cmd_pareto(args: argparse.Namespace) -> str:
    points = _load_data(args)
    front = pareto_front(points, args.scope)
    by_name = {p.name: p for p in points}
    rows = [(p.name, fmt2(p.gmadds), fmt2(map_of(p, args.scope)))
            for p in [by_name[name] for name in front]]
    return _render(args.format, ("name", "gmadds", "map"), rows, "{0}",
                   doc={"scope": args.scope, "front": front})


def _parse_speedups(items: list[str]) -> dict[str, Fraction | float]:
    speedups = read_key_values((("speedup ", item) for item in items), CliError)
    for stage, raw in speedups.items():
        try:
            speedups[stage] = (float("inf") if raw.lower() in ("inf", "infinity")
                               else exact_fraction(raw))
        except (ValueError, ZeroDivisionError) as err:
            raise CliError(f"bad speedup value {raw!r}: {err}") from err
    return speedups


def _cmd_amdahl(args: argparse.Namespace) -> str:
    profile = TimingProfile.from_file(args.profile)
    speedups = _parse_speedups(args.speedup or [])
    fps = project_fps(profile, speedups)
    rows = [
        ("base_fps", fmt2(profile.base_fps)),
        ("projected_fps", fmt2(fps)),
        ("pipeline_speedup", fmt2(fps / profile.base_fps)),
    ]
    for stage, frac in profile.stage_fractions.items():
        limit = "inf" if frac == 1 else fmt2(amdahl_max(frac))  # 1/(1-p) is unbounded at p = 1
        rows.append((f"limit_speedup_{stage}", limit))
    return _render(args.format, ("quantity", "value"), rows, "{0:<22} {1}", doc=dict(rows))


def _cmd_plot(args: argparse.Namespace) -> str:
    from .svg import render_scatter
    return render_scatter(_load_data(args), args.scope)


def _cmd_export(args: argparse.Namespace) -> str:
    from .arch import build_pointpillars
    from .shapes import shape_table
    graph = build_pointpillars(Variant.parse(args.variant), _load_config(args))
    shape_table(graph)  # refuses, as cost does, a graph whose shapes cannot be inferred
    return graph.to_json() + "\n"


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


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scope", choices=SCOPES, default="overall")
    parser.add_argument("--data", metavar="PATH",
                        help="design-point dataset (defaults to the shipped one)")


def _add_format(parser: argparse.ArgumentParser,
                formats: tuple[str, ...] = ("table", "csv", "json")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillarcost",
        description="Cost-model toolkit for PointPillars backbone variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable[[argparse.Namespace], str],
                help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    command("list", _cmd_list, "list the supported backbone variants")

    p = command("describe", _cmd_describe, "per-stage summary of one variant")
    p.add_argument("variant")
    _add_cost_flags(p)

    p = command("cost", _cmd_cost, "per-node cost report for one variant")
    p.add_argument("variant")
    _add_cost_flags(p)
    _add_format(p)

    p = command("compare", _cmd_compare, "cost table over all variants")
    _add_cost_flags(p)
    _add_format(p)

    p = command("pareto", _cmd_pareto, "non-dominated variants for a scope")
    _add_data_flags(p)
    _add_format(p, formats=("lines", "csv", "json"))

    p = command("amdahl", _cmd_amdahl, "latency projection for stage speedups")
    p.add_argument("--profile", metavar="PATH", required=True,
                   help="timing profile JSON (stage fractions + base latency)")
    p.add_argument("--speedup", metavar="STAGE=VALUE", action="append",
                   help="per-stage speedup, 'inf' allowed (repeatable)")
    _add_format(p)

    p = command("plot", _cmd_plot, "SVG scatter of mAP versus GMAdd")
    _add_data_flags(p)

    p = command("export", _cmd_export, "emit a variant's graph as JSON")
    p.add_argument("variant")
    _add_config_flags(p)

    for p in sub.choices.values():  # added last, so each usage line ends with it
        p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        text = args.func(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            try:
                sys.stdout.write(text)
            except UnicodeEncodeError as err:
                raise CliError(f"cannot write to standard output: {err}; "
                               "use --output PATH to write UTF-8") from None
    except (PillarcostError, OSError) as err:
        message = str(err).replace("\n", " ") or err.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
