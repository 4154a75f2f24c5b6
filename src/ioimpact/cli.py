"""Command-line pipeline: validate -> model -> scenario -> analyze -> report.

Every number printed or written comes from a library operation: run gets
the results of all its scenarios from impact.scenario_impacts, one solve for
every scenario and method, and --method selects only what is computed. Exit
codes: 0 success, 1 identity violations, 2 structural or parse errors,
3 non-productive economy.

Subcommands: validate, multipliers, run, compare. The default output
directory may be set through the IOIMPACT_OUT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import IOModelError, NonProductiveEconomyError, ScenarioConfigError
from .impact import (
    METHODS,
    apply_blowup,
    check_blowup_factor,
    compare_methods,
    estimate_blowup_factor,
    scenario_impacts,
)
from .ingest import load_io_table, load_model, load_table_entry, parse_blowup_history
from .leontief import check_top_k
from .report import (
    comparison_table,
    impact_table,
    is_plain_name,
    load_impact_result,
    multiplier_table,
    plotdata_table,
    recipe_tables,
    sector_profile_table,
    validation_table,
    write_reports,
)
from .scenario import build_delta, extraction_intensities, parse_scenario
from .table import INGESTED_REL_TOL, check_rel_tol, drop_zero_sectors, validate_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STRUCTURAL = 2
EXIT_NON_PRODUCTIVE = 3


def _add_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", required=True, help="IO table CSV")
    p.add_argument("--meta", required=True, help="sector metadata CSV (code,name)")
    p.add_argument(
        "--satellites",
        nargs="*",
        default=[],
        metavar="FILE",
        help="satellite account CSVs (sector,<kind>)",
    )
    p.add_argument(
        "--rel-tol",
        type=float,
        default=INGESTED_REL_TOL,
        help=f"identity tolerance (default {INGESTED_REL_TOL:g})",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default=os.environ.get("IOIMPACT_OUT", "reports"),
        help="output directory (default: $IOIMPACT_OUT or ./reports)",
    )
    p.add_argument(
        "--format",
        nargs="+",
        default=["csv", "json"],
        choices=["csv", "json"],
        help="report formats",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioimpact",
        description="Leontief input-output analysis and demand-shock impact pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check table accounting identities")
    _add_table_args(p)
    p.add_argument("--out", default=os.environ.get("IOIMPACT_OUT"), help="optional report directory")

    p = sub.add_parser("multipliers", help="output and satellite multiplier tables")
    _add_table_args(p)
    _add_output_args(p)
    p.add_argument("--sector", help="sector code for profile and recipe views")
    p.add_argument("--top-k", type=int, default=10, help="ranking depth for recipe views")

    p = sub.add_parser("run", help="run demand-shock scenarios")
    _add_table_args(p)
    _add_output_args(p)
    p.add_argument("--scenario", required=True, nargs="+", help="scenario JSON file(s)")
    p.add_argument("--method", choices=[*METHODS, "both"], default="both")
    p.add_argument("--blowup", type=float, help="override blowup factor")
    p.add_argument(
        "--blowup-history",
        nargs=2,
        metavar=("FD_CSV", "GDP_CSV"),
        help="estimate the blowup factor from history files",
    )
    p.add_argument("--top-k", type=int, default=10, help="plot-data ranking depth")

    p = sub.add_parser("compare", help="compare two impact result JSON files")
    p.add_argument("result_a")
    p.add_argument("result_b")
    _add_output_args(p)

    return parser


def _validated(table, args):
    """``table`` with its zero-output sectors dropped, and its validation
    report."""
    table, dropped = drop_zero_sectors(table)
    for sector in dropped:
        print(f"dropped zero-output sector: {sector.code} ({sector.name})", file=sys.stderr)
    return table, validate_table(table, rel_tol=args.rel_tol)


def _load_validated(args):
    """_validated's table and report, and the table's cache entry, which
    only load_model writes. A bad --rel-tol exits 2 before the table is
    read; a failed report is printed to stderr."""
    check_rel_tol(args.rel_tol)
    table, entry = load_table_entry(args.table, args.meta, args.satellites)
    table, report = _validated(table, args)
    if not report.passed:
        print("\n".join(report.lines()), file=sys.stderr)
    return table, report, entry


def cmd_validate(args) -> int:
    check_rel_tol(args.rel_tol)
    _, report = _validated(load_io_table(args.table, args.meta, args.satellites), args)
    for line in report.lines():
        print(line)
    if args.out:
        write_reports([validation_table(report)], args.out, formats=("csv", "json"))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_multipliers(args) -> int:
    if args.sector is not None:
        check_top_k(args.top_k)
    table, report, entry = _load_validated(args)
    if not report.passed:
        return EXIT_VALIDATION
    if args.sector is not None:
        table.sector_index(args.sector)  # an unknown code exits 2 before the model is built
    model = load_model(table, entry)
    tables = [validation_table(report), multiplier_table(model)]
    if args.sector is not None:
        tables.append(sector_profile_table(model, args.sector))
        tables += recipe_tables(model, args.sector, args.top_k)
    manifest = write_reports(tables, args.out, formats=tuple(args.format))
    print(f"wrote {len(manifest['files'])} report files to {args.out}")
    return EXIT_OK


def _blowup_override(args) -> float | None:
    """The blowup factor --blowup or --blowup-history sets for every
    scenario, checked as apply_blowup would check it."""
    if args.blowup is not None:
        blowup = args.blowup
    elif args.blowup_history:
        blowup = estimate_blowup_factor(*parse_blowup_history(*args.blowup_history))
    else:
        return None
    check_blowup_factor(blowup)
    return blowup


def _check_scenario_names(paths, specs) -> None:
    """Each scenario of a multi-scenario run writes to --out/<name>, so every
    name must be one plain path component, and no two may be equal."""
    seen = {}
    for path, spec in zip(paths, specs):
        name = spec.name
        if not is_plain_name(name):
            raise ScenarioConfigError(
                f"{path}: scenario name {name!r} must be a plain directory name "
                "(not empty, '.' or '..', and without '/', '\\' or NUL) in a multi-scenario run"
            )
        if name in seen:
            raise ScenarioConfigError(
                f"{path}: scenario name {name!r} is also the name of {seen[name]}; "
                "a multi-scenario run needs distinct names"
            )
        seen[name] = path


def _build_shocks(table, paths, specs):
    """Each scenario's final-demand change and extraction intensities, for
    every method: a sector code the table lacks, or a change that is not
    finite, exits 2, naming the file, before the model is built."""
    shocks = []
    for path, spec in zip(paths, specs):
        try:
            shocks.append((build_delta(table, spec), extraction_intensities(table, spec)))
        except (KeyError, ScenarioConfigError) as exc:
            raise ScenarioConfigError(f"{path}: {exc.args[0]}") from None
    return shocks


def _print_summary(spec, blowup, results) -> None:
    for result in results:
        print(f"scenario {spec.name} [{result.method}] blowup={blowup:g}")
        print(f"  change in output (M):              {result.totals['output']:,.0f}")
        print(f"  change in output (%):              {result.pct_output * 100:.2f}")
        for kind, label in (
            ("value_added", "change in value added (M):  "),
            ("income", "change in income (M):       "),
            ("employment", "change in employment (#):   "),
            ("gross_fixed_capital_formation", "change in capital formation:"),
        ):
            if kind in result.totals:
                print(f"  {label}        {result.totals[kind]:,.0f}")


def cmd_run(args) -> int:
    # Scenarios and arguments first: a bad one exits 2 before the table is read.
    specs = [parse_scenario(path) for path in args.scenario]
    multi = len(specs) > 1
    if multi:
        _check_scenario_names(args.scenario, specs)
    check_top_k(args.top_k)
    override = _blowup_override(args)
    table, report, entry = _load_validated(args)
    if not report.passed:
        return EXIT_VALIDATION
    shocks = _build_shocks(table, args.scenario, specs)
    model = load_model(table, entry)
    impacts = scenario_impacts(model, shocks, METHODS if args.method == "both" else [args.method])

    # Every scenario's reports are built before the first is written, so a
    # scenario that fails writes nothing. Report tables are immutable, and
    # the shared ones serve every scenario.
    shared = [validation_table(report), multiplier_table(model)]
    runs = []
    for spec, results in zip(specs, impacts):
        blowup = spec.blowup_factor if override is None else override
        results = [apply_blowup(result, blowup) for result in results]
        tables = [*shared, *map(impact_table, results)]
        tables.append(plotdata_table(results[0], top_k=args.top_k))
        if len(results) == 2:
            tables.append(comparison_table(compare_methods(results[1], results[0])))
        runs.append((spec, blowup, results, tables))
    for spec, blowup, results, tables in runs:
        out_dir = Path(args.out) / spec.name if multi else Path(args.out)
        write_reports(tables, out_dir, formats=tuple(args.format), results=results)
        _print_summary(spec, blowup, results)
    return EXIT_OK


def cmd_compare(args) -> int:
    a = load_impact_result(args.result_a)
    b = load_impact_result(args.result_b)
    comparison = compare_methods(a, b)
    write_reports([comparison_table(comparison)], args.out, formats=tuple(args.format))
    for key, value in sorted(comparison.total_diffs.items()):
        print(f"{key} difference ({a.method} - {b.method}): {value:,.0f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "multipliers": cmd_multipliers,
        "run": cmd_run,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except NonProductiveEconomyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_PRODUCTIVE
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (IOModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
