"""Report assembly and deterministic serialization.

Reports are small named tables with per-column formatting rules: ranked
coefficient/multiplier tables keep five decimals, normalized output changes
six, and nominal currency figures are rounded to whole millions. Identical
inputs produce byte-identical files, and the returned manifest carries a
content digest per file.

JSON reports follow one byte contract, that of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus one
trailing newline: two-space indentation, keys sorted by code point, strings
with ASCII escapes, floats as ``float.__repr__``, and never a NaN or an
infinity. A report cell is a str, a float or an int, and a JSON column holds
only one of the three: one encoder maps the type's C-level encoder over the
whole column. A non-finite float cell raises ValueError naming the report
and the column, in CSV and JSON alike; any other JSON column (a bool, None,
a numpy scalar or a mix of types) raises TypeError naming both. Row tables,
``result_<method>.json`` and ``manifest.json`` each have a fixed layout
built from encoded columns; ``testkit.json_report_oracle`` is the
``json.dumps`` route they must match byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from math import isfinite, nan
from pathlib import Path

import numpy as np

from .impact import ComparisonReport, ImpactResult
from .leontief import (
    LeontiefModel,
    check_top_k,
    downstream_importance,
    input_recipe,
    output_multipliers,
    sector_order,
)
from .table import SATELLITE_KINDS, Sector, ValidationReport

# Column formats: s = string, coef = 5 decimals, q = 6 decimals,
# million = whole currency millions, int = integer.
# Each entry formats one cell and is mapped over a whole column.
_FORMATTERS = {
    "s": str,
    "coef": "{:.5f}".format,
    "q": "{:.6f}".format,
    "million": "{:.0f}".format,
    "int": lambda v: f"{int(v)}",
    "raw": lambda v: repr(float(v)),
}

# Metric labels for aggregate tables, in presentation order.
_METRIC_LABELS = (
    ("output", "change in output (M)"),
    ("value_added", "change in value added (M)"),
    ("income", "change in income (M)"),
    ("employment", "change in employment (#)"),
    ("gross_fixed_capital_formation", "change in capital formation (M)"),
)


@dataclass(frozen=True)
class ReportTable:
    name: str
    columns: tuple[str, ...]
    formats: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"report {self.name!r}: repeated column name in {self.columns}")

    @cached_property
    def _columns(self) -> list[tuple]:
        """Each column's values; a non-finite float raises."""
        cells = list(zip(*self.rows, strict=True))
        if self.rows and len(cells) != len(self.columns):
            raise ValueError(
                f"report {self.name!r}: rows have {len(cells)} values "
                f"for {len(self.columns)} columns"
            )
        for column, values in zip(self.columns, cells):
            _check_finite([v for v in values if isinstance(v, float)], self.name, column)
        return cells

    def csv_text(self) -> str:
        formatted = [
            map(_FORMATTERS[fmt], values) for fmt, values in zip(self.formats, self._columns)
        ]
        lines = map(",".join, _transpose(formatted, len(self.rows)))
        return "\n".join([",".join(self.columns), *lines]) + "\n"

    def json_text(self) -> str:
        """The rows as a JSON list of objects keyed by column."""
        columns = sorted(zip(self.columns, self._columns))
        encoded = [_encode_column(values, self.name, key) for key, values in columns]
        return _encode_records([key for key, _ in columns], encoded, len(self.rows)) + "\n"

    # Encoded once per table: a table shared by several bundles is
    # serialized and hashed once.
    @cached_property
    def _csv_file(self) -> tuple[bytes, str]:
        return _file_bytes(self.csv_text())

    @cached_property
    def _json_file(self) -> tuple[bytes, str]:
        return _file_bytes(self.json_text())


def _transpose(columns: list, nrows: int):
    """Row tuples from column iterables, also for a table without columns."""
    return zip(*columns) if columns else [()] * nrows


def _file_bytes(text: str) -> tuple[bytes, str]:
    data = text.encode("utf-8")
    return data, hashlib.sha256(data).hexdigest()


def _check_finite(numbers, report: str, column: str) -> None:
    if not all(map(isfinite, numbers)):
        raise ValueError(
            f"report {report!r}: {column!r} holds a NaN or infinite value, "
            "and reports never hold one"
        )


def _encode_column(values, report: str, column: str) -> list[str]:
    """The JSON text of each value of a column that holds only str, only
    float or only int, by one C-level encoder mapped over the column. A NaN
    or infinity raises ValueError, and any other column TypeError, naming
    the report and the column."""
    types = set(map(type, values))
    if types <= {float}:  # an empty column, such as an empty manifest's, too
        _check_finite(values, report, column)
        return list(map(float.__repr__, values))
    if types == {str}:
        return list(map(encode_basestring_ascii, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    held = ", ".join(sorted(t.__name__ for t in types))
    raise TypeError(
        f"report {report!r}: {column!r} holds {held} values; "
        "a report column holds only str, only float or only int"
    )


def _encode_records(keys: list[str], encoded: list[list[str]], nrows: int, indent: str = "") -> str:
    """JSON text of a list of flat objects with the same sorted keys, from
    each key's column of encoded values: one ``%`` template per list,
    applied row by row."""
    if not nrows:
        return "[]"
    inner = indent + "  "
    fields = (",\n" + inner + "  ").join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
    )
    template = inner + "{\n" + inner + "  " + fields + "\n" + inner + "}" if keys else inner + "{}"
    rows = map(template.__mod__, _transpose(encoded, nrows))
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def _encode_object(members: dict[str, str], indent: str = "") -> str:
    """JSON text of an object from each key's encoded value, keys sorted."""
    if not members:
        return "{}"
    inner = indent + "  "
    items = [inner + encode_basestring_ascii(k) + ": " + v for k, v in sorted(members.items())]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def result_json_text(result: ImpactResult) -> str:
    """``result_<method>.json``: the result's vectors in sector order, its
    totals and its scalars, under the JSON byte contract."""
    report = f"result_{result.method}"

    def scalar(key, value) -> str:
        return _encode_column([value], report, key)[0]

    def vector(key, values, indent) -> str:
        encoded = _encode_column(np.asarray(values, dtype=float).tolist(), report, key)
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(encoded) + "\n" + indent + "]"

    sectors = [
        _encode_column([s.code for s in result.sectors], report, "code"),
        _encode_column([s.name for s in result.sectors], report, "name"),
    ]
    changes = {k: vector(k, v, "    ") for k, v in result.satellite_changes.items()}
    totals = {k: scalar(k, float(v)) for k, v in result.totals.items()}
    document = {
        "method": scalar("method", result.method),
        "scenario": scalar("scenario", result.scenario),
        "sectors": _encode_records(["code", "name"], sectors, len(result.sectors), "  "),
        "q": vector("q", result.q, "  "),
        "dx": vector("dx", result.dx, "  "),
        "satellite_changes": _encode_object(changes, "  "),
        "totals": _encode_object(totals, "  "),
        "pct_output": scalar("pct_output", float(result.pct_output)),
        "blowup_applied": scalar("blowup_applied", float(result.blowup_applied)),
    }
    return _encode_object(document) + "\n"


@dataclass
class ReportBundle:
    """Everything one pipeline run wants written to disk: row tables, and
    impact results, each written as ``result_<method>.json``."""

    tables: list[ReportTable] = field(default_factory=list)
    results: list[ImpactResult] = field(default_factory=list)

    def add(self, table: ReportTable) -> None:
        self.tables.append(table)


def validation_table(report: ValidationReport) -> ReportTable:
    rows = [
        (v.kind, v.sector, v.expected, v.actual, v.rel_err, v.message) for v in report.violations
    ]
    rows += [("warning", "", 0.0, 0.0, 0.0, w) for w in report.warnings]
    return ReportTable(
        name="validation",
        columns=("kind", "sector", "expected", "actual", "rel_err", "message"),
        formats=("s", "s", "raw", "raw", "raw", "s"),
        rows=tuple(rows),
    )


def multiplier_table(model: LeontiefModel) -> ReportTable:
    """All output multipliers, ranked descending."""
    mults = output_multipliers(model)
    order = sector_order(mults, descending=True)
    sectors = model.sectors
    return ReportTable(
        name="multipliers",
        columns=("sector_code", "sector_name", "value", "rank"),
        formats=("s", "s", "coef", "int"),
        rows=tuple(
            (sectors[i].code, sectors[i].name, value, rank)
            for rank, (i, value) in enumerate(zip(order, mults[order].tolist()), start=1)
        ),
    )


def sector_profile_table(model: LeontiefModel, sector) -> ReportTable:
    """Output plus satellite multipliers for one sector, from one solve over
    the stacked coefficient rows (ones for output)."""
    j = model.sector_index(sector)
    code = model.sectors[j].code
    coeffs = model.satellite_coefficients
    stacked = np.column_stack([np.ones(model.table.n), *coeffs.values()])
    values = model.solve_t(stacked)[j]
    rows = [(kind, float(v)) for kind, v in zip(("output", *coeffs), values)]
    return ReportTable(
        name=f"sector_multipliers_{code}",
        columns=("multiplier", "value"),
        formats=("s", "coef"),
        rows=tuple(rows),
    )


def recipe_tables(model: LeontiefModel, sector, top_k: int) -> list[ReportTable]:
    """Ranked input-recipe and downstream-importance views for one sector."""
    j = model.sector_index(sector)
    code = model.sectors[j].code
    out = []
    for name, entries in (
        (f"input_recipe_{code}", input_recipe(model, j, top_k)),
        (f"downstream_{code}", downstream_importance(model, j, top_k)),
    ):
        rows = tuple(
            (s.code, s.name, value, rank) for rank, (s, value) in enumerate(entries, start=1)
        )
        out.append(
            ReportTable(
                name=name,
                columns=("sector_code", "sector_name", "value", "rank"),
                formats=("s", "s", "coef", "int"),
                rows=rows,
            )
        )
    return out


def impact_table(result: ImpactResult) -> ReportTable:
    """Per-sector impact, most affected first, with a trailing TOTAL row."""
    kinds = [k for k in SATELLITE_KINDS if k in result.satellite_changes]
    columns = ["sector_code", "sector_name", "q", "output_change"]
    columns += [f"{k}_change" for k in kinds]
    formats = ["s", "s", "q", "million"] + ["million"] * len(kinds)
    order = sector_order(result.q)
    ranked = [result.sectors[i] for i in order]
    values = [result.q, result.dx, *(result.satellite_changes[k] for k in kinds)]
    rows = list(zip(
        [s.code for s in ranked],
        [s.name for s in ranked],
        *(np.asarray(v, dtype=float)[order].tolist() for v in values),
    ))
    total = ["TOTAL", "", float(result.pct_output), float(result.totals["output"])]
    total += [float(result.totals[k]) for k in kinds]
    rows.append(tuple(total))
    return ReportTable(
        name=f"impact_{result.method}",
        columns=tuple(columns),
        formats=tuple(formats),
        rows=tuple(rows),
    )


def comparison_table(comparison: ComparisonReport) -> ReportTable:
    """Aggregate metrics side by side: each method's value and a - b. The
    value columns take the method names, suffixed " (a)" and " (b)" when a
    name would repeat a column, as it does for two results of one method."""
    rows = []
    # The cells are preformatted strings, so the numbers behind them are
    # checked here.
    for key, label in _METRIC_LABELS:
        if key not in comparison.total_diffs:
            continue
        values = (comparison.totals_a[key], comparison.totals_b[key], comparison.total_diffs[key])
        _check_finite(values, "comparison", label)
        rows.append((label, *map("{:.0f}".format, values)))
    pct = (comparison.pct_a * 100, comparison.pct_b * 100, comparison.pct_diff * 100)
    _check_finite(pct, "comparison", "change in output (%)")
    rows.append(("change in output (%)", *map("{:.2f}".format, pct)))
    a, b = comparison.method_a, comparison.method_b
    columns = ("metric", a, b, "difference")
    if len(set(columns)) != len(columns):
        columns = ("metric", f"{a} (a)", f"{b} (b)", "difference")
    return ReportTable(
        name="comparison",
        columns=columns,
        formats=("s", "s", "s", "s"),
        rows=tuple(rows),
    )


def plotdata_table(result: ImpactResult, top_k: int = 10) -> ReportTable:
    """Most-affected sectors by normalized output change, for charting."""
    check_top_k(top_k)
    rows = tuple(
        (result.sectors[i].code, result.sectors[i].name, float(result.q[i]), rank)
        for rank, i in enumerate(sector_order(result.q)[:top_k], start=1)
    )
    return ReportTable(
        name=f"plotdata_top{top_k}",
        columns=("sector_code", "sector_name", "value", "rank"),
        formats=("s", "s", "q", "int"),
        rows=rows,
    )


_RESULT_KEYS = ("method", "scenario", "sectors", "q", "dx", "satellite_changes", "totals", "pct_output")


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what!r} must be a string, got {value!r}")
    return value


def _finite_number(value, what: str) -> float:
    try:
        number = float(value) if type(value) in (int, float) else nan
    except OverflowError:
        raise ValueError(f"{what!r} is an integer beyond the float range") from None
    if not isfinite(number):
        raise ValueError(f"{what!r} must be a finite number, got {value!r}")
    return number


def _finite_vector(value, what: str, n: int) -> np.ndarray:
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"{what!r} must be a list of numbers")
    if len(value) != n:
        raise ValueError(f"{what!r} has {len(value)} values for {n} sectors")
    try:
        vector = np.array(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{what!r} holds an integer beyond the float range") from None
    if not np.isfinite(vector).all():
        raise ValueError(f"{what!r} holds a non-finite number")
    return vector


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what!r} must be an object")
    return value


def result_from_dict(payload: dict) -> ImpactResult:
    """Rebuild an ImpactResult from its report form. ValueError names a
    missing key, a value that is not a finite number, or a vector whose
    length differs from the number of sectors."""
    payload = _object(payload, "result")
    missing = [key for key in _RESULT_KEYS if key not in payload]
    if missing:
        raise ValueError(f"missing key(s): {', '.join(map(repr, missing))}")
    entries = payload["sectors"]
    if not isinstance(entries, list) or not all(
        isinstance(s, dict) and isinstance(s.get("code"), str) and isinstance(s.get("name"), str)
        for s in entries
    ):
        raise ValueError("'sectors' must be a list of objects with string 'code' and 'name'")
    n = len(entries)
    totals = _object(payload["totals"], "totals")
    return ImpactResult(
        method=_text(payload["method"], "method"),
        scenario=_text(payload["scenario"], "scenario"),
        sectors=tuple(Sector(code=s["code"], name=s["name"], index=i) for i, s in enumerate(entries)),
        q=_finite_vector(payload["q"], "q", n),
        dx=_finite_vector(payload["dx"], "dx", n),
        satellite_changes={
            k: _finite_vector(v, f"satellite_changes.{k}", n)
            for k, v in _object(payload["satellite_changes"], "satellite_changes").items()
        },
        totals={k: _finite_number(v, f"totals.{k}") for k, v in totals.items()},
        pct_output=_finite_number(payload["pct_output"], "pct_output"),
        blowup_applied=_finite_number(payload.get("blowup_applied", 1.0), "blowup_applied"),
    )


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def load_impact_result(path) -> ImpactResult:
    """Read a ``result_*.json`` report back. Invalid JSON, a NaN or infinity,
    or an incomplete result raises ValueError naming the path; a syntax error
    also gives its line and column."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        return result_from_dict(json.loads(text, parse_constant=_reject_constant))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def is_plain_name(name: str) -> bool:
    """Whether ``name`` is one plain path component: not empty, ``.`` or
    ``..``, and without ``/``, ``\\`` or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def write_reports(bundle: ReportBundle, out_dir, formats=("csv", "json")) -> dict:
    """Write every report in the requested formats.

    Returns a manifest listing each file with its sha256 content digest;
    the manifest itself is written as ``manifest.json``. Re-running on
    identical inputs yields byte-identical files. A report name that is not
    one plain path component (see is_plain_name) raises ValueError before
    anything is written.
    """
    formats = tuple(formats)
    if not formats:
        raise ValueError("at least one output format is required")
    unknown = set(formats) - {"csv", "json"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    # Everything is encoded before anything is written, so a report that
    # cannot be encoded leaves no partial output behind.
    files = []
    for table in bundle.tables:
        if "csv" in formats:
            files.append((table.name, "csv", table._csv_file))
        if "json" in formats:
            files.append((table.name, "json", table._json_file))
    for result in bundle.results:
        files.append((f"result_{result.method}", "json", _file_bytes(result_json_text(result))))
    for name, _, _ in files:
        if not is_plain_name(name):
            raise ValueError(
                f"report name {name!r} must be one plain file name (not empty, '.' or '..', "
                "and without '/', '\\' or NUL)"
            )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, fmt, (data, digest) in files:
        path = out_dir / f"{name}.{fmt}"
        path.write_bytes(data)
        entries.append({"report": name, "format": fmt, "path": path.name, "sha256": digest})
    entries.sort(key=lambda e: (e["report"], e["format"]))
    manifest = {"out_dir": str(out_dir), "files": entries}
    keys = ["format", "path", "report", "sha256"]
    columns = [_encode_column([e[k] for e in entries], "manifest", k) for k in keys]
    text = _encode_object({
        "files": _encode_records(keys, columns, len(entries), "  "),
        "out_dir": _encode_column([manifest["out_dir"]], "manifest", "out_dir")[0],
    })
    (out_dir / "manifest.json").write_text(text + "\n", encoding="utf-8")
    return manifest
