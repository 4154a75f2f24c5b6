"""Report assembly and deterministic serialization.

Reports are small named tables, each a mapping from column name to the
column's format and values: ranked coefficient/multiplier tables keep five
decimals, normalized output changes six, and nominal currency figures are
rounded to whole millions. Identical inputs produce byte-identical files,
and the returned manifest carries a content digest per file.

JSON reports follow one byte contract, that of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus one
trailing newline: two-space indentation, keys sorted by code point, strings
with ASCII escapes and floats as ``float.__repr__``. A column's format fixes
its cell type: str for ``s``, int for ``int`` (a bool is not one) and float
for the others. Each column is checked once, when its table is built (a
result's and the manifest's when they are encoded): a cell of another type,
such as a bool, None or a numpy scalar, raises TypeError, and a NaN or an
infinity ValueError, each naming the report and the column. JSON maps the
type's C-level encoder over the column. Tables, ``result_<method>.json``
and ``manifest.json`` each have a fixed layout built from encoded columns;
``testkit.json_report_oracle`` is the ``json.dumps`` route they must match
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from math import isfinite, nan
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .impact import ComparisonReport, ImpactResult
from .ingest import quoted_cell
from .leontief import (
    LeontiefModel,
    check_top_k,
    downstream_importance,
    input_recipe,
    output_multipliers,
    sector_order,
)
from .scenario import unique_keys
from .table import SATELLITE_KINDS, Sector, ValidationReport

# Column formats: s = string, coef = 5 decimals, q = 6 decimals,
# million = whole currency millions, int = integer, raw = shortest repr.
# Each entry formats one CSV cell and is mapped over a whole column.
_FORMATTERS = {
    "s": str,
    "coef": "{:.5f}".format,
    "q": "{:.6f}".format,
    "million": "{:.0f}".format,
    "int": int.__repr__,
    "raw": float.__repr__,
}
# The one type of a column's cells, by format, and each type's JSON encoder.
_CELL_TYPES = {"s": str, "int": int, "coef": float, "q": float, "million": float, "raw": float}
_JSON_ENCODERS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}

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
    """A named report table: ``columns`` maps each column name, in file
    order, to its CSV format and its values. Building the table checks that
    every column has the same length and holds only its format's cell type
    (see _checked), and finds the string columns with a cell that CSV
    quotes (see ingest.quoted_cell); the columns are then read-only, as the
    encodings are cached."""

    name: str
    columns: Mapping[str, tuple[str, tuple]]

    def __post_init__(self):
        columns = {key: (fmt, _checked(_CELL_TYPES[fmt], values, self.name, key))
                   for key, (fmt, values) in self.columns.items()}
        lengths = {key: len(values) for key, (_, values) in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"report {self.name!r}: columns differ in length: {lengths}")
        object.__setattr__(self, "columns", MappingProxyType(columns))
        # Only a string column can hold a cell that needs quotes, and its
        # cells do if quoting them joined changes the text.
        quoted = {key for key, (fmt, values) in columns.items()
                  if fmt == "s" and quoted_cell(text := "".join(values)) != text}
        object.__setattr__(self, "_quoted", quoted)

    def csv_text(self) -> str:
        formatted = [
            map(quoted_cell if key in self._quoted else _FORMATTERS[fmt], values)
            for key, (fmt, values) in self.columns.items()
        ]
        lines = map(",".join, zip(*formatted))
        return "\n".join([",".join(map(quoted_cell, self.columns)), *lines]) + "\n"

    def json_text(self) -> str:
        """The rows as a JSON list of objects keyed by column."""
        columns = sorted(self.columns.items())
        encoded = [list(map(_JSON_ENCODERS[_CELL_TYPES[fmt]], values))
                   for _, (fmt, values) in columns]
        return _encode_records([key for key, _ in columns], encoded) + "\n"

    # Encoded once per table: a table written to several directories is
    # serialized and hashed once.
    @cached_property
    def _csv_file(self) -> tuple[bytes, str]:
        return _file_bytes(self.csv_text())

    @cached_property
    def _json_file(self) -> tuple[bytes, str]:
        return _file_bytes(self.json_text())


def _file_bytes(text: str) -> tuple[bytes, str]:
    data = text.encode("utf-8")
    return data, hashlib.sha256(data).hexdigest()


def _checked(cell_type: type, values, report: str, column: str) -> tuple:
    """A column's values as a tuple, once each is of exactly ``cell_type``
    (a bool is not an int, nor a numpy scalar a float) and, for float, finite.
    Otherwise TypeError or ValueError names the report and the column."""
    values = tuple(values)
    wrong = set(map(type, values)) - {cell_type}
    if wrong:
        held = ", ".join(sorted(t.__name__ for t in wrong))
        raise TypeError(
            f"report {report!r}: {column!r} holds {held} values, "
            f"and its format holds only {cell_type.__name__} values"
        )
    if cell_type is float and not all(map(isfinite, values)):
        raise ValueError(
            f"report {report!r}: {column!r} holds a NaN or infinite value, "
            "and reports never hold one"
        )
    return values


def _encoded(cell_type: type, values, report: str, column: str) -> list[str]:
    """The JSON text of each value of a column, checked by _checked."""
    return list(map(_JSON_ENCODERS[cell_type], _checked(cell_type, values, report, column)))


def _encode_records(keys: list[str], encoded: list[list[str]], indent: str = "") -> str:
    """JSON text of a list of flat objects with the same sorted keys, from
    each key's column of encoded values: one ``%`` template per list,
    applied row by row."""
    inner = indent + "  "
    fields = (",\n" + inner + "  ").join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
    )
    template = inner + "{\n" + inner + "  " + fields + "\n" + inner + "}"
    rows = ",\n".join(map(template.__mod__, zip(*encoded)))
    return "[\n" + rows + "\n" + indent + "]" if rows else "[]"


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

    def scalar(cell_type, key, value) -> str:
        return _encoded(cell_type, [value], report, key)[0]

    def vector(key, values, indent) -> str:
        encoded = _encoded(float, np.asarray(values, dtype=float).tolist(), report, key)
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(encoded) + "\n" + indent + "]"

    sectors = [
        _encoded(str, [s.code for s in result.sectors], report, "code"),
        _encoded(str, [s.name for s in result.sectors], report, "name"),
    ]
    changes = {k: vector(k, v, "    ") for k, v in result.satellite_changes.items()}
    totals = {k: scalar(float, k, float(v)) for k, v in result.totals.items()}
    document = {
        "method": scalar(str, "method", result.method),
        "scenario": scalar(str, "scenario", result.scenario),
        "sectors": _encode_records(["code", "name"], sectors, "  "),
        "q": vector("q", result.q, "  "),
        "dx": vector("dx", result.dx, "  "),
        "satellite_changes": _encode_object(changes, "  "),
        "totals": _encode_object(totals, "  "),
        "pct_output": scalar(float, "pct_output", float(result.pct_output)),
        "blowup_applied": scalar(float, "blowup_applied", float(result.blowup_applied)),
    }
    return _encode_object(document) + "\n"


def validation_table(report: ValidationReport) -> ReportTable:
    """Each violation, then each warning as a ``warning`` row."""
    violations, warnings = report.violations, report.warnings

    def column(fmt, attr, warning_value):
        return fmt, [getattr(v, attr) for v in violations] + [warning_value] * len(warnings)

    return ReportTable("validation", {
        "kind": column("s", "kind", "warning"),
        "sector": column("s", "sector", ""),
        "expected": column("raw", "expected", 0.0),
        "actual": column("raw", "actual", 0.0),
        "rel_err": column("raw", "rel_err", 0.0),
        "message": ("s", [v.message for v in violations] + list(warnings)),
    })


def _ranked_table(name: str, sectors, values: list, value_format: str) -> ReportTable:
    """A ``sector_code,sector_name,value,rank`` table of sectors and their
    values, ranked first to last."""
    return ReportTable(name, {
        "sector_code": ("s", [s.code for s in sectors]),
        "sector_name": ("s", [s.name for s in sectors]),
        "value": (value_format, values),
        "rank": ("int", list(range(1, len(values) + 1))),
    })


def multiplier_table(model: LeontiefModel) -> ReportTable:
    """All output multipliers, ranked descending."""
    mults = output_multipliers(model)
    order = sector_order(mults, descending=True)
    sectors = [model.sectors[i] for i in order]
    return _ranked_table("multipliers", sectors, mults[order].tolist(), "coef")


def sector_profile_table(model: LeontiefModel, sector) -> ReportTable:
    """Output plus satellite multipliers for one sector, from one solve over
    the stacked coefficient rows (ones for output)."""
    j = model.sector_index(sector)
    code = model.sectors[j].code
    coeffs = model.satellite_coefficients
    stacked = np.column_stack([np.ones(model.table.n), *coeffs.values()])
    values = model.solve_t(stacked)[j]
    return ReportTable(f"sector_multipliers_{code}", {
        "multiplier": ("s", ["output", *coeffs]),
        "value": ("coef", values.tolist()),
    })


def recipe_tables(model: LeontiefModel, sector, top_k: int) -> list[ReportTable]:
    """Ranked input-recipe and downstream-importance views for one sector."""
    j = model.sector_index(sector)
    code = model.sectors[j].code
    return [
        _ranked_table(f"{view}_{code}", [s for s, _ in ranked], [v for _, v in ranked], "coef")
        for view, ranked in (("input_recipe", input_recipe(model, j, top_k)),
                             ("downstream", downstream_importance(model, j, top_k)))
    ]


def impact_table(result: ImpactResult) -> ReportTable:
    """Per-sector impact, most affected first, with a trailing TOTAL row."""
    order = sector_order(result.q)
    ranked = [result.sectors[i] for i in order]

    def column(fmt, vector, total):
        return fmt, np.asarray(vector, dtype=float)[order].tolist() + [float(total)]

    changes = {"output": result.dx}
    changes.update((k, result.satellite_changes[k]) for k in SATELLITE_KINDS
                   if k in result.satellite_changes)
    return ReportTable(f"impact_{result.method}", {
        "sector_code": ("s", [s.code for s in ranked] + ["TOTAL"]),
        "sector_name": ("s", [s.name for s in ranked] + [""]),
        "q": column("q", result.q, result.pct_output),
        **{f"{k}_change": column("million", v, result.totals[k]) for k, v in changes.items()},
    })


def comparison_table(comparison: ComparisonReport) -> ReportTable:
    """Aggregate metrics side by side: each method's value and a - b. The
    value columns take the method names, suffixed " (a)" and " (b)" when a
    name would repeat a column, as it does for two results of one method."""
    totals = (comparison.totals_a, comparison.totals_b, comparison.total_diffs)
    metrics = [
        (label, "{:.0f}", tuple(t[key] for t in totals))
        for key, label in _METRIC_LABELS
        if key in comparison.total_diffs
    ]
    pct = (comparison.pct_a * 100, comparison.pct_b * 100, comparison.pct_diff * 100)
    metrics.append(("change in output (%)", "{:.2f}", pct))
    # The cells are preformatted strings, so the numbers behind them are
    # checked here, as a float column is.
    for label, _, values in metrics:
        _checked(float, map(float, values), "comparison", label)
    a, b = comparison.method_a, comparison.method_b
    if len({"metric", a, b, "difference"}) < 4:
        a, b = f"{a} (a)", f"{b} (b)"
    columns = {"metric": ("s", [label for label, _, _ in metrics])}
    for i, key in enumerate((a, b, "difference")):
        columns[key] = ("s", [fmt.format(values[i]) for _, fmt, values in metrics])
    return ReportTable("comparison", columns)


def plotdata_table(result: ImpactResult, top_k: int = 10) -> ReportTable:
    """Most-affected sectors by normalized output change, for charting."""
    check_top_k(top_k)
    order = sector_order(result.q, k=top_k)
    sectors = [result.sectors[i] for i in order]
    values = np.asarray(result.q, dtype=float)[order].tolist()
    return _ranked_table(f"plotdata_top{top_k}", sectors, values, "q")


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
        sectors=tuple(Sector(code=s["code"], name=s["name"]) for s in entries),
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
    """Read a ``result_*.json`` report back. Invalid JSON, a key repeated in
    an object, a NaN or infinity, or an incomplete result raises ValueError
    naming the path; a syntax error also gives its line and column."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=unique_keys)
        return result_from_dict(payload)
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


def write_reports(tables, out_dir, formats=("csv", "json"), results=()) -> dict:
    """Write each table in the requested formats, each result as ``result_<method>.json``.

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
    for table in tables:
        if "csv" in formats:
            files.append((table.name, "csv", table._csv_file))
        if "json" in formats:
            files.append((table.name, "json", table._json_file))
    for result in results:
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
    columns = [_encoded(str, [e[k] for e in entries], "manifest", k) for k in keys]
    text = _encode_object({
        "files": _encode_records(keys, columns, "  "),
        "out_dir": _encoded(str, [manifest["out_dir"]], "manifest", "out_dir")[0],
    })
    (out_dir / "manifest.json").write_text(text + "\n", encoding="utf-8")
    return manifest
