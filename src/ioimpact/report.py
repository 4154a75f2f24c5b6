"""Report assembly and deterministic serialization.

Reports are small named tables with per-column formatting rules: ranked
coefficient/multiplier tables keep five decimals, normalized output changes
six, and nominal currency figures are rounded to whole millions. Identical
inputs produce byte-identical files, and the returned manifest carries a
content digest per file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .impact import ComparisonReport, ImpactResult
from .leontief import (
    LeontiefModel,
    downstream_importance,
    input_recipe,
    output_multipliers,
    sector_order,
)
from .table import SATELLITE_KINDS, Sector, ValidationReport

# Column formats: s = string, coef = 5 decimals, q = 6 decimals,
# million = whole currency millions, pct = 2 decimals, int = integer.
_FORMATTERS = {
    "s": str,
    "coef": lambda v: f"{v:.5f}",
    "q": lambda v: f"{v:.6f}",
    "million": lambda v: f"{v:.0f}",
    "pct": lambda v: f"{v:.2f}",
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

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(
                ",".join(_FORMATTERS[fmt](value) for fmt, value in zip(self.formats, row))
            )
        return "\n".join(lines) + "\n"

    def json_payload(self) -> list[dict]:
        return [dict(zip(self.columns, map(_plain, row))) for row in self.rows]


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass
class ReportBundle:
    """Everything one pipeline run wants written to disk."""

    tables: list[ReportTable] = field(default_factory=list)
    documents: dict[str, dict] = field(default_factory=dict)  # name -> JSON-only payload

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
    sectors = model.sectors
    return ReportTable(
        name="multipliers",
        columns=("sector_code", "sector_name", "value", "rank"),
        formats=("s", "s", "coef", "int"),
        rows=tuple(
            (sectors[i].code, sectors[i].name, float(mults[i]), rank)
            for rank, i in enumerate(sector_order(mults, descending=True), start=1)
        ),
    )


def sector_profile_table(model: LeontiefModel, sector) -> ReportTable:
    """Output plus satellite multipliers for one sector, from one solve over
    the stacked coefficient rows (ones for output)."""
    j = model.sector_index(sector)
    code = model.sectors[j].code
    coeffs = model.coeffs.satellite_coefficients
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
    rows = []
    for i in sector_order(result.q):
        row = [result.sectors[i].code, result.sectors[i].name, float(result.q[i]), float(result.dx[i])]
        row += [float(result.satellite_changes[k][i]) for k in kinds]
        rows.append(tuple(row))
    total = ["TOTAL", "", float(result.pct_output), result.totals["output"]]
    total += [result.totals[k] for k in kinds]
    rows.append(tuple(total))
    return ReportTable(
        name=f"impact_{result.method}",
        columns=tuple(columns),
        formats=tuple(formats),
        rows=tuple(rows),
    )


def comparison_table(comparison: ComparisonReport) -> ReportTable:
    """Aggregate metrics side by side: each method's value and a - b."""
    rows = []
    for key, label in _METRIC_LABELS:
        if key not in comparison.total_diffs:
            continue
        rows.append(
            (
                label,
                f"{comparison.totals_a[key]:.0f}",
                f"{comparison.totals_b[key]:.0f}",
                f"{comparison.total_diffs[key]:.0f}",
            )
        )
    rows.append(
        (
            "change in output (%)",
            f"{comparison.pct_a * 100:.2f}",
            f"{comparison.pct_b * 100:.2f}",
            f"{comparison.pct_diff * 100:.2f}",
        )
    )
    return ReportTable(
        name="comparison",
        columns=("metric", comparison.method_a, comparison.method_b, "difference"),
        formats=("s", "s", "s", "s"),
        rows=tuple(rows),
    )


def plotdata_table(result: ImpactResult, top_k: int = 10) -> ReportTable:
    """Most-affected sectors by normalized output change, for charting."""
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


def result_to_dict(result: ImpactResult) -> dict:
    return {
        "method": result.method,
        "scenario": result.scenario,
        "sectors": [{"code": s.code, "name": s.name} for s in result.sectors],
        "q": [float(v) for v in result.q],
        "dx": [float(v) for v in result.dx],
        "satellite_changes": {
            k: [float(v) for v in vec] for k, vec in sorted(result.satellite_changes.items())
        },
        "totals": {k: float(v) for k, v in sorted(result.totals.items())},
        "pct_output": float(result.pct_output),
        "blowup_applied": float(result.blowup_applied),
    }


def result_from_dict(payload: dict) -> ImpactResult:
    sectors = tuple(
        Sector(code=s["code"], name=s["name"], index=i) for i, s in enumerate(payload["sectors"])
    )
    return ImpactResult(
        method=payload["method"],
        scenario=payload["scenario"],
        sectors=sectors,
        q=np.array(payload["q"]),
        dx=np.array(payload["dx"]),
        satellite_changes={k: np.array(v) for k, v in payload["satellite_changes"].items()},
        totals=dict(payload["totals"]),
        pct_output=payload["pct_output"],
        blowup_applied=payload.get("blowup_applied", 1.0),
    )


def load_impact_result(path) -> ImpactResult:
    return result_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def write_reports(bundle: ReportBundle, out_dir, formats=("csv", "json")) -> dict:
    """Write every report in the requested formats.

    Returns a manifest listing each file with its sha256 content digest;
    the manifest itself is written as ``manifest.json``. Re-running on
    identical inputs yields byte-identical files.
    """
    formats = tuple(formats)
    if not formats:
        raise ValueError("at least one output format is required")
    unknown = set(formats) - {"csv", "json"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []

    def emit(name: str, fmt: str, text: str):
        path = out_dir / f"{name}.{fmt}"
        data = text.encode("utf-8")
        path.write_bytes(data)
        entries.append(
            {
                "report": name,
                "format": fmt,
                "path": path.name,
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )

    for table in bundle.tables:
        if "csv" in formats:
            emit(table.name, "csv", table.csv_text())
        if "json" in formats:
            emit(table.name, "json", json.dumps(table.json_payload(), indent=2, sort_keys=True) + "\n")
    for name, payload in sorted(bundle.documents.items()):
        emit(name, "json", json.dumps(payload, indent=2, sort_keys=True) + "\n")

    entries.sort(key=lambda e: (e["report"], e["format"]))
    manifest = {"out_dir": str(out_dir), "files": entries}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
