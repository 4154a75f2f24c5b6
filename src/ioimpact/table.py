"""Validated in-memory representation of an industry-by-industry IO table.

An IOTable bundles the interindustry flow matrix with final demand, imports,
value added, satellite accounts, and gross output. Construction enforces the
structural layout; :func:`validate_table` checks the accounting identities
that make downstream coefficient math safe:

    row i:     x_i = sum_j Z_ij + sum_c f_ic
    column j:  x_j = sum_i Z_ij + imports_j + value_added_j

All monetary values are currency millions at basic prices; employment is a
headcount. Tables are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError

# Final-demand components, in canonical column order. The short codes are the
# column headers used by the CSV layout and the keys accepted in scenario files.
FD_COMPONENTS = (
    "household_consumption",
    "npish_consumption",
    "government_consumption",
    "gross_fixed_capital_formation",
    "inventory_changes",
    "exports",
)
FD_CODES = ("HH", "NPISH", "GOV", "GFCF", "INV", "EXP")
FD_CODE_TO_COMPONENT = dict(zip(FD_CODES, FD_COMPONENTS))

# Only inventory changes are legitimately negative in national accounts.
SIGNED_FD_COMPONENTS = frozenset({"inventory_changes"})

# Satellite kinds, in report order. Value added and gross fixed capital
# formation can always be reported: without an account they are read off the
# table's value-added row and final-demand column (see leontief.build_model).
SATELLITE_KINDS = (
    "value_added",
    "income",
    "employment",
    "gross_fixed_capital_formation",
)

# Identity tolerance defaults. Synthetic tables are exact up to float error;
# published national-accounts tables are rounded to whole millions.
SYNTHETIC_REL_TOL = 1e-6
INGESTED_REL_TOL = 5e-3


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Sector:
    """One industry sector: short code and full label. Its matrix position is
    its place in the table's ``sectors``."""

    code: str
    name: str


@dataclass(frozen=True)
class FinalDemandBlock:
    """Per-sector final-demand components as an n x 6 matrix.

    Columns follow :data:`FD_COMPONENTS`. Rows are sectors in table order.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim != 2 or values.shape[1] != len(FD_COMPONENTS):
            raise StructuralError(
                f"final-demand block must be n x {len(FD_COMPONENTS)}, got {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def component(self, name: str) -> np.ndarray:
        """Column for one component, addressed by full name or short code."""
        name = FD_CODE_TO_COMPONENT.get(name, name)
        try:
            col = FD_COMPONENTS.index(name)
        except ValueError:
            raise KeyError(f"unknown final-demand component {name!r}") from None
        return self.values[:, col]

    def totals(self) -> np.ndarray:
        """Total final demand per sector (row sums)."""
        return self.values.sum(axis=1)

    @classmethod
    def from_components(cls, n: int, **components) -> "FinalDemandBlock":
        """Build a block from named component vectors; missing ones are zero."""
        values = np.zeros((n, len(FD_COMPONENTS)))
        for name, vec in components.items():
            key = FD_CODE_TO_COMPONENT.get(name, name)
            if key not in FD_COMPONENTS:
                raise StructuralError(f"unknown final-demand component {name!r}")
            values[:, FD_COMPONENTS.index(key)] = np.asarray(vec, dtype=float)
        return cls(values)


@dataclass(frozen=True)
class SatelliteAccount:
    """Per-sector auxiliary vector translated through output changes.

    Monetary kinds are currency millions; employment is a headcount.
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in SATELLITE_KINDS:
            raise StructuralError(
                f"unknown satellite kind {self.kind!r}; expected one of {SATELLITE_KINDS}"
            )
        object.__setattr__(self, "values", _readonly(self.values))


@dataclass(frozen=True, eq=False)
class IOTable:
    """A complete, structurally checked IO table.

    Tables compare and hash by identity: a copy with the same content is
    another table. leontief.build_model keeps L = (I - A)^-1 for each
    live table object, so a table must not be changed in place.

    Fields
    ------
    sectors : ordered sectors; a sector's place here is its matrix position
    Z : n x n interindustry flows (seller row i -> buyer column j)
    final_demand : per-sector component block
    imports : per-sector imports row
    value_added : per-sector value-added row
    satellites : mapping kind -> SatelliteAccount
    x : per-sector total gross output
    total_uses : the table's own total-uses row, which validate_table checks
        against x, or None for a table without one
    """

    sectors: tuple[Sector, ...]
    Z: np.ndarray
    final_demand: FinalDemandBlock
    imports: np.ndarray
    value_added: np.ndarray
    satellites: dict[str, SatelliteAccount] = field(default_factory=dict)
    x: np.ndarray = None
    total_uses: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "Z", _readonly(self.Z))
        object.__setattr__(self, "imports", _readonly(self.imports))
        object.__setattr__(self, "value_added", _readonly(self.value_added))
        object.__setattr__(self, "x", _readonly(self.x))
        if self.total_uses is not None:
            object.__setattr__(self, "total_uses", _readonly(self.total_uses))
        object.__setattr__(self, "satellites", dict(self.satellites))
        check_structure(self)
        object.__setattr__(self, "_index", {s.code: i for i, s in enumerate(self.sectors)})
        object.__setattr__(self, "_f", _readonly(self.final_demand.totals()))

    @property
    def n(self) -> int:
        return len(self.sectors)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(s.code for s in self.sectors)

    @property
    def f(self) -> np.ndarray:
        """Total final demand per sector: the read-only row sums of the
        final-demand block, summed once when the table is built."""
        return self._f

    def sector_index(self, sector) -> int:
        """Matrix position of a sector given as a Sector, an index or a code.

        A Sector is found by its code, so one taken from another table, such
        as the table before drop_zero_sectors, names the same sector here.
        Raises KeyError for an unknown code, an index outside 0..n-1 or a
        bool, which is no index here.
        """
        if isinstance(sector, Sector):
            sector = sector.code
        elif isinstance(sector, (int, np.integer)) and not isinstance(sector, bool):
            if not 0 <= sector < self.n:
                raise KeyError(f"sector index {sector} out of range")
            return int(sector)
        try:
            return self._index[sector]
        except KeyError:
            raise KeyError(f"unknown sector code {sector!r}") from None


def check_structure(table: IOTable) -> None:
    """Raise StructuralError on any dimension or sector-code inconsistency."""
    n = len(table.sectors)
    if n == 0:
        raise StructuralError("table has no sectors")
    codes = [s.code for s in table.sectors]
    if len(set(codes)) != n:
        dupes = sorted({c for c in codes if codes.count(c) > 1})
        raise StructuralError(f"duplicate sector codes: {dupes}")
    if table.Z.shape != (n, n):
        raise StructuralError(f"Z must be {n}x{n}, got {table.Z.shape}")
    if table.final_demand.values.shape[0] != n:
        raise StructuralError(
            f"final-demand block has {table.final_demand.values.shape[0]} rows, expected {n}"
        )
    vectors = [("imports", table.imports), ("value_added", table.value_added), ("x", table.x)]
    if table.total_uses is not None:
        vectors.append(("total_uses", table.total_uses))
    for name, vec in vectors:
        if vec.shape != (n,):
            raise StructuralError(f"{name} must have length {n}, got {vec.shape}")
    for kind, sat in table.satellites.items():
        if sat.kind != kind:
            raise StructuralError(f"satellite stored under {kind!r} declares kind {sat.kind!r}")
        if sat.values.shape != (n,):
            raise StructuralError(
                f"satellite {kind!r} has length {sat.values.shape[0]}, expected {n}"
            )


@dataclass(frozen=True)
class Violation:
    """One accounting-identity or sign violation found by validation.

    ``rel_err`` is |expected - actual| / max(|x|, 1e-30) with x the gross
    output of ``sector``: for a negative flow Z_ij that is |Z_ij| / max(|x_i|,
    1e-30), the denominator the identity checks use, so it is always finite.
    A negative or zero gross output x_j is reported with expected 0, actual
    x_j and rel_err 1.
    """

    # row_identity | column_identity | total_uses | negative_flow | negative_output
    # | zero_output
    kind: str
    sector: str
    expected: float
    actual: float
    rel_err: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...]
    rel_tol: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"validation {'PASSED' if self.passed else 'FAILED'} (rel_tol={self.rel_tol:g})"]
        for v in self.violations:
            out.append(f"  violation [{v.kind}] {v.message}")
        for w in self.warnings:
            out.append(f"  warning: {w}")
        return out


def check_rel_tol(rel_tol: float) -> None:
    """ValueError unless the identity tolerance is positive and finite."""
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")


def validate_table(table: IOTable, rel_tol: float = SYNTHETIC_REL_TOL) -> ValidationReport:
    """Check the row and column accounting identities, the table's own
    total-uses row against x, and the signs of flows and outputs.

    Returns a report listing every violation with sector, expected, actual,
    and relative error. The report passes iff no identity violation exceeds
    ``rel_tol``, no interindustry flow is negative and no sector's gross
    output is negative or zero (the model needs x > 0, and drop_zero_sectors
    only removes a sector that holds nothing but zeros). The input table is
    never modified. Structural defects raise StructuralError instead of being
    reported.
    """
    check_rel_tol(rel_tol)
    check_structure(table)

    violations: list[Violation] = []
    warnings: list[str] = []
    codes = table.codes

    def violation(kind, at, expected, actual, rel_err, message):
        violations.append(Violation(kind=kind, sector=codes[at], expected=float(expected),
                                    actual=float(actual), rel_err=float(rel_err),
                                    message=message))

    denom = np.maximum(np.abs(table.x), 1e-30)
    for i, j in np.argwhere(table.Z < 0):
        violation("negative_flow", i, 0.0, table.Z[i, j], abs(table.Z[i, j]) / denom[i],
                  f"Z[{codes[i]},{codes[j]}] = {table.Z[i, j]:g} is negative")

    for j in np.flatnonzero(table.x < 0):
        violation("negative_output", j, 0.0, table.x[j], 1.0,
                  f"total output of {codes[j]} = {table.x[j]:g} is negative")

    for j in np.flatnonzero(table.x == 0):
        violation("zero_output", j, 0.0, 0.0, 1.0,
                  f"total output of {codes[j]} is zero; the model needs it positive, and "
                  "only a sector that holds nothing but zeros is dropped")

    row_sums = table.Z.sum(axis=1) + table.f
    col_sums = table.Z.sum(axis=0) + table.imports + table.value_added
    identities = [("row_identity", row_sums), ("column_identity", col_sums)]
    if table.total_uses is not None:
        identities.append(("total_uses", table.total_uses))
    for kind, actual in identities:
        rel_errs = np.abs(table.x - actual) / denom
        # Written so that a NaN error, from a NaN cell, is a violation.
        for j in np.flatnonzero(~(rel_errs <= rel_tol)):
            violation(kind, j, table.x[j], actual[j], rel_errs[j],
                      f"{kind.replace('_', ' ')} for {codes[j]}: expected {table.x[j]:g}, "
                      f"got {actual[j]:g} (rel err {rel_errs[j]:.4g})")

    for comp in FD_COMPONENTS:
        if comp in SIGNED_FD_COMPONENTS:
            continue
        col = table.final_demand.component(comp)
        for j in np.flatnonzero(col < 0):
            warnings.append(
                f"negative {comp} entry for sector {codes[j]}: {col[j]:g}"
            )

    income = table.satellites.get("income")
    if income is not None:
        slack = rel_tol * np.maximum(np.abs(table.value_added), 1.0)
        for j in np.flatnonzero(income.values > table.value_added + slack):
            warnings.append(
                f"income exceeds value added for sector {codes[j]}: "
                f"{income.values[j]:g} > {table.value_added[j]:g}"
            )

    employment = table.satellites.get("employment")
    if employment is not None:
        for j in np.flatnonzero(employment.values < 0):
            warnings.append(
                f"negative employment for sector {codes[j]}: {employment.values[j]:g}"
            )

    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings),
                            rel_tol=rel_tol)


def drop_zero_sectors(table: IOTable) -> tuple[IOTable, list[Sector]]:
    """Remove the empty sectors, keeping everything else in order: a sector is
    dropped only when its gross output and every other value it holds are
    zero (its Z row and column, final-demand row, imports, value added, total
    uses and satellite values), so that a drop loses nothing but zeros. A
    sector with x == 0 that holds anything else, NaN included, is kept for
    validate_table to report as zero_output, and a negative or NaN output is
    kept for it to report too.

    Pairwise flows among retained sectors are preserved exactly. Returns the
    reduced table and the dropped sectors.
    """
    keep = table.x != 0
    vectors = [table.imports, table.value_added, table.total_uses,
               *(sat.values for sat in table.satellites.values())]
    for j in np.flatnonzero(~keep):
        held = [table.Z[j], table.Z[:, j], table.final_demand.values[j],
                [v[j] for v in vectors if v is not None]]
        keep[j] = not (np.concatenate(held) == 0).all()  # NaN is not zero
    if keep.all():
        return table, []
    dropped = [s for s, k in zip(table.sectors, keep) if not k]
    idx = np.flatnonzero(keep)
    satellites = {
        kind: SatelliteAccount(kind=kind, values=sat.values[idx])
        for kind, sat in table.satellites.items()
    }
    reduced = IOTable(
        sectors=[table.sectors[i] for i in idx],
        Z=table.Z[np.ix_(idx, idx)],
        final_demand=FinalDemandBlock(table.final_demand.values[idx, :]),
        imports=table.imports[idx],
        value_added=table.value_added[idx],
        satellites=satellites,
        x=table.x[idx],
        total_uses=None if table.total_uses is None else table.total_uses[idx],
    )
    return reduced, dropped

