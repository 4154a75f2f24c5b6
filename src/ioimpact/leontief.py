"""Technical coefficients, the Leontief inverse, and multiplier families.

Everything here is a pure function of a validated IOTable. L = (I - A)^-1 is
the program's only dense factorization: it is computed once per table, and
multipliers, rankings, reports and every per-scenario result in impact.py
are matrix-vector products on its rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonProductiveEconomyError
from .table import SATELLITE_KINDS, IOTable, Sector

# A productive economy must have a convergent production expansion. Column
# sums below one are sufficient; otherwise powers of A are examined by
# repeated squaring, with divergence declared once the norm passes this cap.
_DIVERGENCE_CAP = 1e6
_MAX_SQUARINGS = 40


@dataclass(frozen=True)
class TechnicalCoefficients:
    """Input requirements per unit of output, plus coefficient rows for
    imports, value added, and every satellite kind the table can report.

    A[i, j] = Z[i, j] / x[j]; all coefficient rows divide by the same x.
    satellite_coefficients holds its kinds in SATELLITE_KINDS order.
    """

    table: IOTable
    A: np.ndarray
    import_coefficients: np.ndarray
    value_added_coefficients: np.ndarray
    satellite_coefficients: dict[str, np.ndarray]


@dataclass(frozen=True)
class LeontiefModel:
    """A table bound to its coefficients and Leontief inverse L = (I-A)^-1."""

    table: IOTable
    coeffs: TechnicalCoefficients
    L: np.ndarray
    x: np.ndarray

    @property
    def sectors(self) -> tuple[Sector, ...]:
        return self.table.sectors

    @property
    def A(self) -> np.ndarray:
        return self.coeffs.A

    @property
    def f(self) -> np.ndarray:
        return self.table.f

    def sector_index(self, sector) -> int:
        return self.table.sector_index(sector)


def technical_coefficients(table: IOTable) -> TechnicalCoefficients:
    """Derive A and all coefficient rows from a validated table.

    Satellite kinds backed by an account use it. Two kinds are read off the
    table when no account was supplied: value added from the value-added
    row, gross fixed capital formation from its final-demand column. Every
    retained sector must have positive output; call drop_zero_sectors first
    if the source data contains empty sectors.
    """
    if np.any(table.x <= 0):
        bad = [table.codes[j] for j in np.flatnonzero(table.x <= 0)]
        raise ValueError(f"sectors with non-positive output: {bad}; drop them before modeling")
    x = table.x
    A = table.Z / x[np.newaxis, :]
    gfcf = "gross_fixed_capital_formation"
    sources = {
        "value_added": table.value_added,
        gfcf: table.final_demand.component(gfcf),
        **{kind: sat.values for kind, sat in table.satellites.items()},
    }
    return TechnicalCoefficients(
        table=table,
        A=A,
        import_coefficients=table.imports / x,
        value_added_coefficients=table.value_added / x,
        satellite_coefficients={k: sources[k] / x for k in SATELLITE_KINDS if k in sources},
    )


def check_productive(A: np.ndarray) -> None:
    """Raise NonProductiveEconomyError unless the expansion sum_k A^k converges.

    Column sums all below one prove convergence directly. Otherwise powers of
    A are squared repeatedly: a norm dropping below one proves convergence, a
    norm exceeding the divergence cap proves the opposite.
    """
    colsums = A.sum(axis=0)
    if np.all(colsums < 1.0):
        return
    power = A.copy()
    for _ in range(_MAX_SQUARINGS):
        norm = np.abs(power).sum(axis=1).max()
        if norm < 1.0:
            return
        if norm > _DIVERGENCE_CAP:
            raise NonProductiveEconomyError(
                f"coefficient powers diverge (norm {norm:.3g}); "
                f"max column sum is {colsums.max():.6g}"
            )
        power = power @ power
    raise NonProductiveEconomyError(
        f"coefficient powers do not shrink; max column sum is {colsums.max():.6g}"
    )


def leontief_inverse(coeffs: TechnicalCoefficients) -> LeontiefModel:
    """Build the model carrying L = (I - A)^-1.

    Raises NonProductiveEconomyError when the economy admits no convergent
    production expansion or (I - A) is singular.
    """
    A = coeffs.A
    check_productive(A)
    # I - A is built in place: no identity or intermediate n x n copy sits on
    # top of the resident data while the inverse allocates its own workspace.
    i_minus_a = np.negative(A)
    i_minus_a[np.diag_indices_from(i_minus_a)] += 1.0
    try:
        L = np.linalg.inv(i_minus_a)
    except np.linalg.LinAlgError as exc:
        raise NonProductiveEconomyError(f"(I - A) is singular: {exc}") from exc
    return LeontiefModel(table=coeffs.table, coeffs=coeffs, L=L, x=coeffs.table.x)


def build_model(table: IOTable) -> LeontiefModel:
    """Convenience composition: coefficients then inverse."""
    return leontief_inverse(technical_coefficients(table))


def output_multipliers(model: LeontiefModel) -> np.ndarray:
    """Column sums of L: total output gained per unit of final demand."""
    return model.L.sum(axis=0)


def satellite_multipliers(model: LeontiefModel, kind: str) -> np.ndarray:
    """Row product h'_c L for one satellite kind.

    Units: currency per currency for monetary satellites, jobs per
    currency-million for employment.
    """
    coeffs = model.coeffs.satellite_coefficients
    if kind not in coeffs:
        raise ValueError(f"no satellite account of kind {kind!r} in this table")
    return coeffs[kind] @ model.L


def sector_order(values, descending: bool = False) -> list[int]:
    """Sector positions ordered by value, ties (-0.0 against 0.0 included)
    broken by sector index: the ranking rule behind every ranked view.
    Python ints, which index faster than numpy integers, are returned."""
    values = np.asarray(values, dtype=float)
    return np.argsort(-values if descending else values, kind="stable").tolist()


def _ranked(model: LeontiefModel, values: np.ndarray, top_k: int) -> list[tuple[Sector, float]]:
    if top_k < 0:
        raise ValueError("top_k must be non-negative")
    # Descending order puts every positive value ahead of the rest.
    return [
        (model.sectors[i], float(values[i]))
        for i in sector_order(values, descending=True)[:top_k]
        if values[i] > 0
    ]


def input_recipe(model: LeontiefModel, sector, top_k: int) -> list[tuple[Sector, float]]:
    """Largest input coefficients of one sector (its column of A), ranked
    descending, ties broken by sector index. Own use is included."""
    j = model.sector_index(sector)
    return _ranked(model, model.A[:, j], top_k)


def downstream_importance(model: LeontiefModel, sector, top_k: int) -> list[tuple[Sector, float]]:
    """Sectors for which this sector's product is the largest input (its row
    of A), ranked as in input_recipe."""
    i = model.sector_index(sector)
    return _ranked(model, model.A[i, :], top_k)


def import_share(coeffs: TechnicalCoefficients, sector) -> float:
    """Imported inputs per unit of output for one sector."""
    return float(coeffs.import_coefficients[coeffs.table.sector_index(sector)])
