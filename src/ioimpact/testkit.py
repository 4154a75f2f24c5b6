"""Independent oracles and generators backing the property tests.

The truncated-expansion oracle recomputes the Leontief inverse by a route
that shares no code with the solver; tests compare the model's own L,
model.L, with it and with numpy's inv and solve. The re-solve oracles
answer each impact question with a fresh dense solve of the modified
system, the slow routes that the rank-one update in impact.py replaces.
json_report_oracle is the json.dumps route that report.py's column-wise
encoder must match byte for byte: table_payload and result_to_dict build the
documents it encodes, the row objects of a report table and the payload of
``result_<method>.json``. csv_report_oracle is the cell-by-cell CSV
formatting that the column-wise CSV replaced.
rescale changes a table's currency unit for the homogeneity properties. The
economy generator produces seeded tables that are identity-consistent by
construction; canonical_e2 is the two-sector worked example used throughout
the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonProductiveEconomyError
from .impact import ImpactResult
from .leontief import LeontiefModel
from .scenario import DemandDelta
from .table import FinalDemandBlock, IOTable, SatelliteAccount, Sector

# Partial-sum norm above this is treated as divergence.
ORACLE_DIVERGENCE_CAP = 1e6

# The random economy's uniform draws: final demand per sector, employment
# headcount, income as a share of value added and imports as a share of the
# column residual.
FINAL_DEMAND_RANGE = (10.0, 100.0)
EMPLOYMENT_RANGE = (1.0, 50.0)
INCOME_SHARE_RANGE = (0.3, 0.7)
IMPORT_SHARE_RANGE = (0.1, 0.9)


def neumann_oracle(A: np.ndarray, K: int) -> np.ndarray:
    """Truncated power series sum_{k=0..K} A^k.

    For ||A|| < 1 the truncation error is bounded by ||A||^(K+1) / (1 - ||A||),
    decreasing monotonically in K. Divergence (growing partial-sum norm) is
    reported as a non-productive economy.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for _ in range(K):
        term = term @ A
        total += term
        if np.abs(term).max() > ORACLE_DIVERGENCE_CAP:
            raise NonProductiveEconomyError(
                "power-series terms grow without bound; economy is not productive"
            )
    return total


def interdependency_matrix(model: LeontiefModel) -> np.ndarray:
    """A* with entries a_ij * (x_j / x_i); equals A when outputs are equal."""
    x = model.x
    return model.A * (x[np.newaxis, :] / x[:, np.newaxis])


def demand_perturbation(delta: DemandDelta, x: np.ndarray) -> np.ndarray:
    """Demand change normalized to output, positive for a loss."""
    return -np.asarray(delta.delta, dtype=float) / x


def inoperability_oracle(model: LeontiefModel, delta: DemandDelta) -> np.ndarray:
    """Loss-positive inoperability from a dense solve of (I - A*) q = f*."""
    n = model.table.n
    return np.linalg.solve(
        np.eye(n) - interdependency_matrix(model), demand_perturbation(delta, model.x)
    )


def partial_extraction_oracle(model: LeontiefModel, delta: DemandDelta) -> np.ndarray:
    """The output change of a DemandDelta's extraction from two dense
    solves: x_bar from (I - A_bar) x_bar = f + df, where row k of A_bar is
    a_kj (1 - alpha_j) off the diagonal, minus the baseline L f from
    (I - A) x = f."""
    A = model.A
    k = model.sector_index(delta.target)
    a_bar = A.copy()
    scale = 1.0 - delta.alpha
    scale[k] = 1.0
    a_bar[k, :] = A[k, :] * scale
    eye = np.eye(A.shape[0])
    return np.linalg.solve(eye - a_bar, model.f + delta.delta) - np.linalg.solve(eye - A, model.f)


def table_payload(table) -> list[dict]:
    """A report table as the list of row objects its JSON file holds."""
    rows = zip(*(values for _, values in table.columns.values()))
    return [dict(zip(table.columns, row)) for row in rows]


def result_to_dict(result: ImpactResult) -> dict:
    """An impact result as the document its ``result_<method>.json`` holds."""
    return {
        "method": result.method,
        "scenario": result.scenario,
        "sectors": [{"code": s.code, "name": s.name} for s in result.sectors],
        "q": result.q.tolist(),
        "dx": result.dx.tolist(),
        "satellite_changes": {k: v.tolist() for k, v in sorted(result.satellite_changes.items())},
        "totals": dict(sorted(result.totals.items())),
        "pct_output": result.pct_output,
        "blowup_applied": result.blowup_applied,
    }


def json_report_oracle(obj) -> str:
    """JSON report text by way of ``json.dumps``; non-finite floats raise
    ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


_CSV_CELL = {
    "s": str,
    "coef": lambda v: f"{v:.5f}",
    "q": lambda v: f"{v:.6f}",
    "million": lambda v: f"{v:.0f}",
    "int": lambda v: f"{int(v)}",
    "raw": lambda v: repr(float(v)),
}


def _csv_quoted(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_report_oracle(table) -> str:
    """CSV report text formatted and quoted one cell at a time: a cell that
    holds a comma, a quote, CR or LF is quoted, with each quote doubled."""
    formats = [fmt for fmt, _ in table.columns.values()]
    lines = [",".join(map(_csv_quoted, table.columns))]
    for row in zip(*(values for _, values in table.columns.values())):
        lines.append(",".join(_csv_quoted(_CSV_CELL[fmt](v)) for fmt, v in zip(formats, row)))
    return "\n".join(lines) + "\n"


def rescale(table: IOTable, factor: float) -> IOTable:
    """Uniformly rescale all currency cells (unit change); employment is kept."""
    if not 0 < factor < np.inf:  # NaN fails this test too
        raise ValueError(f"rescale factor must be positive and finite, got {factor}")
    satellites = {}
    for kind, sat in table.satellites.items():
        vals = sat.values if kind == "employment" else sat.values * factor
        satellites[kind] = SatelliteAccount(kind=kind, values=vals)
    return replace(
        table,
        Z=table.Z * factor,
        final_demand=FinalDemandBlock(table.final_demand.values * factor),
        imports=table.imports * factor,
        value_added=table.value_added * factor,
        satellites=satellites,
        x=table.x * factor,
        total_uses=None if table.total_uses is None else table.total_uses * factor,
    )


@dataclass(frozen=True)
class EconomyGenSpec:
    """Parameters for the random-economy generator.

    max_column_sum < 1 bounds every column sum of A, which guarantees a
    convergent production expansion.
    """

    n: int
    seed: int
    max_column_sum: float = 0.8

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 < self.max_column_sum < 1:
            raise ValueError("max_column_sum must lie in (0, 1)")


def random_economy(spec: EconomyGenSpec) -> IOTable:
    """Deterministic-per-seed productive economy.

    A is drawn with column sums at most max_column_sum, final demand is drawn
    positive, and x solves the balance x = Ax + f, so both accounting
    identities hold to solver precision. Final demand is split across
    household consumption, government consumption, and exports; the column
    residual is split between imports and value added.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    raw = rng.random((n, n)) + 1e-3
    target = rng.uniform(0.2, 1.0, n) * spec.max_column_sum
    A = raw / raw.sum(axis=0) * target

    f = rng.uniform(*FINAL_DEMAND_RANGE, n)
    x = np.linalg.solve(np.eye(n) - A, f)
    Z = A * x[np.newaxis, :]

    shares = rng.dirichlet(np.ones(3), n)  # household, government, exports
    fd = FinalDemandBlock.from_components(
        n,
        household_consumption=f * shares[:, 0],
        government_consumption=f * shares[:, 1],
        exports=f * shares[:, 2],
    )

    residual = x - Z.sum(axis=0)
    imports = residual * rng.uniform(*IMPORT_SHARE_RANGE, n)
    value_added = residual - imports
    income = value_added * rng.uniform(*INCOME_SHARE_RANGE, n)
    employment = rng.uniform(*EMPLOYMENT_RANGE, n)

    sectors = tuple(Sector(code=f"S{i + 1}", name=f"Sector {i + 1}") for i in range(n))
    return IOTable(
        sectors=sectors,
        Z=Z,
        final_demand=fd,
        imports=imports,
        value_added=value_added,
        satellites={
            "income": SatelliteAccount("income", income),
            "employment": SatelliteAccount("employment", employment),
        },
        x=x,
    )


def canonical_e2() -> IOTable:
    """The two-sector desk economy used across the test suite.

    Z = [[50, 20], [30, 40]], household demand [30, 30], x = [100, 100],
    employment [10, 20], income [20, 25], value added [30, 40]; imports
    absorb the column residual. Derived: A = [[0.5, 0.2], [0.3, 0.4]],
    L = [[2.5, 0.8333...], [1.25, 2.0833...]].
    """
    Z = np.array([[50.0, 20.0], [30.0, 40.0]])
    x = np.array([100.0, 100.0])
    value_added = np.array([30.0, 40.0])
    imports = x - Z.sum(axis=0) - value_added
    sectors = (Sector("S1", "Sector 1"), Sector("S2", "Sector 2"))
    return IOTable(
        sectors=sectors,
        Z=Z,
        final_demand=FinalDemandBlock.from_components(
            2, household_consumption=np.array([30.0, 30.0])
        ),
        imports=imports,
        value_added=value_added,
        satellites={
            "income": SatelliteAccount("income", np.array([20.0, 25.0])),
            "employment": SatelliteAccount("employment", np.array([10.0, 20.0])),
        },
        x=x,
    )
