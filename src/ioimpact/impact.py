"""Economy-wide impacts of a demand shock.

Every result here is a product with the Leontief inverse L = (I - A)^-1,
taken through the model's one factorization of I - A (LeontiefModel.solve);
no scenario factorizes or solves a matrix of its own, and L is never formed.
Each scenario costs O(n^2).

Inoperability propagates a final-demand change, dx = L df, normalizes it to
output, q = dx / x, and checks on every call that q satisfies the equivalent
fixed-point system q = A* q + f*. Since A* = D^-1 A D with D = diag(x), that
residual is ((I - A) dx - df) / x, an O(n^2) check of the factors against A.

Partial extraction scales the target sector k's deliveries per purchaser,
which changes only row k of A: A_bar = A - e_k d', where d = A[k, :] * alpha
with d_k = 0 (own use is part of the sector's recipe and is never
extracted). The Sherman-Morrison formula then gives the extracted output
from L, x_bar = y - L[:, k] (d . y) / (1 + d . L[:, k]) with y = L f_bar
(Miller & Blair, Input-Output Analysis, 2009, ch. 12). It needs only y and
the column L[:, k], which one two-column solve against [f_bar, e_k] returns
together.
With A >= 0 (which the model guarantees) and alpha in [0, 1] the
denominator is at least one, and the extracted economy is productive
whenever the original is.

Output changes translate into satellite changes through the coefficient
rows, and an aged-table correction can inflate the nominal figures without
touching the normalized ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InternalConsistencyError, NonProductiveEconomyError, StructuralError
from .leontief import FIXED_POINT_TOL, LeontiefModel, fixed_point_gap, sector_order
from .scenario import DemandDelta
from .table import Sector

TOP_OVERLAP_K = 10


@dataclass(frozen=True)
class ExtractionSpec:
    """A partial extraction of sector k's deliveries.

    alpha holds one intensity per purchasing sector; f_bar is the
    final-demand vector solved against. partial_extraction checks both, and
    k, against the model's sectors.
    """

    k: int
    alpha: np.ndarray
    f_bar: np.ndarray
    label: str = ""

    def __post_init__(self):
        for name in ("alpha", "f_bar"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not np.all((self.alpha >= 0) & (self.alpha <= 1)):
            raise ValueError("extraction intensities must lie in [0, 1]")


def make_extraction_spec(
    model: LeontiefModel,
    target,
    alpha: np.ndarray,
    f_bar: np.ndarray | None = None,
    label: str = "",
) -> ExtractionSpec:
    """The extraction of ``target`` from the model's economy, solved against
    f_bar, the table's f by default."""
    f_bar = model.f if f_bar is None else f_bar
    return ExtractionSpec(k=model.sector_index(target), alpha=alpha, f_bar=f_bar, label=label)


@dataclass(frozen=True)
class ImpactResult:
    """Per-sector and aggregate consequences of one shock run.

    q is the normalized output change dx/x with losses negative; dx and the
    satellite changes are nominal and carry any blowup applied; pct_output is
    the economy-wide output change relative to baseline output and is never
    rescaled by a blowup.
    """

    method: str  # "inoperability" | "extraction"
    scenario: str
    sectors: tuple[Sector, ...]
    q: np.ndarray
    dx: np.ndarray
    satellite_changes: dict[str, np.ndarray]
    totals: dict[str, float]
    pct_output: float
    blowup_applied: float = 1.0

    def __post_init__(self):
        for name in ("q", "dx"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(s.code for s in self.sectors)


def _assemble(model, method, scenario, dx) -> ImpactResult:
    q = dx / model.x
    changes = satellite_deltas(model, dx)
    totals = {"output": float(dx.sum())}
    totals.update((kind, float(change.sum())) for kind, change in changes.items())
    return ImpactResult(
        method=method,
        scenario=scenario,
        sectors=model.sectors,
        q=q,
        dx=dx,
        satellite_changes=changes,
        totals=totals,
        pct_output=float(dx.sum() / model.x.sum()),
    )


def inoperability(model: LeontiefModel, delta: DemandDelta) -> ImpactResult:
    """Propagate a final-demand change: dx = L df, q = dx / x.

    The fixed-point system q = A* q + f* must hold for the result to within
    FIXED_POINT_TOL on every call; a larger or non-finite residual signals a
    defect in the model math or a non-finite demand change, not a shock to
    report.
    """
    df = delta.delta
    dx = model.solve(df)
    gap = fixed_point_gap(model, dx, df)
    if not (gap <= FIXED_POINT_TOL):
        raise InternalConsistencyError(
            f"inoperability violates the fixed-point system by {gap:.3e}"
        )
    return _assemble(model, "inoperability", delta.scenario, dx)


def _solve_with_column(model: LeontiefModel, f_bar: np.ndarray, k: int):
    """y = L f_bar and the column L[:, k], from one two-column solve.
    Column-major, so each returned column is contiguous."""
    rhs = np.zeros((model.table.n, 2), order="F")
    rhs[:, 0] = f_bar
    rhs[k, 1] = 1.0
    sol = model.solve(rhs)
    return sol[:, 0], sol[:, 1]


def partial_extraction(model: LeontiefModel, spec: ExtractionSpec) -> ImpactResult:
    """Scale the target's deliveries per purchaser and solve for the new output.

    Row k of A becomes a_kj (1 - alpha_j) for j != k; the diagonal and the
    whole k-th column stay untouched. The new output x_bar solves
    (I - A_bar) x_bar = f_bar, obtained from L by the rank-one update.
    alpha and f_bar must hold one value per sector and k must be a sector
    position: nothing is broadcast.
    """
    k, n = spec.k, model.table.n
    for name, values in (("alpha", spec.alpha), ("f_bar", spec.f_bar)):
        if values.shape != (n,):
            raise ValueError(f"{name} has shape {values.shape}, not ({n},): one value per sector")
    if not 0 <= k < n:
        raise ValueError(f"extraction target k={k} is not a sector position of an n={n} model")
    d = model.A[k] * spec.alpha
    d[k] = 0.0
    y, l_k = _solve_with_column(model, spec.f_bar, k)
    denom = 1.0 + d @ l_k
    # At least one whenever A >= 0; anything else, NaN included, means the
    # coefficients are not those of a productive economy.
    if not (denom >= 1.0):
        raise NonProductiveEconomyError(
            f"the rank-one update denominator 1 + d . L[:, k] is {denom:.6g}, not at least "
            "one; the coefficients are not those of a productive economy"
        )
    x_bar = y - l_k * ((d @ y) / denom)
    dx = x_bar - model.x
    return _assemble(model, "extraction", spec.label, dx)


def satellite_deltas(model: LeontiefModel, dx: np.ndarray) -> dict[str, np.ndarray]:
    """Translate an output change into per-satellite changes, dh = h_c * dx,
    for every kind the model has coefficients for."""
    return {kind: coeff * dx for kind, coeff in model.satellite_coefficients.items()}


def check_blowup_factor(b: float) -> None:
    """ValueError unless the blowup factor ``b`` is finite and positive."""
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"blowup factor must be finite and positive, got {b}")


def apply_blowup(result: ImpactResult, b: float) -> ImpactResult:
    """Inflate every nominal figure by b; q and the percentage aggregate are
    exact regardless of table age and stay untouched. b must be finite and
    positive."""
    check_blowup_factor(b)
    return replace(
        result,
        dx=result.dx * b,
        satellite_changes={k: v * b for k, v in result.satellite_changes.items()},
        totals={k: v * b for k, v in result.totals.items()},
        blowup_applied=result.blowup_applied * b,
    )


def estimate_blowup_factor(fd_totals: dict, gdp_growth: dict) -> float:
    """Estimate the demand growth between the table year and the study year.

    Historical years give ratios (final-demand growth / GDP growth); the
    average ratio applied to the projection years' GDP growth compounds into
    the factor: b = prod_y (1 + avg_ratio * gdp_growth_y) over years after
    the last final-demand observation.
    """
    years = sorted(fd_totals)
    ratios = []
    for prev, year in zip(years, years[1:]):
        growth = gdp_growth.get(year)
        if growth is None or growth == 0:
            continue
        if fd_totals[prev] == 0:
            raise ValueError(f"final-demand total for {prev} is zero; its growth is undefined")
        fd_growth = fd_totals[year] / fd_totals[prev] - 1.0
        ratios.append(fd_growth / growth)
    if len(ratios) < 2:
        raise ValueError(
            f"need at least two historical final-demand/GDP ratio observations, got {len(ratios)}"
        )
    avg_ratio = math.fsum(ratios) / len(ratios)
    last_fd_year = years[-1]
    b = 1.0
    for year in sorted(gdp_growth):
        if year > last_fd_year:
            b *= 1.0 + avg_ratio * gdp_growth[year]
    return b


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side differences between two impact results."""

    scenario: str
    method_a: str
    method_b: str
    sectors: tuple[Sector, ...]
    dx_diff: np.ndarray = field(repr=False)
    totals_a: dict[str, float]
    totals_b: dict[str, float]
    total_diffs: dict[str, float]
    pct_a: float
    pct_b: float
    pct_diff: float
    top_overlap: tuple[str, ...]


def compare_methods(a: ImpactResult, b: ImpactResult) -> ComparisonReport:
    """Per-sector and aggregate differences (a minus b), plus the overlap of
    the two most-affected rankings. Requires identical sector sets."""
    if a.sectors is not b.sectors and a.codes != b.codes:
        raise StructuralError("impact results cover different sector sets")
    metrics = sorted(set(a.totals) & set(b.totals))
    total_diffs = {m: a.totals[m] - b.totals[m] for m in metrics}
    k = min(TOP_OVERLAP_K, len(a.sectors))

    def top(result):
        return [result.sectors[i].code for i in sector_order(result.q)[:k]]

    top_a = top(a)
    top_b = set(top(b))
    overlap = tuple(code for code in top_a if code in top_b)
    return ComparisonReport(
        scenario=a.scenario if a.scenario == b.scenario else f"{a.scenario} vs {b.scenario}",
        method_a=a.method,
        method_b=b.method,
        sectors=a.sectors,
        dx_diff=a.dx - b.dx,
        totals_a={m: a.totals[m] for m in metrics},
        totals_b={m: b.totals[m] for m in metrics},
        total_diffs=total_diffs,
        pct_a=a.pct_output,
        pct_b=b.pct_output,
        pct_diff=a.pct_output - b.pct_output,
        top_overlap=overlap,
    )
