"""Economy-wide impacts of demand shocks.

Every result here is a product with the model's Leontief inverse
L = (I - A)^-1, formed once per table (LeontiefModel.solve). Both methods
start from the propagated shock u = L df, and scenario_impacts is their one
route: one solve against the row-major n x S block [df_1 ... df_S] serves
every shock of a run. The solve reads only the columns of L at the rows
the block touches, so a shock to r sectors costs O(n r); an extraction
reads its target's column L[:, k] straight from the inverse. Each scenario
then costs O(n) per method. inoperability and partial_extraction are its
one-shock, one-method case.

Inoperability is dx = u, normalized to output, q = dx / x. One product with
A checks every inoperability column against the equivalent fixed-point
system q = A* q + f*: since A* = D^-1 A D with D = diag(x), its residual is
((I - A) dx - df) / x.

Partial extraction scales the target sector k's deliveries per purchaser
by the DemandDelta's intensities alpha, which the shock checked in [0, 1]
when it was built. This changes only row k of A:
A_bar = A - e_k d', where d = A[k, :] * alpha with d_k = 0 (own use is part
of the sector's recipe and is never extracted). By the Sherman-Morrison
formula (Miller & Blair, Input-Output Analysis, 2009, ch. 12), the change
from the model's own output x0 = L f, the hypothetical-extraction baseline,
not the table's x, is dx = u - L[:, k] (d . (x0 + u)) / (1 + d . L[:, k]). No two output-sized
vectors are subtracted, so a null scenario (df = 0, alpha = 0) gives dx = 0
exactly and a small change keeps its precision. With A >= 0 and alpha in
[0, 1] the denominator is at least one, and the extracted economy is
productive whenever the original is.

Output changes translate into satellite changes through the coefficient
rows, and a blowup (an aged-table correction) inflates the nominal figures,
not the normalized ones. A result is checked once, when ImpactResult is
built: it holds one read-only block of finite figures.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import InternalConsistencyError, NonProductiveEconomyError, StructuralError
from .leontief import FIXED_POINT_TOL, LeontiefModel, fixed_point_gap, sector_order
from .scenario import DemandDelta
from .table import Sector, _readonly

TOP_OVERLAP_K = 10

METHODS = ("inoperability", "extraction")
_SELECTIONS = (METHODS, METHODS[::-1], METHODS[:1], METHODS[1:])


def make_extraction_spec(
    model: LeontiefModel,
    target,
    alpha: np.ndarray,
    f_bar: np.ndarray | None = None,
    label: str = "",
) -> DemandDelta:
    """The extraction of ``target`` from the model's economy, solved against
    f_bar (the table's f by default), as the DemandDelta shock that
    scenario_impacts takes, with df = f_bar - f and the intensities alpha.
    An unknown target raises KeyError; an f_bar that is not one finite value
    per sector raises ValueError, and so does an alpha that DemandDelta
    refuses (not one value per sector, or outside [0, 1])."""
    k = model.sector_index(target)
    f_bar = model.f if f_bar is None else _per_sector(model, "f_bar", f_bar)
    return DemandDelta(label, model.sectors[k].code, f_bar - model.f, alpha=alpha)


@dataclass(frozen=True)
class ImpactResult:
    """Per-sector and aggregate consequences of one shock run.

    q is the normalized output change dx/x with losses negative; dx and the
    satellite changes are nominal and carry any blowup applied; pct_output is
    the economy-wide output change relative to baseline output and is never
    rescaled by a blowup.

    Building a result is its one check: q, dx and the satellite changes
    become rows of one read-only float64 block, and the mappings read-only.
    ValueError names the shapes of vectors without one value per sector, or
    the scenario, and any blowup applied, of a NaN or infinite figure.
    """

    method: str  # "inoperability" | "extraction"
    scenario: str
    sectors: tuple[Sector, ...]
    q: np.ndarray
    dx: np.ndarray
    satellite_changes: Mapping[str, np.ndarray]
    totals: Mapping[str, float]
    pct_output: float
    blowup_applied: float = 1.0

    def __post_init__(self):
        rows = [self.q, self.dx, *self.satellite_changes.values()]
        shapes = dict(zip(["q", "dx", *self.satellite_changes], map(np.shape, rows)))
        if set(shapes.values()) != {(len(self.sectors),)}:
            raise ValueError(f"scenario {self.scenario!r}: vectors of shapes {shapes} for "
                             f"{len(self.sectors)} sectors; each needs one value per sector")
        block = np.array(rows, dtype=float)
        block.setflags(write=False)
        totals = {kind: float(total) for kind, total in self.totals.items()}
        pct, b = float(self.pct_output), float(self.blowup_applied)
        if not (np.isfinite(block).all() and all(map(math.isfinite, [*totals.values(), pct, b]))):
            what = "the impact" if b == 1 else f"the impact times the blowup factor {b:g}"
            raise ValueError(f"scenario {self.scenario!r}: {what} overflows float64")
        changes = MappingProxyType(dict(zip(self.satellite_changes, block[2:])))
        for name, value in {"q": block[0], "dx": block[1], "satellite_changes": changes,
                            "totals": MappingProxyType(totals), "pct_output": pct,
                            "blowup_applied": b}.items():
            object.__setattr__(self, name, value)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(s.code for s in self.sectors)


def _assemble(model, method, scenario, dx) -> ImpactResult:
    changes = satellite_deltas(model, dx)
    totals = {"output": dx.sum(), **{kind: change.sum() for kind, change in changes.items()}}
    return ImpactResult(method, scenario, model.sectors, q=dx / model.x, dx=dx,
                        satellite_changes=changes, totals=totals,
                        pct_output=totals["output"] / model.x.sum())


def _per_sector(model: LeontiefModel, name: str, values) -> np.ndarray:
    """``values`` as a float array, or ValueError unless it holds one finite
    value per sector: it names a wrong shape, or the first sector where
    ``values`` is NaN or infinite. Nothing is broadcast."""
    values, n = np.asarray(values, dtype=float), model.table.n
    if values.shape != (n,):
        raise ValueError(f"{name} has shape {values.shape}, not ({n},): one value per sector")
    if not np.isfinite(values).all():
        j = int(np.argmax(~np.isfinite(values)))
        code = model.table.codes[j]
        raise ValueError(f"{name} is {values[j]} at sector {code}; it must be finite")
    return values


def scenario_impacts(model: LeontiefModel, shocks, methods=METHODS) -> list[list[ImpactResult]]:
    """For each DemandDelta of ``shocks``, one ImpactResult per method in
    ``methods`` order, a non-empty selection of METHODS.

    Extraction targets delta.target with the intensities delta.alpha, which
    the DemandDelta checked when it was built; only what ``methods`` selects
    is computed and checked. Before anything is solved, a df that is not one
    finite value per sector raises ValueError and an unknown target KeyError. A
    shock whose L df overflows float64, or a figure built from it (refused
    by ImpactResult), raises ValueError naming its scenario. Any other
    inoperability residual above FIXED_POINT_TOL relative to max(1, max |q|)
    (leontief.fixed_point_gap), or NaN, is a defect of the model math:
    InternalConsistencyError names the scenario with the largest. A
    rank-one denominator below one, or NaN, raises NonProductiveEconomyError.
    """
    if not (isinstance(methods, (tuple, list)) and tuple(methods) in _SELECTIONS):
        raise ValueError(f"methods must be a non-empty selection of {METHODS}, got {methods!r}")
    deltas, targets = list(shocks), []
    for delta in deltas:
        _per_sector(model, "the demand change", delta.delta)
        if "extraction" in methods:
            targets.append(model.sector_index(delta.target))
    # One row-major n x S right-hand side, one df per column.
    rhs = np.zeros((model.table.n, len(deltas)))
    for s, delta in enumerate(deltas):
        rhs[:, s] = delta.delta
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        u = model.solve(rhs)
    for s in np.flatnonzero(~np.isfinite(u).all(axis=0)):
        # With finite columns of L at the rows df touches, L df overflowed.
        if np.isfinite(model.L[:, rhs[:, s] != 0]).all():
            scenario = deltas[s].scenario
            raise ValueError(f"scenario {scenario!r}: the output change L df overflows float64")
    if "inoperability" in methods:
        gaps = fixed_point_gap(model, u, rhs)
        if not (gaps <= FIXED_POINT_TOL).all():  # NaN fails this test too
            worst = int(np.argmax(gaps))  # the first NaN, if there is one
            raise InternalConsistencyError(
                f"inoperability violates the fixed-point system by {gaps[worst]:.3e} "
                f"in scenario {deltas[worst].scenario!r}"
            )
    results = []
    with np.errstate(over="ignore", invalid="ignore"):  # ImpactResult refuses an overflow
        for s, delta in enumerate(deltas):
            dx = {"inoperability": u[:, s]}
            if "extraction" in methods:
                k = targets[s]
                d = model.A[k] * delta.alpha
                d[k] = 0.0
                denom = 1.0 + d @ model.L[:, k]
                if not (denom >= 1.0):
                    raise NonProductiveEconomyError(
                        f"the rank-one update denominator 1 + d . L[:, k] is {denom:.6g}, not "
                        "at least one; the coefficients are not those of a productive economy"
                    )
                dx["extraction"] = u[:, s] - model.L[:, k] * ((d @ (model.x0 + u[:, s])) / denom)
            results.append([_assemble(model, m, delta.scenario, dx[m]) for m in methods])
    return results


def inoperability(model: LeontiefModel, delta: DemandDelta) -> ImpactResult:
    """The one-shock inoperability case of scenario_impacts: dx = L df, q = dx / x."""
    return scenario_impacts(model, [delta], ("inoperability",))[0][0]


def partial_extraction(model: LeontiefModel, shock: DemandDelta) -> ImpactResult:
    """The one-shock extraction case of scenario_impacts: row k of A becomes
    a_kj (1 - alpha_j) for j != k, alpha being the shock's intensities."""
    return scenario_impacts(model, [shock], ("extraction",))[0][0]


def satellite_deltas(model: LeontiefModel, dx: np.ndarray) -> dict[str, np.ndarray]:
    """Translate an output change into per-satellite changes, dh = h_c * dx,
    for every kind the model has coefficients for."""
    return {kind: coeff * dx for kind, coeff in model.satellite_coefficients.items()}


def check_blowup_factor(b: float) -> None:
    """ValueError unless the blowup factor ``b`` is a finite positive real
    number, not a bool or a string: ScenarioSpec's rule for blowup_factor."""
    if isinstance(b, bool) or not isinstance(b, numbers.Real):
        raise ValueError(f"blowup factor must be a number, got {b!r}")
    if not 0 < b <= sys.float_info.max:  # NaN, inf and an int past the float range fail
        raise ValueError(f"blowup factor must be finite and positive, got {b}")


def apply_blowup(result: ImpactResult, b: float) -> ImpactResult:
    """Inflate every nominal figure by b; q and the percentage aggregate are
    exact regardless of table age and stay untouched. b must be finite and
    positive; a figure it inflates past float64 is refused as the new
    result is built, by a ValueError naming the scenario and the factor."""
    check_blowup_factor(b)
    b = float(b)  # a Fraction would leave object-dtype arrays
    with np.errstate(over="ignore"):  # ImpactResult refuses an overflow
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

    ValueError names the year of a NaN or infinite total or growth, and
    refuses a factor that is not finite and positive.
    """
    for name, series in (("final-demand total", fd_totals), ("GDP growth", gdp_growth)):
        for year, value in series.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} for {year} is {value}; it must be finite")
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
    check_blowup_factor(b)
    return b


@dataclass(frozen=True)
class ComparisonReport:
    """Differences between two impact results over one sector set, a minus
    b: dx_diff per sector, total_diffs for each total both results carry,
    and pct_diff of their pct_output. top_overlap lists the codes among a's
    most-affected sectors (by q, at most TOP_OVERLAP_K) that are also among
    b's, in a's order. Each result's own figures, its method, totals and
    pct_output, are read from ``a`` and ``b``. dx_diff is a read-only copy
    and total_diffs a read-only mapping. Building a comparison checks its
    differences: ValueError names both results' scenario and method when
    one is NaN or infinite, as a - b of two finite figures can be."""

    a: ImpactResult = field(repr=False)
    b: ImpactResult = field(repr=False)
    dx_diff: np.ndarray = field(repr=False)
    total_diffs: Mapping[str, float]
    pct_diff: float
    top_overlap: tuple[str, ...]

    def __post_init__(self):
        dx_diff, total_diffs = _readonly(self.dx_diff), dict(self.total_diffs)
        if not (np.isfinite(dx_diff).all()
                and all(map(math.isfinite, [*total_diffs.values(), self.pct_diff]))):
            a, b = self.a, self.b
            raise ValueError(f"comparing scenario {a.scenario!r} ({a.method}) with scenario "
                             f"{b.scenario!r} ({b.method}): a difference overflows float64")
        object.__setattr__(self, "dx_diff", dx_diff)
        object.__setattr__(self, "total_diffs", MappingProxyType(total_diffs))


def compare_methods(a: ImpactResult, b: ImpactResult) -> ComparisonReport:
    """Per-sector and aggregate differences (a minus b), plus the overlap of
    the two most-affected rankings. Requires identical sector sets."""
    if a.sectors is not b.sectors and a.codes != b.codes:
        raise StructuralError("impact results cover different sector sets")
    metrics = sorted(set(a.totals) & set(b.totals))
    k = min(TOP_OVERLAP_K, len(a.sectors))

    def top(result):
        return [result.sectors[i].code for i in sector_order(result.q, k=k)]

    top_b = set(top(b))
    with np.errstate(over="ignore"):  # ComparisonReport refuses an overflow
        dx_diff = a.dx - b.dx
    return ComparisonReport(
        a=a,
        b=b,
        dx_diff=dx_diff,
        total_diffs={m: a.totals[m] - b.totals[m] for m in metrics},
        pct_diff=a.pct_output - b.pct_output,
        top_overlap=tuple(code for code in top(a) if code in top_b),
    )
