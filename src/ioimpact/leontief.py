"""The Leontief model of a table, and multiplier families.

Everything here is a pure function of a validated IOTable. The Leontief
inverse L = (I - A)^-1 is formed once per table, by block Gauss-Jordan
elimination of I - A in place, and every consumer asks for a product with
it: L v through LeontiefModel.solve, u'L through LeontiefModel.solve_t. A
product reads only the columns (or rows) of L that meet a row of the
right-hand side that is not zero, so it costs O(n r) for r such rows and
O(n^2) for a dense one. A scenario's shock is zero in all but a few
sectors, so its solve reads a few columns of L.

The elimination does not pivot. That is sound because, for a productive
A >= 0, I - A is a nonsingular M-matrix: every pivot block is a diagonal
block of a Schur complement of I - A, which is again a nonsingular
M-matrix, and elimination without pivoting is stable on it (Funderlic,
Neumann & Plemmons 1982; Miller & Blair, Input-Output Analysis, 2009,
ch. 2). check_coefficients therefore rejects an A with a negative or NaN
entry before anything is inverted, and certify_productive proves from L,
at the cost of one solve, that A is productive.

build_model is the one builder of a model, and never touches the disk. It
takes the L an earlier build stored, if any: it is served once it solves
(I - A) x = f, and I - A is inverted otherwise. Within a process it keeps
the L of the last model built from each live table, so a second build of
the same table object takes it through the same checks instead of
inverting again. It lives as long as the table, n^2 doubles of memory, and
is freed with it; a table must therefore not be changed in place. The CLI
gets its model from ingest.load_model, which hands build_model the L of
the table's cache entry and stores the one it computed. Every model handed
out, with a stored L or a fresh one, has passed check_coefficients and
certify_productive, and carries the output its L gives for the table's
final demand, x0 = L f: the baseline that impact measures output changes
from (Miller & Blair 2009, ch. 12).
"""

from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonProductiveEconomyError
from .table import SATELLITE_KINDS, IOTable, Sector

# Width of the pivot blocks of the inversion, and height of the row panels
# it updates. A table with at most this many sectors is one block, inverted
# by a single LAPACK inverse.
_BLOCK = 128

# Largest residual of the fixed-point system q = A* q + f* accepted for a
# solve with L, relative to max(1, max |q|) (see fixed_point_gap): of every
# inoperability result, and of x = L f for a stored L before it is served.
FIXED_POINT_TOL = 1e-9

# The L of the last model build_model returned for each live table, keyed
# by the table's identity. A value holds no reference to its table, so an
# entry dies with the table it belongs to.
_built: weakref.WeakKeyDictionary[IOTable, np.ndarray] = weakref.WeakKeyDictionary()


def _blocks(n: int) -> list[tuple[int, int]]:
    return [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]


def _product(M: np.ndarray, rhs) -> np.ndarray:
    """M @ rhs for M = L or L', reading only the columns of M that meet a row
    of rhs that is not zero (NaN and +-inf are not zero).

    The right-hand side is taken in row-major order, so every layout gives
    the same bytes, and an all-zero one gives +0.0. One with more than half
    of its rows not zero, f or a vector of ones say, is one product with the
    whole of M, so no copy of M is ever larger than half of it. The result
    is C-contiguous. ValueError names any other shape than a length-n
    vector or an n x k matrix before anything is multiplied.
    """
    v, n = np.asarray(rhs, dtype=float), len(M)
    if v.ndim not in (1, 2) or len(v) != n:
        raise ValueError(f"right-hand side has shape {v.shape}; a solve takes ({n},) or ({n}, k)")
    v = np.ascontiguousarray(v)
    rows = np.flatnonzero((v != 0).reshape(len(v), -1).any(axis=1))
    product = M @ v if 2 * len(rows) > len(v) else M[:, rows] @ v[rows]
    return np.ascontiguousarray(product)


@dataclass(frozen=True)
class LeontiefModel:
    """A table bound to its coefficients and its Leontief inverse.

    A[i, j] = Z[i, j] / x[j], the input requirements per unit of output; the
    coefficient rows for imports and for every satellite kind the table can
    report divide by the same x, satellite_coefficients in SATELLITE_KINDS
    order. L = (I - A)^-1 is read-only; solve and solve_t apply it, reading
    only what the right-hand side needs.

    x0 = L f, read-only, is the output L gives for the table's final
    demand. It differs from the table's x by the rounding of the product,
    and by as much as the table's identities are off; extraction measures
    its change from x0, so that a null scenario changes nothing.
    """

    table: IOTable
    A: np.ndarray
    import_coefficients: np.ndarray
    satellite_coefficients: dict[str, np.ndarray]
    L: np.ndarray
    x0: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """(I - A)^-1 rhs = L rhs for a length-n vector or an n x k matrix of
        any memory layout, and ValueError for any other shape: L[:, rows] @
        rhs[rows] over the rows of rhs that are not zero, O(n r k) for r such
        rows (see _product). The result is C-contiguous."""
        return _product(self.L, rhs)

    def solve_t(self, rhs) -> np.ndarray:
        """(I - A)^-T rhs = L' rhs for a length-n vector or an n x k matrix:
        for a vector u this is the row u'L, for a matrix one such row per
        column. The same rules as solve, on the rows of L."""
        return _product(self.L.T, rhs)

    @property
    def sectors(self) -> tuple[Sector, ...]:
        return self.table.sectors

    @property
    def f(self) -> np.ndarray:
        return self.table.f

    @property
    def x(self) -> np.ndarray:
        return self.table.x

    def sector_index(self, sector) -> int:
        return self.table.sector_index(sector)


def _invert(m: np.ndarray) -> None:
    """Overwrite m = I - A with its inverse by block Gauss-Jordan elimination.

    For each pivot block P = m[s:e, s:e]: scale the pivot row panel by P^-1,
    with P^-1 in the pivot columns, then eliminate the pivot columns C of
    every other row panel, above the pivot and below it, which leaves
    -C P^-1 in their place. One row panel is updated at a time, so no
    temporary is larger than _BLOCK x n. No pivoting; see the module
    docstring for why none is needed.
    """
    blocks = _blocks(len(m))
    for s, e in blocks:
        p_inv = np.linalg.inv(m[s:e, s:e])
        m[s:e] = p_inv @ m[s:e]
        m[s:e, s:e] = p_inv
        for i, j in blocks:
            if i != s:
                c = m[i:j, s:e].copy()
                m[i:j, s:e] = 0.0
                m[i:j] -= c @ m[s:e]


def check_coefficients(model: LeontiefModel) -> None:
    """The check A must pass before I - A is inverted or a stored L is used.

    Raises ValueError, naming the flow, when A has a negative or NaN entry:
    the inversion is sound only for A >= 0.
    """
    A = model.A
    if not (A.min(initial=0.0) >= 0):  # NaN fails this test too
        i, j = divmod(int(np.argmax(~(A >= 0))), A.shape[1])
        codes = model.table.codes
        raise ValueError(
            f"Z[{codes[i]}, {codes[j]}] is {float(model.table.Z[i, j])}; the Leontief "
            "inverse needs non-negative, non-NaN flows"
        )


def leontief_inverse(A: np.ndarray) -> np.ndarray:
    """The read-only Leontief inverse L = (I - A)^-1 that LeontiefModel
    holds, for an A that check_coefficients accepted. Raises
    NonProductiveEconomyError when a pivot block of I - A is singular."""
    # I - A is built without an identity matrix and inverted in place.
    L = np.negative(A)
    L[np.diag_indices_from(L)] += 1.0
    try:
        _invert(L)
    except np.linalg.LinAlgError as exc:
        raise NonProductiveEconomyError(f"(I - A) is singular: {exc}") from exc
    L.setflags(write=False)
    return L


def certify_productive(model: LeontiefModel) -> None:
    """Raise NonProductiveEconomyError unless L proves rho(A) < 1,
    so that sum_k A^k converges to (I - A)^-1.

    Collatz-Wielandt: for A >= 0, any x > 0 with A x <= c x and c < 1 proves
    rho(A) <= c, however x was computed. Here x = (I - A)^-1 1, one solve,
    which is L 1 >= 1 for a productive A, and c = 1 - 2 n eps: the margin
    covers the rounding of A x, whose entries are sums of n non-negative
    products. A productive A fails only once x passes about 1 / (2 n eps),
    where I - A is numerically singular. NaN fails every comparison.
    """
    n = model.table.n
    with np.errstate(all="ignore"):  # a non-finite x is reported, not warned about
        x = model.solve(np.ones(n))
        Ax = model.A @ x
        if not (x > 0).all():
            i = int(np.argmax(~(x > 0)))
            detail = f"(I - A)^-1 1 is {x[i]:.6g} at sector {model.table.codes[i]}"
        elif (Ax < (1.0 - 2 * n * np.finfo(float).eps) * x).all():
            return
        else:
            detail = f"max (A x)_i / x_i is {(Ax / x).max():.6g} for x = (I - A)^-1 1"
    raise NonProductiveEconomyError(
        f"no positive x with A x < x exists, so the expansion sum_k A^k diverges; {detail}"
    )


def fixed_point_gap(model: LeontiefModel, dx: np.ndarray, df: np.ndarray) -> float | np.ndarray:
    """Largest residual of the fixed-point system q = A* q + f* for a solution
    dx of (I - A) dx = df, max |((I - A) dx - df) / x|, divided by
    max(1, max |q|) with q = dx / x, since the rounding in it grows with the
    shock; NaN when anything in it is not finite. O(n^2), or one per column
    of n x S blocks dx, df."""
    gap = np.abs((dx - model.A @ dx - df).T / model.x).max(axis=-1)
    return gap / np.maximum(1.0, np.abs(dx.T / model.x).max(axis=-1))


def build_model(table: IOTable, L: np.ndarray | None = None) -> LeontiefModel:
    """The model of a validated table: A and the coefficient rows, accepted by
    check_coefficients, and an L = (I - A)^-1 that passes certify_productive.

    Satellite kinds backed by an account use it. Two kinds are read off the
    table when no account was supplied: value added from the value-added
    row, gross fixed capital formation from its final-demand column. Every
    sector must have finite positive output: drop_zero_sectors removes the
    empty ones, and validate_table reports a negative one; ValueError names
    every sector whose output is not a finite positive number.

    ``L`` is the inverse an earlier build of the same table stored. Without
    it, the L of the last model built from this table object in this
    process is taken, if any. Either is served as it is if it is a read-only
    float64 n x n array and x = L f solves (I - A) x = f to within
    FIXED_POINT_TOL; otherwise, a writable array that could change under the
    model included, or without one, leontief_inverse inverts I - A. The
    checks run in the same order either way, so a table fails alike with
    and without a stored L. x0 = L f is the solve of that check, or one more
    solve after an inversion. The L of the model returned is kept for the
    next build of the table until the table is freed: n^2 doubles, 8 MB at
    n = 1000. A table changed in place after a build is inverted again once
    its kept L fails the x = L f check; tables are not meant to be changed
    in place (f, for one, is summed once).
    """
    x = table.x
    finite = np.isfinite(x)
    usable = finite & (x > 0)  # False for NaN
    if not usable.all():
        bad = [table.codes[j] for j in np.flatnonzero(~usable)]
        if finite.all():
            raise ValueError(
                f"sectors with non-positive output: {bad}; the model needs every output to be "
                "positive (drop_zero_sectors removes zero-output sectors)"
            )
        raise ValueError(
            f"sectors with non-finite or non-positive output: {bad}; the model needs every "
            "output to be a finite positive number"
        )
    gfcf = "gross_fixed_capital_formation"
    sources = {
        "value_added": table.value_added,
        gfcf: table.final_demand.component(gfcf),
        **{kind: sat.values for kind, sat in table.satellites.items()},
    }
    if L is None:
        L = _built.get(table)
    model = LeontiefModel(
        table=table,
        A=table.Z / x[np.newaxis, :],
        import_coefficients=table.imports / x,
        satellite_coefficients={k: sources[k] / x for k in SATELLITE_KINDS if k in sources},
        L=L,
        x0=None,
    )
    check_coefficients(model)
    f = table.f
    servable = isinstance(L, np.ndarray) and not L.flags.writeable
    servable = servable and L.dtype == np.float64 and L.shape == (table.n, table.n)
    x0 = model.solve(f) if servable else None
    if x0 is None or not (fixed_point_gap(model, x0, f) <= FIXED_POINT_TOL):
        model = replace(model, L=leontief_inverse(model.A))
        x0 = model.solve(f)
    certify_productive(model)
    x0.setflags(write=False)
    _built[table] = model.L
    return replace(model, x0=x0)


def output_multipliers(model: LeontiefModel) -> np.ndarray:
    """Column sums of (I - A)^-1, the row 1'(I - A)^-1: total output gained
    per unit of final demand."""
    return model.solve_t(np.ones(model.table.n))


def satellite_multipliers(model: LeontiefModel, kind: str) -> np.ndarray:
    """Row product h'_c (I - A)^-1 for one satellite kind.

    Units: currency per currency for monetary satellites, jobs per
    currency-million for employment.
    """
    coeffs = model.satellite_coefficients
    if kind not in coeffs:
        raise ValueError(f"no satellite account of kind {kind!r} in this table")
    return model.solve_t(coeffs[kind])


def sector_order(values, descending: bool = False, k: int | None = None) -> list[int]:
    """Sector positions ordered by value, ties (-0.0 against 0.0 included)
    broken by sector index and NaN last: the ranking rule behind every ranked
    view. Python ints, which index faster than numpy integers, are returned.

    With a depth k the result is the full order's first k positions,
    sector_order(values, descending)[:k], found without sorting all n: the
    k-th smallest key is selected, and only the keys at or below it are
    sorted. They come first in the full order, so the two agree exactly. A
    k that is negative or no integer is refused as check_top_k refuses it.
    """
    values = np.asarray(values, dtype=float)
    keys = -values if descending else values
    if k is not None:
        check_top_k(k)
        if 0 < k < len(keys):
            cut = np.partition(keys, k - 1)[k - 1]
            if not np.isnan(cut):  # a NaN cut selects no key; sort them all
                head = np.flatnonzero(keys <= cut)
                return head[np.argsort(keys[head], kind="stable")[:k]].tolist()
    return np.argsort(keys, kind="stable").tolist()[:k]


def check_top_k(top_k: int) -> None:
    """ValueError unless ``top_k``, the depth of a ranked view, is a
    non-negative integer, Python or numpy, and not a bool."""
    if isinstance(top_k, bool) or not isinstance(top_k, numbers.Integral):
        raise ValueError(f"top_k must be an integer, got {top_k!r}")
    if top_k < 0:
        raise ValueError("top_k must be non-negative")


def _ranked(model: LeontiefModel, values: np.ndarray, top_k: int) -> list[tuple[Sector, float]]:
    check_top_k(top_k)
    # Descending order puts every positive value ahead of the rest.
    return [
        (model.sectors[i], float(values[i]))
        for i in sector_order(values, descending=True, k=top_k)
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


def import_share(model: LeontiefModel, sector) -> float:
    """Imported inputs per unit of output for one sector."""
    return float(model.import_coefficients[model.sector_index(sector)])
