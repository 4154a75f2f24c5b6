"""The factorized Leontief model of a table, and multiplier families.

Everything here is a pure function of a validated IOTable. The Leontief
inverse L = (I - A)^-1 is never formed. Instead I - A is factorized once per
table into block LDU factors, and every consumer asks for a product with L:
L v through LeontiefModel.solve, u'L through LeontiefModel.solve_t. Each
product costs O(n^2) per right-hand side, the cost of a product with a dense L:
a solve reads each of the n^2 factors once, one row-panel product per block
and sweep, and skips the leading rows of a right-hand side that are zero. A
scenario's shock is zero in all but a few sectors, so its forward sweep
starts at the first of them.

The factorization eliminates without pivoting. That is sound because, for a
productive A >= 0, I - A is a nonsingular M-matrix: every leading principal
submatrix and every Schur complement met during elimination is again a
nonsingular M-matrix, and elimination without pivoting is stable on it
(Funderlic, Neumann & Plemmons 1982; Miller & Blair, Input-Output Analysis,
2009, ch. 2). check_coefficients therefore rejects an A with a negative or NaN
entry before anything is factorized, and certify_productive proves from the
factors, at the cost of one solve, that A is productive.

build_model is the one builder of a model, and never touches the disk. It
takes the factors an earlier build stored, if any: they are served once they
solve (I - A) x = f, and I - A is factorized otherwise. Within a process it
keeps the factors of the last model built from each live table, so a second
build of the same table object takes them through the same checks instead of
factorizing again. They live as long as the table, n^2 doubles of memory, and
are freed with it; a table must therefore not be changed in place. The CLI
gets its model from ingest.load_model, which hands build_model the factors of
the table's cache entry and stores the ones it computed. Every model handed
out, with stored factors or fresh ones, has passed check_coefficients and
certify_productive, and carries the output its factors give for the table's
final demand, x0 = L f: the baseline that impact measures output changes
from (Miller & Blair 2009, ch. 12).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonProductiveEconomyError
from .table import SATELLITE_KINDS, IOTable, Sector

# Width of the diagonal blocks of the factorization. A table with at most
# this many sectors is one block, factorized by a single LAPACK inverse.
_BLOCK = 128

# The forward sweep of a solve starts at a multiple of this many rows. BLAS
# kernels sum a dot product in interleaved partial sums, and which partial
# sum a term joins depends on its offset from the start of the product: the
# skip of leading zero rows is bit-exact only when it keeps that offset
# modulo the kernel's grouping. With OpenBLAS 0.3.31 on an AVX-512 host,
# starts at multiples of 16 rows were bit-exact on every solve tried at
# n = 300, 1000 and 1500, and multiples of 8 were not.
_ALIGN = 16

# Largest residual of the fixed-point system q = A* q + f* accepted for a
# solve with the factors: of every inoperability result, and of x = L f for
# stored factors before they are served.
FIXED_POINT_TOL = 1e-9

# The factors of the last model build_model returned for each live table,
# keyed by the table's identity. A value holds no reference to its table, so
# an entry dies with the table it belongs to.
_built: weakref.WeakKeyDictionary[IOTable, np.ndarray] = weakref.WeakKeyDictionary()


def _blocks(n: int) -> list[tuple[int, int]]:
    return [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]


def _sweeps(M: np.ndarray, rhs) -> np.ndarray:
    """(I - A)^-1 rhs from the factors M that LeontiefModel holds, or
    (I - A)^-T rhs from their transpose.

    The right-hand side is copied into row-major order, the layout in which
    the block products run fastest. Each sweep makes one row-panel product
    per block, so a solve reads each factor once. The forward sweep through
    the unit lower factor is left-looking, v[s:e] += M[s:e, first:s] @
    v[first:s], and starts at ``first``: the first row of rhs with an entry
    that is not zero (NaN included), rounded down to a multiple of _ALIGN.
    The rows above it stay exact zeros and the factors are finite, so
    skipping them changes no bit. The backward sweep gives each block row
    from the rows below it, v[s:e] = M[s:e, s:] @ v[s:], with D_j^-1 on the
    diagonal and -U right of it.
    """
    v = np.array(rhs, dtype=float, order="C")
    nonzero = v.reshape(-1) != 0
    first = int(nonzero.argmax()) * len(v) // v.size if v.size else 0
    first -= first % _ALIGN
    blocks = _blocks(len(M))
    for s, e in blocks:
        if s > first:
            v[s:e] += M[s:e, first:s] @ v[first:s]
    for s, e in reversed(blocks):
        v[s:e] = M[s:e, s:] @ v[s:]
    return v


@dataclass(frozen=True)
class LeontiefModel:
    """A table bound to its coefficients and the block LDU factors of I - A.

    A[i, j] = Z[i, j] / x[j], the input requirements per unit of output; the
    coefficient rows for imports and for every satellite kind the table can
    report divide by the same x, satellite_coefficients in SATELLITE_KINDS
    order. With the sectors cut into _BLOCK-wide diagonal blocks,
    I - A = L D U, where L is unit block lower triangular, D block diagonal
    and U unit block upper triangular. factors holds all three in one
    read-only n x n array: the blocks of -L below the diagonal, the inverse
    of each D_j on it, and the blocks of -U = -D^-1 (D U) above it. So each
    block row of the backward sweep through D U is one product with the
    row panel factors[s:e, s:]. The Leontief inverse is applied through
    solve and solve_t, never formed.

    x0 = L f, read-only, is the output the factors give for the table's
    final demand. It differs from the table's x by the rounding of the
    solve, and by as much as the table's identities are off; extraction
    measures its change from x0, so that a null scenario changes nothing.
    """

    table: IOTable
    A: np.ndarray
    import_coefficients: np.ndarray
    satellite_coefficients: dict[str, np.ndarray]
    factors: np.ndarray
    x0: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """(I - A)^-1 rhs for a vector or an n x k matrix of any memory
        layout: a forward sweep through L, then a backward sweep through D U
        (see _sweeps). The result is C-contiguous."""
        return _sweeps(self.factors, rhs)

    def solve_t(self, rhs) -> np.ndarray:
        """(I - A)^-T rhs for a vector or an n x k matrix: for a vector u this
        is the row u'(I - A)^-1, for a matrix one such row per column. The
        same sweeps as solve, on the transposed factors: through U', then
        through D' L'."""
        return _sweeps(self.factors.T, rhs)

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


def _factorize(m: np.ndarray) -> None:
    """Overwrite m = I - A with the block LDU factors LeontiefModel holds.

    For each diagonal block D_j: invert it, turn the block column below it
    into -L (the columns of L, negated) and subtract the Schur update from
    the trailing submatrix, then turn the block row right of it into
    -U = -D_j^-1 (D U). No pivoting; see the module docstring for why none
    is needed.
    """
    n = len(m)
    for s, e in _blocks(n):
        d_inv = np.linalg.inv(m[s:e, s:e])
        m[s:e, s:e] = d_inv
        if e < n:
            np.negative(d_inv, out=d_inv)
            m[e:, s:e] = m[e:, s:e] @ d_inv
            m[e:, e:] += m[e:, s:e] @ m[s:e, e:]
            m[s:e, e:] = d_inv @ m[s:e, e:]


def check_coefficients(model: LeontiefModel) -> None:
    """The check A must pass before I - A is factorized or its stored
    factors are used.

    Raises ValueError, naming the flow, when A has a negative or NaN entry:
    the factorization is sound only for A >= 0.
    """
    A = model.A
    if not (A.min(initial=0.0) >= 0):  # NaN fails this test too
        i, j = divmod(int(np.argmax(~(A >= 0))), A.shape[1])
        codes = model.table.codes
        raise ValueError(
            f"Z[{codes[i]}, {codes[j]}] is {float(model.table.Z[i, j])}; the Leontief "
            "factorization needs non-negative, non-NaN flows"
        )


def ldu_factors(A: np.ndarray) -> np.ndarray:
    """The read-only block LDU factors of I - A that LeontiefModel holds, for
    an A that check_coefficients accepted. Raises NonProductiveEconomyError
    when (I - A) is singular."""
    # I - A is built without an identity matrix and factorized in place.
    factors = np.negative(A)
    factors[np.diag_indices_from(factors)] += 1.0
    try:
        _factorize(factors)
    except np.linalg.LinAlgError as exc:
        raise NonProductiveEconomyError(f"(I - A) is singular: {exc}") from exc
    factors.setflags(write=False)
    return factors


def certify_productive(model: LeontiefModel) -> None:
    """Raise NonProductiveEconomyError unless the factors prove rho(A) < 1,
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
    dx of (I - A) dx = df, max |((I - A) dx - df) / x|, and NaN when anything
    in it is not finite: O(n^2), or one per column of n x S blocks dx, df."""
    return np.abs((dx - model.A @ dx - df).T / model.x).max(axis=-1)


def build_model(table: IOTable, factors: np.ndarray | None = None) -> LeontiefModel:
    """The model of a validated table: A and the coefficient rows, accepted by
    check_coefficients, and factors of I - A that pass certify_productive.

    Satellite kinds backed by an account use it. Two kinds are read off the
    table when no account was supplied: value added from the value-added
    row, gross fixed capital formation from its final-demand column. Every
    sector must have finite positive output: drop_zero_sectors removes the
    empty ones, and validate_table reports a negative one; ValueError names
    every sector whose output is not a finite positive number.

    ``factors`` are the factors an earlier build of the same table stored.
    Without them, the factors of the last model built from this table object
    in this process are taken, if any. Either are served as they are if they
    are a read-only float64 n x n array and x = L f solves (I - A) x = f to
    within FIXED_POINT_TOL; otherwise, a writable array that could change
    under the model included, or without them, ldu_factors factorizes I - A.
    The checks run in the same order either way, so a table fails alike with
    and without stored factors. x0 = L f is the solve of that check, or one
    more solve after a factorization. The factors of the model returned are
    kept for the next build of the table until the table is freed: n^2
    doubles, 8 MB at n = 1000. A table changed in place after a build is factorized
    again once its kept factors fail the x = L f check; tables are not meant
    to be changed in place (f, for one, is summed once).
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
    if factors is None:
        factors = _built.get(table)
    model = LeontiefModel(
        table=table,
        A=table.Z / x[np.newaxis, :],
        import_coefficients=table.imports / x,
        satellite_coefficients={k: sources[k] / x for k in SATELLITE_KINDS if k in sources},
        factors=factors,
        x0=None,
    )
    check_coefficients(model)
    f = table.f
    servable = isinstance(factors, np.ndarray) and not factors.flags.writeable
    servable = servable and factors.dtype == np.float64 and factors.shape == (table.n, table.n)
    x0 = model.solve(f) if servable else None
    if x0 is None or not (fixed_point_gap(model, x0, f) <= FIXED_POINT_TOL):
        model = replace(model, factors=ldu_factors(model.A))
        x0 = model.solve(f)
    certify_productive(model)
    x0.setflags(write=False)
    _built[table] = model.factors
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
    sorted. They come first in the full order, so the two agree exactly.
    """
    values = np.asarray(values, dtype=float)
    keys = -values if descending else values
    if k is not None and 0 < k < len(keys):
        cut = np.partition(keys, k - 1)[k - 1]
        if not np.isnan(cut):  # a NaN cut selects no key; sort them all
            head = np.flatnonzero(keys <= cut)
            return head[np.argsort(keys[head], kind="stable")[:k]].tolist()
    return np.argsort(keys, kind="stable").tolist()[:k]


def check_top_k(top_k: int) -> None:
    """ValueError unless ``top_k``, the depth of a ranked view, is non-negative."""
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
