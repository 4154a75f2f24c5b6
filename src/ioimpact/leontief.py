"""The factorized Leontief model of a table, and multiplier families.

Everything here is a pure function of a validated IOTable. The Leontief
inverse L = (I - A)^-1 is never formed. Instead I - A is factorized once per
table into block LDU factors, and every consumer asks for a product with L:
L v through LeontiefModel.solve, u'L through LeontiefModel.solve_t. Each
product costs O(n^2) per right-hand side, the cost of a product with a dense L.

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
solve (I - A) x = f, and I - A is factorized otherwise. The CLI gets its model
from ingest.load_model, which hands build_model the factors of the table's
cache entry and stores the ones it computed. Every model handed out, with
stored factors or fresh ones, has passed check_coefficients and
certify_productive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonProductiveEconomyError
from .table import SATELLITE_KINDS, IOTable, Sector

# Width of the diagonal blocks of the factorization. A table with at most
# this many sectors is one block, factorized by a single LAPACK inverse.
_BLOCK = 128

# Largest residual of the fixed-point system q = A* q + f* accepted for a
# solve with the factors: of every inoperability result, and of x = L f for
# stored factors before they are served.
FIXED_POINT_TOL = 1e-9


def _blocks(n: int) -> list[tuple[int, int]]:
    return [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]


@dataclass(frozen=True)
class LeontiefModel:
    """A table bound to its coefficients and the block LDU factors of I - A.

    A[i, j] = Z[i, j] / x[j], the input requirements per unit of output; the
    coefficient rows for imports and for every satellite kind the table can
    report divide by the same x, satellite_coefficients in SATELLITE_KINDS
    order. With the sectors cut into _BLOCK-wide diagonal blocks,
    I - A = L D U, where L is unit block lower triangular, D block diagonal
    and U unit block upper triangular. factors holds all three in one
    read-only n x n array: the blocks of L below the diagonal, the inverse of
    each D_j on it, and the blocks of D U above it. The Leontief inverse is
    applied through solve and solve_t, never formed.
    """

    table: IOTable
    A: np.ndarray
    import_coefficients: np.ndarray
    satellite_coefficients: dict[str, np.ndarray]
    factors: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """(I - A)^-1 rhs for a vector or an n x k matrix: a forward pass
        through L, then a backward pass through D U."""
        M = self.factors
        n = len(M)
        blocks = _blocks(n)
        v = np.array(rhs, dtype=float)
        for s, e in blocks[:-1]:
            v[e:] -= M[e:, s:e] @ v[s:e]
        for s, e in reversed(blocks):
            if e < n:
                v[s:e] -= M[s:e, e:] @ v[e:]
            v[s:e] = M[s:e, s:e] @ v[s:e]
        return v

    def solve_t(self, rhs) -> np.ndarray:
        """(I - A)^-T rhs for a vector or an n x k matrix: for a vector u this
        is the row u'(I - A)^-1, for a matrix one such row per column. A
        forward pass through (D U)', then a backward pass through L'."""
        M = self.factors
        n = len(M)
        blocks = _blocks(n)
        v = np.array(rhs, dtype=float)
        for s, e in blocks:
            v[s:e] = M[s:e, s:e].T @ v[s:e]
            if e < n:
                v[e:] -= M[s:e, e:].T @ v[s:e]
        for s, e in reversed(blocks[:-1]):
            v[s:e] -= M[e:, s:e].T @ v[e:]
        return v

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

    For each diagonal block D_j: invert it, scale the block column below it
    by D_j^-1, and subtract the Schur update from the trailing submatrix. No
    pivoting; see the module docstring for why none is needed.
    """
    n = len(m)
    for s, e in _blocks(n):
        d_inv = np.linalg.inv(m[s:e, s:e])
        m[s:e, s:e] = d_inv
        if e < n:
            m[e:, s:e] = m[e:, s:e] @ d_inv
            m[e:, e:] -= m[e:, s:e] @ m[s:e, e:]


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


def fixed_point_gap(model: LeontiefModel, dx: np.ndarray, df: np.ndarray) -> float:
    """Largest residual of the fixed-point system q = A* q + f* for a solution
    dx of (I - A) dx = df, that is max |((I - A) dx - df) / x|: O(n^2), and NaN
    when anything in it is not finite."""
    return np.abs((dx - model.A @ dx - df) / model.x).max()


def build_model(table: IOTable, factors: np.ndarray | None = None) -> LeontiefModel:
    """The model of a validated table: A and the coefficient rows, accepted by
    check_coefficients, and factors of I - A that pass certify_productive.

    Satellite kinds backed by an account use it. Two kinds are read off the
    table when no account was supplied: value added from the value-added
    row, gross fixed capital formation from its final-demand column. Every
    sector must have positive output: drop_zero_sectors removes the empty
    ones, and validate_table reports a negative one.

    ``factors`` are the factors an earlier build of the same table stored.
    They are served as they are if they are a read-only float64 n x n array
    and x = L f solves (I - A) x = f to within FIXED_POINT_TOL; otherwise, a
    writable array that could change under the model included, or without
    them, ldu_factors factorizes I - A. The checks run in the same order
    either way, so a table fails alike with and without stored factors.
    """
    if np.any(table.x <= 0):
        bad = [table.codes[j] for j in np.flatnonzero(table.x <= 0)]
        raise ValueError(
            f"sectors with non-positive output: {bad}; the model needs every output to be "
            "positive (drop_zero_sectors removes zero-output sectors)"
        )
    x = table.x
    gfcf = "gross_fixed_capital_formation"
    sources = {
        "value_added": table.value_added,
        gfcf: table.final_demand.component(gfcf),
        **{kind: sat.values for kind, sat in table.satellites.items()},
    }
    model = LeontiefModel(
        table=table,
        A=table.Z / x[np.newaxis, :],
        import_coefficients=table.imports / x,
        satellite_coefficients={k: sources[k] / x for k in SATELLITE_KINDS if k in sources},
        factors=factors,
    )
    check_coefficients(model)
    f = table.f
    servable = isinstance(factors, np.ndarray) and not factors.flags.writeable
    servable = servable and factors.dtype == np.float64 and factors.shape == (table.n, table.n)
    if not (servable and fixed_point_gap(model, model.solve(f), f) <= FIXED_POINT_TOL):
        model = replace(model, factors=ldu_factors(model.A))
    certify_productive(model)
    return model


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


def sector_order(values, descending: bool = False) -> list[int]:
    """Sector positions ordered by value, ties (-0.0 against 0.0 included)
    broken by sector index: the ranking rule behind every ranked view.
    Python ints, which index faster than numpy integers, are returned."""
    values = np.asarray(values, dtype=float)
    return np.argsort(-values if descending else values, kind="stable").tolist()


def check_top_k(top_k: int) -> None:
    """ValueError unless ``top_k``, the depth of a ranked view, is non-negative."""
    if top_k < 0:
        raise ValueError("top_k must be non-negative")


def _ranked(model: LeontiefModel, values: np.ndarray, top_k: int) -> list[tuple[Sector, float]]:
    check_top_k(top_k)
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


def import_share(model: LeontiefModel, sector) -> float:
    """Imported inputs per unit of output for one sector."""
    return float(model.import_coefficients[model.sector_index(sector)])
