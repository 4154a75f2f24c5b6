import functools
import gc
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioimpact import (
    NonProductiveEconomyError,
    build_model,
    downstream_importance,
    import_share,
    input_recipe,
    leontief,
    output_multipliers,
    satellite_multipliers,
)
from ioimpact.leontief import FIXED_POINT_TOL, leontief_inverse
from ioimpact.testkit import (
    EconomyGenSpec,
    neumann_oracle,
    random_economy,
    rescale,
)

from conftest import E2_A, E2_L
from test_table import make_table


class TestTechnicalCoefficients:
    def test_e2_matrix(self, e2, e2_model):
        assert np.array_equal(e2_model.A, E2_A)
        assert np.array_equal(e2.imports / e2.x, [-0.1, 0.0])
        assert np.array_equal(e2.value_added / e2.x, [0.3, 0.4])
        assert np.array_equal(e2_model.satellite_coefficients["employment"], [0.1, 0.2])

    def test_zero_flows_give_zero_matrix(self):
        table = make_table(np.zeros((2, 2)), [10, 20], [10, 20])
        assert np.array_equal(build_model(table).A, np.zeros((2, 2)))

    def test_zero_output_rejected(self):
        table = make_table([[0.0, 0], [0, 0]], [10, 0], [10, 0])
        with pytest.raises(ValueError, match="non-positive output"):
            build_model(table)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_rejected(self, e2, value):
        # NaN passes x <= 0, and an infinite output would give a zero column
        # of A; either names the sector, not a healthy flow.
        x = e2.x.copy()
        x[1] = value
        message = (r"sectors with non-finite or non-positive output: \['S2'\]; the model "
                   r"needs every output to be a finite positive number")
        with pytest.raises(ValueError, match=message):
            build_model(replace(e2, x=x))

    def test_every_bad_output_is_named(self):
        table = make_table(np.zeros((3, 3)), [1, 0, 3], [1, 0, np.nan])
        with pytest.raises(ValueError, match=r"output: \['S2', 'S3'\]"):
            build_model(table)

    def test_column_sums_account_for_everything(self, e2, e2_model):
        model = e2_model
        total = model.A.sum(axis=0) + e2.imports / e2.x + e2.value_added / e2.x
        assert np.allclose(total, 1.0, atol=1e-12)


class TestLeontiefInverse:
    def test_e2_matches_analytic_inverse(self, e2_model):
        assert np.allclose(e2_model.L, E2_L, atol=1e-12)
        n = 2
        L = e2_model.L
        assert np.allclose(L @ (np.eye(n) - e2_model.A), np.eye(n), atol=1e-9)

    def test_zero_matrix_gives_identity(self):
        table = make_table(np.zeros((3, 3)), [1, 2, 3], [1, 2, 3])
        model = build_model(table)
        assert np.allclose(model.L, np.eye(3), atol=1e-15)

    def test_non_productive_economy_rejected(self):
        # Column sums 1.2 with spectral radius 1.2: the expansion diverges,
        # and (I - A)^-1 1 = [-5, -5] is no certificate.
        with pytest.raises(NonProductiveEconomyError, match=r"\(I - A\)\^-1 1 is -5 at sector S1"):
            build_model(NON_PRODUCTIVE)

    def test_high_column_sum_but_productive_is_accepted(self):
        # Column sum 1.2 yet spectral radius 0.6: the certificate must pass it.
        A = np.array([[0.6, 0.0], [0.6, 0.0]])
        assert np.array_equal(build_model(table_with_A(A)).A, A)

    def test_model_reproduces_output_from_demand(self, e2_model):
        assert np.allclose(e2_model.L @ e2_model.f, e2_model.x, atol=1e-9)

    def test_nonnegative_inverse_with_unit_diagonal(self, e2_model):
        L = e2_model.L
        assert np.all(L >= 0)
        assert np.all(np.diag(L) >= 1)


# rho(A) = 1.2, though I - A is nonsingular.
NON_PRODUCTIVE = make_table([[70, 50], [50, 70]], [-20, -20], [100, 100])


def table_with_A(A):
    """A table whose coefficient matrix is exactly A: unit outputs and Z = A."""
    A = np.asarray(A, dtype=float)
    x = np.ones(len(A))
    return make_table(A, x - A.sum(axis=1), x)


def column_stochastic(n: int, seed: int) -> np.ndarray:
    """A positive A whose columns each sum to one, so that rho(A) = 1."""
    B = np.random.default_rng(seed).random((n, n)) + 0.01
    return B / B.sum(axis=0)


def scaled_to_radius(n: int, seed: int, rho: float, non_normal: bool) -> np.ndarray:
    """A random A >= 0 with spectral radius rho. A positive diagonal keeps the
    radius of the draw above zero; a diagonal similarity D B D^-1, which
    keeps the spectrum and the signs, makes it far from normal."""
    rng = np.random.default_rng(seed)
    B = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
    B[np.diag_indices(n)] += rng.uniform(0.01, 1.0, n)
    if non_normal:
        d = 10.0 ** rng.uniform(-2.0, 2.0, n)
        B = B * d[:, np.newaxis] / d[np.newaxis, :]
    return B * (rho / np.abs(np.linalg.eigvals(B)).max())


class TestProductivityCertificate:
    """build_model accepts A >= 0 iff rho(A) < 1, decided from L."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 40, 129, 200]),
        seed=st.integers(0, 10_000),
        rho=st.floats(0.01, 0.99) | st.floats(1.01, 3.0),
        non_normal=st.booleans(),
    )
    def test_accepted_iff_spectral_radius_below_one(self, n, seed, rho, non_normal):
        A = scaled_to_radius(n, seed, rho, non_normal)
        productive = np.abs(np.linalg.eigvals(A)).max() < 1.0
        try:
            build_model(table_with_A(A))
            accepted = True
        except NonProductiveEconomyError as exc:
            assert "diverges" in str(exc)
            accepted = False
        assert accepted == productive

    @pytest.mark.parametrize("n", [2, 300])
    def test_column_stochastic_rejected(self, n):
        with pytest.raises(NonProductiveEconomyError):
            build_model(table_with_A(column_stochastic(n, seed=n)))

    def test_one_large_coefficient_is_productive(self):
        # rho(A) = 0.5, though every norm of A and of A^2 is 1e7.
        A = np.array([[0.5, 1e7], [0.0, 0.5]])
        model = build_model(table_with_A(A))
        assert np.allclose(model.solve(np.ones(2)), [4e7 + 2, 2.0], rtol=1e-12)

    def test_message_gives_the_bound(self):
        # x = 2^52 > 0 solves (I - A) x = 1 exactly, but A x = x - 1 is above
        # (1 - 2 eps) x: the margin fails. An x beyond 1 / (2 n eps) marks a
        # numerically singular I - A, which is rejected though rho(A) < 1.
        A = np.array([[1.0 - 2.0**-52]])
        with pytest.raises(NonProductiveEconomyError, match=r"max \(A x\)_i / x_i is 1 "):
            build_model(table_with_A(A))


def heavy_column_table(n: int, seed: int):
    """A productive table whose first column of A sums to 0.6 n (above one
    from n = 2) while every row of A sums below 0.9, so rho(A) < 1."""
    rng = np.random.default_rng(seed)
    A = np.full((n, n), 0.6)
    if n > 1:
        rest = rng.random((n, n - 1)) + 1e-3
        A[:, 1:] = rest * (rng.uniform(0.0, 0.3, (n, 1)) / rest.sum(axis=1, keepdims=True))
    x = rng.uniform(10.0, 100.0, n)
    Z = A * x[np.newaxis, :]
    return make_table(Z, x - Z.sum(axis=1), x)


BLOCK_SIZES = [1, 2, 127, 128, 129, 255, 256, 257, 400]
SOLVE_SIZES = [1, 2, 127, 128, 129, 255, 256, 257, 300]


@functools.cache
def solve_model(n: int):
    return build_model(random_economy(EconomyGenSpec(n=n, seed=n)))


def boundary_rows(n: int) -> list[int]:
    """Every row next to a block boundary (and the first and last row)."""
    rows = {0, n - 1}
    for edge in range(leontief._BLOCK, n, leontief._BLOCK):
        rows.update((edge - 1, edge, edge + 1))
    return sorted(r for r in rows if 0 <= r < n)


def right_hand_side_layouts(rhs: np.ndarray) -> dict[str, np.ndarray]:
    """``rhs`` in C order, in Fortran order and as a strided view."""
    spaced = np.zeros(tuple(2 * d for d in rhs.shape))
    spaced[(slice(None, None, 2),) * rhs.ndim] = rhs
    return {"C": rhs, "F": np.asfortranarray(rhs),
            "strided": spaced[(slice(None, None, 2),) * rhs.ndim]}


class TestBlockFactorization:
    """The block Gauss-Jordan inverse and the solves that read it, against
    LAPACK's inverse and solve of I - A, on sizes around the 128-wide block
    boundaries."""

    @staticmethod
    def table(n, seed, heavy):
        table = heavy_column_table(n, seed) if heavy else random_economy(EconomyGenSpec(n, seed))
        if heavy and n > 1:
            assert (table.Z / table.x).sum(axis=0).max() > 1.0
        return table

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from(BLOCK_SIZES), seed=st.integers(0, 10_000), heavy=st.booleans())
    def test_inverse_matches_lapack(self, n, seed, heavy):
        model = build_model(self.table(n, seed, heavy))
        want = np.linalg.inv(np.eye(n) - model.A)
        assert np.abs(model.L - want).max() <= 1e-12 * np.abs(want).max()
        assert (model.L >= 0).all()

    @pytest.mark.parametrize("n", [1, 2, 127, 128])
    def test_one_block_is_one_lapack_inverse(self, n):
        # At most one block: the inverse is LAPACK's inverse of I - A, bit
        # for bit, as I - A is built.
        A = build_model(random_economy(EconomyGenSpec(n=n, seed=n))).A
        m = np.negative(A)
        m[np.diag_indices_from(m)] += 1.0
        assert leontief_inverse(A).tobytes() == np.linalg.inv(m).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from(BLOCK_SIZES),
        seed=st.integers(0, 10_000),
        heavy=st.booleans(),
    )
    def test_solves_match_dense_inverse(self, n, seed, heavy):
        model = build_model(self.table(n, seed, heavy))
        L = np.linalg.inv(np.eye(n) - model.A)
        rng = np.random.default_rng(seed + 1)
        v = rng.standard_normal(n)
        V = rng.standard_normal((n, 3))

        def close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        close(model.solve(v), L @ v)
        close(model.solve(V), L @ V)
        close(model.solve_t(v), v @ L)
        close(model.solve_t(V), L.T @ V)
        if n <= 128:
            assert np.array_equal(model.solve(v), L @ v)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(BLOCK_SIZES),
        seed=st.integers(0, 10_000),
        heavy=st.booleans(),
        nonzero=st.integers(0, 8),
        k=st.sampled_from([None, 1, 3]),
    )
    def test_sparse_right_hand_sides(self, n, seed, heavy, nonzero, k):
        # A shock to a few sectors, signed zeros elsewhere, as a vector and
        # as n x k matrices in every layout: each layout gives the same
        # bytes, within 1e-12 of LAPACK's solve.
        model = build_model(self.table(n, seed, heavy))
        rng = np.random.default_rng(seed)
        shape = (n,) if k is None else (n, k)
        rhs = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        rows = rng.choice(n, size=min(nonzero, n), replace=False)
        rhs[rows] = rng.standard_normal((len(rows), *shape[1:]))
        dense = np.eye(n) - model.A
        for solve, matrix in ((model.solve, dense), (model.solve_t, dense.T)):
            want = np.linalg.solve(matrix, rhs)
            got = {name: solve(view) for name, view in right_hand_side_layouts(rhs).items()}
            for name, result in got.items():
                assert result.shape == rhs.shape and result.flags.c_contiguous, name
                assert np.abs(result - want).max() <= 1e-12 * np.abs(want).max(), name
                assert result.tobytes() == got["C"].tobytes(), name

    @pytest.mark.parametrize("n", SOLVE_SIZES)
    def test_unit_right_hand_side_reads_a_column(self, n):
        model = solve_model(n)
        for k in boundary_rows(n):
            e_k = np.zeros(n)
            e_k[k] = 1.0
            assert model.solve(e_k).tobytes() == model.L[:, k].tobytes()
            assert model.solve_t(e_k).tobytes() == model.L[k].tobytes()

    @pytest.mark.parametrize("n", [2, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_never_a_silent_zero(self, n, bad):
        # L >= 0, so an infinite row gives an infinity of its sign wherever
        # L is positive, and a NaN row NaN everywhere.
        model = solve_model(n)
        for shape in ((n,), (n, 2)):
            rhs = np.zeros(shape)
            rhs[n // 2] = bad
            rhs[0] = 1.0
            for solve in (model.solve, model.solve_t):
                with np.errstate(invalid="ignore"):  # BLAS may meet inf * 0 on the way
                    got = solve(rhs)
                if np.isnan(bad):
                    assert np.isnan(got).all()
                else:
                    assert (got == bad).all()

    @pytest.mark.parametrize(
        "n,first", [(n, first) for n in SOLVE_SIZES for first in boundary_rows(n)]
    )
    def test_every_layout_solves_alike(self, n, first):
        # A right-hand side whose first non-zero row is ``first``, with signed
        # zeros above and below it, as a vector and as n x k matrices. It is
        # read in row-major order whatever its layout, so C-order, F-order
        # and strided inputs give the same bytes, within 1e-12 of LAPACK's
        # solve.
        model = solve_model(n)
        rng = np.random.default_rng([n, first])
        dense = np.eye(n) - model.A
        for k in (None, 1, 2, 4):
            shape = (n,) if k is None else (n, k)
            rhs = rng.standard_normal(shape)
            rhs[rng.random(shape) < 0.3] = 0.0
            rhs[:first] = 0.0
            rhs[np.signbit(rng.standard_normal(shape)) & (rhs == 0)] = -0.0
            rhs[first] = rng.uniform(1.0, 2.0, rhs[first].shape)
            layouts = right_hand_side_layouts(rhs)
            assert n == 1 or not layouts["strided"].flags.c_contiguous
            for solve, matrix in ((model.solve, dense), (model.solve_t, dense.T)):
                want = np.linalg.solve(matrix, rhs)
                c_order = solve(rhs)
                for name, view in layouts.items():
                    got = solve(view)
                    assert got.shape == rhs.shape and got.flags.c_contiguous, name
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
                    assert got.tobytes() == c_order.tobytes(), name

    @pytest.mark.parametrize("n", SOLVE_SIZES)
    def test_zero_right_hand_sides(self, n):
        # Signed zeros in, +0.0 out, in every layout.
        model = solve_model(n)
        signs = np.where(np.random.default_rng(n).random((n, 3)) < 0.5, -0.0, 0.0)
        for rhs in (np.zeros(n), -np.zeros(n), signs, np.asfortranarray(signs)):
            for solve in (model.solve, model.solve_t):
                got = solve(rhs)
                assert got.shape == rhs.shape and got.flags.c_contiguous
                assert got.tobytes() == np.zeros(rhs.shape).tobytes()

    @pytest.mark.parametrize("shape", [(), (6, 2, 2), (5,), (7, 2), (2, 6), (0,)])
    def test_other_shapes_refused_before_any_product(self, shape):
        # Nothing is broadcast: a (6, 2, 2) block with two rows that are not
        # zero would otherwise come back as a (2, 6, 2) array.
        model = solve_model(6)
        rhs = np.zeros(shape)
        rhs[(slice(0, 2),) * rhs.ndim] = 1.0
        message = re.escape(f"right-hand side has shape {shape}; a solve takes (6,) or (6, k)")
        for solve in (model.solve, model.solve_t):
            with pytest.raises(ValueError, match=message):
                solve(rhs)

    def test_factors_are_read_only(self, e2_model):
        assert not e2_model.L.flags.writeable

    def test_no_full_inverse_above_one_block(self, monkeypatch):
        shapes = []
        inv = np.linalg.inv

        def recording_inv(a):
            shapes.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        build_model(random_economy(EconomyGenSpec(n=300, seed=4)))
        assert shapes == [(128, 128), (128, 128), (44, 44)]

    def test_peak_memory_below_two_dense_matrices(self):
        # An inverse that kept I - A beside L would hold 2 n^2 floats; L
        # overwrites I - A in place. The traced work is build_model's: the
        # check of A, the inversion and the certificate.
        n = 600
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=5)))
        tracemalloc.start()
        try:
            leontief.check_coefficients(model)
            leontief.certify_productive(replace(model, L=leontief_inverse(model.A)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * 8


class TestStoredFactors:
    """build_model(table, L): a stored L is served once it solves
    (I - A) x = f, and every check runs as it does without it."""

    @pytest.fixture
    def inverse_calls(self, monkeypatch):
        calls = []
        real = leontief.leontief_inverse

        def counting(A):
            calls.append(len(A))
            return real(A)

        monkeypatch.setattr(leontief, "leontief_inverse", counting)
        return calls

    @pytest.mark.parametrize("n", [2, 300])
    def test_passing_factors_are_served_as_they_are(self, inverse_calls, n):
        table = random_economy(EconomyGenSpec(n=n, seed=n))
        stored = build_model(table).L
        model = build_model(table, stored)
        assert model.L is stored
        assert inverse_calls == [n]

    def test_factors_past_the_tolerance_are_factorized_again(self, inverse_calls):
        table = random_economy(EconomyGenSpec(n=300, seed=4))
        fresh = build_model(table)
        perturbed = fresh.L.copy()
        perturbed[0, 0] *= 1.0 + 1e-6
        perturbed.setflags(write=False)
        f = table.f
        off = replace(fresh, L=perturbed)
        assert leontief.fixed_point_gap(off, off.solve(f), f) > FIXED_POINT_TOL
        model = build_model(table, perturbed)
        assert model.L is not perturbed
        assert model.L.tobytes() == fresh.L.tobytes()
        assert inverse_calls == [300, 300]

    @pytest.mark.parametrize(
        "unservable",
        [
            lambda a: a.copy(),  # writable: the caller could change it under the model
            lambda a: a.astype(np.float32),
            lambda a: a[:-1],
            lambda a: a.tolist(),
        ],
        ids=["writable", "float32", "shape", "list"],
    )
    def test_factors_that_could_change_or_do_not_fit_are_factorized_again(
        self, inverse_calls, unservable
    ):
        table = random_economy(EconomyGenSpec(n=4, seed=1))
        fresh = build_model(table)
        given = unservable(fresh.L)
        model = build_model(table, given)
        assert model.L is not given
        assert not model.L.flags.writeable
        assert model.L.tobytes() == fresh.L.tobytes()
        assert inverse_calls == [4, 4]

    @pytest.mark.parametrize("flow,shown", [(-5.0, "-5.0"), (np.nan, "nan")])
    def test_bad_flow_is_rejected_with_factors(self, inverse_calls, flow, shown):
        stored = build_model(make_table([[50, 20], [30, 40]], [30, 30], [100, 100])).L
        table = make_table([[50, flow], [30, 40]], [30, 30], [100, 100])
        with pytest.raises(ValueError, match=rf"Z\[S1, S2\] is {shown};"):
            build_model(table, stored)
        assert inverse_calls == [2]

    def test_non_productive_fails_alike_with_planted_factors(self, monkeypatch):
        with pytest.raises(NonProductiveEconomyError) as fresh:
            build_model(NON_PRODUCTIVE)
        planted = leontief_inverse(NON_PRODUCTIVE.Z / NON_PRODUCTIVE.x)

        def fail(A):
            raise AssertionError("inverted although the planted L solves for x")

        monkeypatch.setattr(leontief, "leontief_inverse", fail)
        with pytest.raises(NonProductiveEconomyError) as served:
            build_model(NON_PRODUCTIVE, planted)
        assert str(served.value) == str(fresh.value)


    def test_second_build_of_a_table_serves_its_factors(self, inverse_calls):
        table = random_economy(EconomyGenSpec(n=300, seed=5))
        first = build_model(table)
        second = build_model(table)
        assert inverse_calls == [300]
        assert second.L is first.L
        rhs = np.random.default_rng(5).standard_normal((300, 3))
        assert second.solve(rhs).tobytes() == first.solve(rhs).tobytes()
        assert second.solve_t(rhs).tobytes() == first.solve_t(rhs).tobytes()

    def test_tables_with_equal_content_do_not_share_factors(self, inverse_calls):
        table = random_economy(EconomyGenSpec(n=4, seed=2))
        twin = replace(table)
        first, second = build_model(table), build_model(twin)
        assert inverse_calls == [4, 4]
        assert second.L is not first.L
        assert second.L.tobytes() == first.L.tobytes()

    def test_table_changed_in_place_is_factorized_again(self, inverse_calls):
        table = random_economy(EconomyGenSpec(n=300, seed=6))
        kept = build_model(table).L
        table.Z.setflags(write=True)
        table.Z[0, 1] *= 1.0 + 1e-6
        table.Z.setflags(write=False)
        model = build_model(table)
        stale = replace(model, L=kept)
        assert leontief.fixed_point_gap(stale, stale.solve(table.f), table.f) > FIXED_POINT_TOL
        assert inverse_calls == [300, 300]
        assert model.L is not kept
        assert model.L.tobytes() == leontief_inverse(table.Z / table.x).tobytes()
        assert build_model(table).L is model.L

    def test_kept_factors_die_with_their_table(self):
        table = random_economy(EconomyGenSpec(n=4, seed=3))
        model = build_model(table)
        kept = weakref.ref(model.L)
        del table, model
        gc.collect()
        assert kept() is None

    @pytest.mark.parametrize(
        "table,error",
        [
            (make_table([[50, -5], [30, 40]], [30, 30], [100, 100]), ValueError),
            (NON_PRODUCTIVE, NonProductiveEconomyError),
        ],
        ids=["negative-flow", "non-productive"],
    )
    def test_failed_build_keeps_nothing_and_fails_again(self, inverse_calls, table, error):
        with pytest.raises(error) as first:
            build_model(table)
        assert table not in leontief._built
        with pytest.raises(error) as second:
            build_model(table)
        assert str(second.value) == str(first.value)
        assert table not in leontief._built
        assert inverse_calls == ([] if error is ValueError else [2, 2])


class TestMultipliers:
    def test_e2_output_multipliers(self, e2_model):
        assert np.allclose(output_multipliers(e2_model), [3.75, 2.9166666666666667], atol=1e-12)

    def test_e2_employment_multipliers(self, e2_model):
        assert np.allclose(satellite_multipliers(e2_model, "employment"), [0.5, 0.5], atol=1e-12)

    def test_value_added_falls_back_to_table_row(self, e2_model):
        # [0.3, 0.4] @ L, no value-added satellite account present
        expected = np.array([0.3, 0.4]) @ E2_L
        assert np.allclose(satellite_multipliers(e2_model, "value_added"), expected, atol=1e-12)

    def test_capital_formation_falls_back_to_demand_column(self, e2_model):
        assert np.allclose(
            satellite_multipliers(e2_model, "gross_fixed_capital_formation"), [0, 0], atol=1e-15
        )

    def test_unknown_kind_rejected(self, e2_model):
        with pytest.raises(ValueError):
            satellite_multipliers(e2_model, "carbon")

    def test_lower_bound_one(self):
        table = random_economy(EconomyGenSpec(n=12, seed=7))
        model = build_model(table)
        assert np.all(output_multipliers(model) >= 1.0 - 1e-12)

    def test_multiplier_is_one_iff_column_empty(self):
        Z = np.array([[10.0, 0.0], [5.0, 0.0]])
        table = make_table(Z, [85, 95], [100, 100])
        model = build_model(table)
        m = output_multipliers(model)
        assert m[1] == pytest.approx(1.0, abs=1e-12)
        assert m[0] > 1.0


class TestRankings:
    def test_input_recipe_e2(self, e2_model):
        got = input_recipe(e2_model, "S1", top_k=5)
        assert [(s.code, v) for s, v in got] == [("S1", 0.5), ("S2", 0.3)]

    def test_top_k_zero_gives_empty(self, e2_model):
        assert input_recipe(e2_model, "S1", top_k=0) == []

    def test_downstream_row_readoff(self, e2_model):
        got = downstream_importance(e2_model, "S2", top_k=5)
        assert [(s.code, v) for s, v in got] == [("S2", 0.4), ("S1", 0.3)]

    def test_downstream_diagonal_only(self):
        Z = np.diag([20.0, 30.0])
        table = make_table(Z, [80, 70], [100, 100])
        model = build_model(table)
        got = downstream_importance(model, "S1", top_k=10)
        assert [(s.code, v) for s, v in got] == [("S1", 0.2)]

    def test_ties_break_by_sector_index(self):
        Z = np.array([[0.0, 10, 10], [0, 0, 0], [0, 10, 10]])
        table = make_table(Z, [80, 100, 80], [100, 100, 100])
        model = build_model(table)
        got = input_recipe(model, "S2", top_k=3)
        assert [s.code for s, _ in got] == ["S1", "S3"]

    def test_unknown_sector_rejected(self, e2_model):
        with pytest.raises(KeyError):
            input_recipe(e2_model, "S9", top_k=1)

    @pytest.mark.parametrize("top_k", [True, False, np.True_, 2.5, 2.0, "2", None])
    def test_depth_that_is_no_integer_refused(self, e2_model, top_k):
        message = re.escape(f"top_k must be an integer, got {top_k!r}")
        for ranked in (input_recipe, downstream_importance):
            with pytest.raises(ValueError, match=message):
                ranked(e2_model, "S1", top_k=top_k)

    def test_numpy_integer_depth_accepted(self, e2_model):
        assert input_recipe(e2_model, "S1", top_k=np.int64(1)) == input_recipe(e2_model, "S1", 1)


class TestImportShare:
    def test_explicit_imports(self):
        table = make_table([[50, 20], [30, 40]], [30, 30], [100, 100], imports=[10.0, 15.0])
        model = build_model(table)
        assert import_share(model, "S1") == pytest.approx(0.10)
        assert import_share(model, "S2") == pytest.approx(0.15)

    def test_zero_import_sector(self):
        table = make_table([[50, 20], [30, 40]], [30, 30], [100, 100], imports=[0.0, 15.0])
        assert import_share(build_model(table), "S1") == 0.0


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e6))
    def test_homogeneity_under_currency_rescaling(self, seed, scale):
        table = random_economy(EconomyGenSpec(n=6, seed=seed))
        model = build_model(table)
        scaled_model = build_model(rescale(table, scale))
        assert np.allclose(scaled_model.A, model.A, rtol=1e-12, atol=1e-15)
        assert np.allclose(
            scaled_model.L, model.L, rtol=1e-12, atol=1e-12
        )
        assert np.allclose(
            output_multipliers(scaled_model), output_multipliers(model), rtol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ranking_invariance_under_rescaling(self, seed):
        table = random_economy(EconomyGenSpec(n=8, seed=seed))
        model = build_model(table)
        scaled_model = build_model(rescale(table, 1000.0))
        for sector in ("S1", "S5"):
            before = [s.code for s, _ in input_recipe(model, sector, 8)]
            after = [s.code for s, _ in input_recipe(scaled_model, sector, 8)]
            assert before == after
            before = [s.code for s, _ in downstream_importance(model, sector, 8)]
            after = [s.code for s, _ in downstream_importance(scaled_model, sector, 8)]
            assert before == after

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    def test_neumann_equivalence(self, seed, n):
        table = random_economy(EconomyGenSpec(n=n, seed=seed))
        model = build_model(table)
        approx = neumann_oracle(model.A, 200)
        assert np.abs(model.L - approx).max() < 1e-8

    def test_neumann_error_decreases_in_k(self, e2_model):
        errors = [
            np.abs(e2_model.L - neumann_oracle(e2_model.A, K)).max()
            for K in (10, 25, 50, 100)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestSectorLookup:
    def test_sector_index_or_code(self, e2_model):
        s2 = e2_model.sectors[1]
        for sector in (s2, 1, np.int64(1), "S2"):
            assert e2_model.sector_index(sector) == 1
            assert e2_model.table.sector_index(sector) == 1

    @pytest.mark.parametrize("sector", [True, False, np.True_, np.False_])
    def test_bool_is_no_sector(self, e2_model, sector):
        for lookup in (e2_model.sector_index, e2_model.table.sector_index):
            with pytest.raises(KeyError, match="unknown sector code"):
                lookup(sector)

    @pytest.mark.parametrize("sector", [-1, 2, 5, "S9"])
    def test_import_share_rejects_unknown_sector(self, e2_model, sector):
        with pytest.raises(KeyError):
            import_share(e2_model, sector)

    def test_import_share_by_index(self, e2_model):
        model = e2_model
        assert import_share(model, 0) == import_share(model, "S1") == pytest.approx(-0.1)


class TestSatelliteKinds:
    def test_report_order_with_table_fallbacks(self, e2_model):
        coeffs = e2_model.satellite_coefficients
        assert list(coeffs) == [
            "value_added", "income", "employment", "gross_fixed_capital_formation",
        ]
        assert np.array_equal(coeffs["value_added"], [0.3, 0.4])

    def test_without_accounts_only_fallbacks(self):
        table = make_table([[50, 20], [30, 40]], [30, 30], [100, 100])
        assert list(build_model(table).satellite_coefficients) == [
            "value_added", "gross_fixed_capital_formation",
        ]
