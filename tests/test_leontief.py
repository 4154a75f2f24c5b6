import tracemalloc

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
    leontief_inverse,
    output_multipliers,
    satellite_multipliers,
    technical_coefficients,
)
from ioimpact.leontief import check_productive
from ioimpact.testkit import EconomyGenSpec, dense_inverse, neumann_oracle, random_economy, rescale

from conftest import E2_A, E2_L
from test_table import make_table


class TestTechnicalCoefficients:
    def test_e2_matrix(self, e2):
        coeffs = technical_coefficients(e2)
        assert np.array_equal(coeffs.A, E2_A)
        assert np.array_equal(coeffs.import_coefficients, [-0.1, 0.0])
        assert np.array_equal(e2.value_added / e2.x, [0.3, 0.4])
        assert np.array_equal(coeffs.satellite_coefficients["employment"], [0.1, 0.2])

    def test_zero_flows_give_zero_matrix(self):
        table = make_table(np.zeros((2, 2)), [10, 20], [10, 20])
        coeffs = technical_coefficients(table)
        assert np.array_equal(coeffs.A, np.zeros((2, 2)))

    def test_zero_output_rejected(self):
        table = make_table([[0.0, 0], [0, 0]], [10, 0], [10, 0])
        with pytest.raises(ValueError, match="non-positive output"):
            technical_coefficients(table)

    def test_column_sums_account_for_everything(self, e2):
        coeffs = technical_coefficients(e2)
        total = coeffs.A.sum(axis=0) + coeffs.import_coefficients + e2.value_added / e2.x
        assert np.allclose(total, 1.0, atol=1e-12)


class TestLeontiefInverse:
    def test_e2_matches_analytic_inverse(self, e2_model):
        assert np.allclose(dense_inverse(e2_model), E2_L, atol=1e-12)
        n = 2
        L = dense_inverse(e2_model)
        assert np.allclose(L @ (np.eye(n) - e2_model.A), np.eye(n), atol=1e-9)

    def test_zero_matrix_gives_identity(self):
        table = make_table(np.zeros((3, 3)), [1, 2, 3], [1, 2, 3])
        model = build_model(table)
        assert np.allclose(dense_inverse(model), np.eye(3), atol=1e-15)

    def test_non_productive_economy_rejected(self):
        # Column sums 1.2 with spectral radius 1.2: the expansion diverges.
        table = make_table([[70, 50], [50, 70]], [-20, -20], [100, 100])
        coeffs = technical_coefficients(table)
        with pytest.raises(NonProductiveEconomyError):
            leontief_inverse(coeffs)

    def test_high_column_sum_but_productive_is_accepted(self):
        # Column sum 1.2 yet spectral radius 0.6: the power check must pass it.
        A = np.array([[0.6, 0.0], [0.6, 0.0]])
        check_productive(A)

    def test_model_reproduces_output_from_demand(self, e2_model):
        assert np.allclose(dense_inverse(e2_model) @ e2_model.f, e2_model.x, atol=1e-9)

    def test_nonnegative_inverse_with_unit_diagonal(self, e2_model):
        L = dense_inverse(e2_model)
        assert np.all(L >= 0)
        assert np.all(np.diag(L) >= 1)


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


class TestBlockFactorization:
    """The block LDU route against an explicit LAPACK inverse of I - A, on
    sizes around the 128-wide block boundaries."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from(BLOCK_SIZES),
        seed=st.integers(0, 10_000),
        heavy=st.booleans(),
    )
    def test_solves_match_dense_inverse(self, n, seed, heavy):
        table = (
            heavy_column_table(n, seed)
            if heavy
            else random_economy(EconomyGenSpec(n=n, seed=seed))
        )
        model = build_model(table)
        if heavy and n > 1:
            assert model.A.sum(axis=0).max() > 1.0
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

    def test_factors_are_read_only(self, e2_model):
        assert not e2_model.factors.flags.writeable

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
        # An explicit inverse holds I - A and L: 2 n^2 floats traced.
        n = 600
        coeffs = technical_coefficients(random_economy(EconomyGenSpec(n=n, seed=5)))
        tracemalloc.start()
        try:
            leontief_inverse(coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * 8


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


class TestImportShare:
    def test_explicit_imports(self):
        table = make_table([[50, 20], [30, 40]], [30, 30], [100, 100], imports=[10.0, 15.0])
        coeffs = technical_coefficients(table)
        assert import_share(coeffs, "S1") == pytest.approx(0.10)
        assert import_share(coeffs, "S2") == pytest.approx(0.15)

    def test_zero_import_sector(self):
        table = make_table([[50, 20], [30, 40]], [30, 30], [100, 100], imports=[0.0, 15.0])
        coeffs = technical_coefficients(table)
        assert import_share(coeffs, "S1") == 0.0


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e6))
    def test_homogeneity_under_currency_rescaling(self, seed, scale):
        table = random_economy(EconomyGenSpec(n=6, seed=seed))
        model = build_model(table)
        scaled_model = build_model(rescale(table, scale))
        assert np.allclose(scaled_model.A, model.A, rtol=1e-12, atol=1e-15)
        assert np.allclose(
            dense_inverse(scaled_model), dense_inverse(model), rtol=1e-12, atol=1e-12
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
        assert np.abs(dense_inverse(model) - approx).max() < 1e-8

    def test_neumann_error_decreases_in_k(self, e2_model):
        errors = [
            np.abs(dense_inverse(e2_model) - neumann_oracle(e2_model.A, K)).max()
            for K in (10, 25, 50, 100)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestSectorLookup:
    def test_sector_index_or_code(self, e2_model):
        s2 = e2_model.sectors[1]
        for sector in (s2, 1, np.int64(1), "S2"):
            assert e2_model.sector_index(sector) == 1
            assert e2_model.table.sector_index(sector) == 1

    @pytest.mark.parametrize("sector", [-1, 2, 5, "S9"])
    def test_import_share_rejects_unknown_sector(self, e2, sector):
        with pytest.raises(KeyError):
            import_share(technical_coefficients(e2), sector)

    def test_import_share_by_index(self, e2):
        coeffs = technical_coefficients(e2)
        assert import_share(coeffs, 0) == import_share(coeffs, "S1") == pytest.approx(-0.1)


class TestSatelliteKinds:
    def test_report_order_with_table_fallbacks(self, e2):
        coeffs = technical_coefficients(e2)
        assert list(coeffs.satellite_coefficients) == [
            "value_added", "income", "employment", "gross_fixed_capital_formation",
        ]
        assert np.array_equal(coeffs.satellite_coefficients["value_added"], [0.3, 0.4])

    def test_without_accounts_only_fallbacks(self):
        table = make_table([[50, 20], [30, 40]], [30, 30], [100, 100])
        coeffs = technical_coefficients(table)
        assert list(coeffs.satellite_coefficients) == [
            "value_added", "gross_fixed_capital_formation",
        ]
