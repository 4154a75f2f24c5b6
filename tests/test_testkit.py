import numpy as np
import pytest

from ioimpact import NonProductiveEconomyError, build_model, validate_table
from ioimpact.testkit import (
    EconomyGenSpec,
    canonical_e2,
    neumann_oracle,
    random_economy,
)

from conftest import E2_A, E2_L


class TestNeumannOracle:
    def test_scalar_geometric_series(self):
        # sum_{k=0..10} 0.5^k = 2 - 2^-10
        got = neumann_oracle(np.array([[0.5]]), 10)
        assert got[0, 0] == pytest.approx(2 - 2**-10, abs=1e-15)
        assert got[0, 0] == pytest.approx(1.9990, abs=1e-4)

    def test_zero_matrix_any_k(self):
        assert np.array_equal(neumann_oracle(np.zeros((3, 3)), 17), np.eye(3))

    def test_e2_converges_to_inverse(self):
        got = neumann_oracle(E2_A, 50)
        assert np.abs(got - E2_L).max() < 1e-6

    def test_divergence_detected(self):
        with pytest.raises(NonProductiveEconomyError):
            neumann_oracle(np.array([[1.5]]), 200)


class TestRandomEconomy:
    def test_deterministic_per_seed(self):
        a = random_economy(EconomyGenSpec(n=10, seed=42))
        b = random_economy(EconomyGenSpec(n=10, seed=42))
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.final_demand.values, b.final_demand.values)
        c = random_economy(EconomyGenSpec(n=10, seed=43))
        assert not np.array_equal(a.Z, c.Z)

    def test_column_sum_bound(self):
        spec = EconomyGenSpec(n=15, seed=1, max_column_sum=0.9)
        table = random_economy(spec)
        A = table.Z / table.x[np.newaxis, :]
        assert np.all(A.sum(axis=0) <= 0.9 + 1e-12)

    def test_identity_consistency(self):
        for seed in range(5):
            table = random_economy(EconomyGenSpec(n=12, seed=seed))
            assert validate_table(table, rel_tol=1e-9).passed

    def test_demand_round_trip(self):
        table = random_economy(EconomyGenSpec(n=20, seed=5))
        model = build_model(table)
        assert np.abs(model.L @ table.f - table.x).max() < 1e-9 * table.x.max()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            EconomyGenSpec(n=5, seed=0, max_column_sum=1.0)
        with pytest.raises(ValueError):
            EconomyGenSpec(n=0, seed=0)


class TestCanonicalE2:
    def test_table_values(self):
        t = canonical_e2()
        assert np.array_equal(t.Z, [[50, 20], [30, 40]])
        assert np.array_equal(t.f, [30, 30])
        assert np.array_equal(t.x, [100, 100])
        assert np.array_equal(t.value_added, [30, 40])
        assert np.array_equal(t.satellites["employment"].values, [10, 20])
        assert np.array_equal(t.satellites["income"].values, [20, 25])
        # imports absorb the column residual
        assert np.array_equal(t.imports, t.x - t.Z.sum(axis=0) - t.value_added)

    def test_passes_validation(self):
        assert validate_table(canonical_e2()).passed

    def test_derived_matrices(self):
        model = build_model(canonical_e2())
        assert np.allclose(model.A, E2_A, atol=1e-15)
        assert np.allclose(model.L, E2_L, atol=1e-12)
