import hashlib
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioimpact import (
    DemandDelta,
    ImpactResult,
    IntermediateSpec,
    InternalConsistencyError,
    NonProductiveEconomyError,
    Reallocation,
    ScenarioConfigError,
    ScenarioSpec,
    Sector,
    UseRatio,
    apply_blowup,
    build_delta,
    build_model,
    compare_methods,
    estimate_blowup_factor,
    inoperability,
    make_extraction_spec,
    partial_extraction,
)
from ioimpact.impact import METHODS, satellite_deltas, scenario_impacts
from ioimpact.leontief import LeontiefModel
from ioimpact.table import validate_table
from ioimpact.testkit import (
    EconomyGenSpec,
    demand_perturbation,
    inoperability_oracle,
    interdependency_matrix,
    partial_extraction_oracle,
    random_economy,
)

from test_table import make_table


def e2_delta(e2, amount=-12.0, alpha=None):
    delta = np.zeros(2)
    delta[0] = amount
    return DemandDelta(scenario="demo", target="S1", delta=delta, alpha=alpha)


def random_loss(table, rng):
    """A pure demand loss bounded by current final demand."""
    return DemandDelta(
        scenario="rand", target=table.sectors[0].code,
        delta=-table.f * rng.uniform(0.0, 0.9, table.n),
    )


class TestInterdependency:
    def test_equals_coefficients_when_outputs_equal(self, e2_model):
        assert np.array_equal(interdependency_matrix(e2_model), e2_model.A)

    def test_ratio_scaling(self):
        # A = [[0.5, 0.2], [0.3, 0.4]] with x = [100, 200]
        Z = np.array([[0.5, 0.2], [0.3, 0.4]]) * np.array([100.0, 200.0])[np.newaxis, :]
        f = np.array([100.0, 200.0]) - Z.sum(axis=1)
        table = make_table(Z, f, [100.0, 200.0])
        model = build_model(table)
        a_star = interdependency_matrix(model)
        assert a_star[0, 1] == pytest.approx(0.4, abs=1e-15)
        assert a_star[1, 0] == pytest.approx(0.15, abs=1e-15)
        assert np.allclose(np.diag(a_star), np.diag(model.A))

    def test_zero_matrix(self):
        table = make_table(np.zeros((2, 2)), [10, 20], [10, 20])
        model = build_model(table)
        assert np.array_equal(interdependency_matrix(model), np.zeros((2, 2)))

    def test_similarity_preserves_spectrum(self):
        table = random_economy(EconomyGenSpec(n=9, seed=11))
        model = build_model(table)
        eig_a = np.sort_complex(np.linalg.eigvals(model.A))
        eig_star = np.sort_complex(np.linalg.eigvals(interdependency_matrix(model)))
        assert np.allclose(eig_a, eig_star, atol=1e-10)


class TestDemandPerturbation:
    def test_loss_is_positive(self, e2, e2_model):
        f_star = demand_perturbation(e2_delta(e2), e2_model.x)
        assert np.allclose(f_star, [0.12, 0.0], atol=1e-15)

    def test_zero_delta(self, e2, e2_model):
        f_star = demand_perturbation(e2_delta(e2, 0.0), e2_model.x)
        assert np.array_equal(f_star, [0.0, 0.0])


class TestInoperability:
    def test_e2_values(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        assert np.allclose(result.dx, [-30.0, -15.0], atol=1e-9)
        assert np.allclose(result.q, [-0.30, -0.15], atol=1e-9)
        assert result.totals["output"] == pytest.approx(-45.0, abs=1e-9)
        assert result.pct_output == pytest.approx(-45.0 / 200.0, abs=1e-12)

    def test_satellite_changes(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        assert np.allclose(result.satellite_changes["employment"], [-3.0, -3.0], atol=1e-9)
        assert np.allclose(result.satellite_changes["income"], [-6.0, -3.75], atol=1e-9)
        assert np.allclose(result.satellite_changes["value_added"], [-9.0, -6.0], atol=1e-9)
        assert result.totals["employment"] == pytest.approx(-6.0, abs=1e-9)

    def test_fixed_point_iteration_oracle(self, e2, e2_model):
        # Solve q = A* q + f* by plain iteration, independently of any solver.
        a_star = interdependency_matrix(e2_model)
        f_star = demand_perturbation(e2_delta(e2), e2_model.x)
        q_loss = np.zeros(2)
        for _ in range(400):
            q_loss = a_star @ q_loss + f_star
        result = inoperability(e2_model, e2_delta(e2))
        assert np.allclose(-q_loss, result.q, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 15))
    def test_direct_equals_fixed_point(self, seed, n):
        table = random_economy(EconomyGenSpec(n=n, seed=seed))
        model = build_model(table)
        rng = np.random.default_rng(seed + 1)
        delta = random_loss(table, rng)
        result = inoperability(model, delta)  # raises if routes disagree > 1e-9
        a_star = interdependency_matrix(model)
        f_star = demand_perturbation(delta, model.x)
        q_loss = np.linalg.solve(np.eye(n) - a_star, f_star)
        assert np.abs(q_loss - (-result.q)).max() < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_demand_change_rejected_before_solving(self, monkeypatch, bad):
        model = build_model(random_economy(EconomyGenSpec(n=6, seed=1)))
        df = np.zeros(6)
        df[[2, 4]] = bad
        delta = DemandDelta(scenario="bad", target="S1", delta=df)

        def no_solve(self, rhs):
            raise AssertionError("solved a non-finite demand change")

        monkeypatch.setattr(LeontiefModel, "solve", no_solve)
        message = f"the demand change is {bad} at sector {model.table.codes[2]}; it must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                inoperability(model, delta)

    @pytest.mark.parametrize("shape", [(3,), (4, 2)])
    def test_demand_change_of_another_shape_rejected_before_solving(self, monkeypatch, shape):
        model = build_model(random_economy(EconomyGenSpec(n=4, seed=1)))
        delta = DemandDelta(scenario="bad", target="S1", delta=np.ones(shape))

        def no_solve(self, rhs):
            raise AssertionError("solved a demand change of another shape")

        monkeypatch.setattr(LeontiefModel, "solve", no_solve)
        message = f"the demand change has shape {shape}, not (4,): one value per sector"
        with pytest.raises(ValueError, match=re.escape(message)):
            inoperability(model, delta)

    def test_residual_past_the_tolerance_is_a_consistency_error(self, e2, e2_model):
        # An L that no longer solves (I - A) dx = df is a defect of the
        # model, not of the shock.
        off = replace(e2_model, L=e2_model.L * (1.0 + 1e-6))
        with pytest.raises(InternalConsistencyError, match="fixed-point system by"):
            inoperability(off, e2_delta(e2))

    @pytest.mark.parametrize("k", [6, 8, 10, 12])
    def test_residual_is_relative_to_the_shock(self, k):
        # The rounding in (I - A) dx - df grows with the shock, so a shock
        # far beyond output is no defect; an L off by 1e-6 still is.
        table = random_economy(EconomyGenSpec(n=50, seed=1))
        model = build_model(table)
        delta = DemandDelta(scenario="big", target="S1", delta=-table.f * 10.0**k)
        q_loss = inoperability_oracle(model, delta)
        result = inoperability(model, delta)
        assert np.abs(result.q + q_loss).max() <= 1e-9 * np.abs(q_loss).max()
        off = replace(model, L=model.L * (1.0 + 1e-6))
        with pytest.raises(InternalConsistencyError, match="in scenario 'big'"):
            inoperability(off, delta)

    def test_sign_discipline_on_pure_loss(self):
        table = random_economy(EconomyGenSpec(n=10, seed=3))
        model = build_model(table)
        delta = random_loss(table, np.random.default_rng(4))
        result = inoperability(model, delta)
        assert np.all(result.dx <= 1e-12)

    def test_linearity_doubling(self, e2, e2_model):
        one = inoperability(e2_model, e2_delta(e2, -6.0))
        two = inoperability(e2_model, e2_delta(e2, -12.0))
        assert np.array_equal(two.dx, one.dx * 2)
        assert np.array_equal(two.q, one.q * 2)
        for kind in one.satellite_changes:
            assert np.array_equal(two.satellite_changes[kind], one.satellite_changes[kind] * 2)


class TestPartialExtraction:
    def test_e2_uniform_half(self, e2, e2_model):
        spec = make_extraction_spec(e2_model, "S1", np.array([0.5, 0.5]), f_bar=e2.f)
        result = partial_extraction(e2_model, spec)
        x_bar = result.dx + e2_model.x
        assert np.allclose(x_bar, [2100 / 27, 2400 / 27], atol=1e-9)
        assert result.totals["output"] == pytest.approx(-100 / 3, abs=1e-9)
        assert np.allclose(result.q, [-0.2222222222, -0.1111111111], atol=1e-9)

    def test_zero_alpha_identity(self, e2, e2_model):
        spec = make_extraction_spec(e2_model, "S1", np.zeros(2), f_bar=e2.f)
        result = partial_extraction(e2_model, spec)
        assert np.allclose(result.dx, [0.0, 0.0], atol=1e-9)

    def test_diagonal_and_column_untouched(self, e2_model):
        # The target's own intensity is never applied: own use stays in its recipe.
        got = partial_extraction(e2_model, make_extraction_spec(e2_model, "S1", [0.7, 0.7]))
        same = partial_extraction(e2_model, make_extraction_spec(e2_model, "S1", [0.0, 0.7]))
        assert np.array_equal(got.dx, same.dx)
        a_bar = e2_model.A.copy()
        a_bar[0, 1] *= 1 - 0.7
        x_bar = np.linalg.solve(np.eye(2) - a_bar, e2_model.f)
        assert np.allclose(got.dx, x_bar - e2_model.x, atol=1e-9)

    def test_nesting_reproduces_inoperability(self, e2, e2_model):
        delta = e2_delta(e2)
        ino = inoperability(e2_model, delta)
        spec = make_extraction_spec(e2_model, "S1", np.zeros(2), f_bar=e2.f + delta.delta)
        ext = partial_extraction(e2_model, spec)
        assert np.allclose(ext.dx, ino.dx, atol=1e-9)
        assert np.allclose(ext.q, ino.q, atol=1e-12)

    def test_rank_one_form(self, e2_model):
        # Uniform alpha: scaling row k equals subtracting alpha * e_k b_k',
        # where b_k is row k of A with a zero at the diagonal.
        alpha = 0.37
        A = e2_model.A
        e_k = np.zeros(2)
        e_k[0] = 1.0
        b_k = np.array([0.0, A[0, 1]])
        expected = A - alpha * np.outer(e_k, b_k)
        a_bar = A.copy()
        a_bar[0, 1] *= 1 - alpha
        assert np.abs(a_bar - expected).max() < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_alpha(self, seed):
        table = random_economy(EconomyGenSpec(n=8, seed=seed))
        model = build_model(table)
        rng = np.random.default_rng(seed + 17)
        low = rng.uniform(0.0, 0.5, 8)
        high = np.minimum(1.0, low + rng.uniform(0.0, 0.5, 8))
        f_bar = table.f * 0.8
        loss_low = partial_extraction(model, make_extraction_spec(model, 0, low, f_bar=f_bar))
        loss_high = partial_extraction(model, make_extraction_spec(model, 0, high, f_bar=f_bar))
        assert np.all(loss_high.dx <= loss_low.dx + 1e-9)

    def test_alpha_out_of_range_rejected(self, e2_model):
        with pytest.raises(ValueError):
            make_extraction_spec(e2_model, "S1", np.array([1.5, 0.0]))

    @pytest.mark.parametrize(
        "name,value",
        [("alpha", np.array([0.5])), ("alpha", np.full(5, 0.5)), ("alpha", np.full((4, 1), 0.5)),
         ("alpha", np.float64(0.5)), ("f_bar", np.ones(3)), ("f_bar", np.ones((4, 2))),
         ("f_bar", 1.0)],
    )
    def test_inputs_of_the_wrong_shape_rejected(self, name, value):
        model = build_model(random_economy(EconomyGenSpec(n=4, seed=1)))
        inputs = {"alpha": np.full(4, 0.5), "f_bar": np.ones(4), name: value}
        shape = re.escape(str(np.shape(value)))
        message = rf"{name} has shape {shape}, not \(4,\): one value"
        with pytest.raises(ValueError, match=message):
            partial_extraction(model, make_extraction_spec(model, 0, **inputs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_final_demand_rejected(self, bad):
        model = build_model(random_economy(EconomyGenSpec(n=6, seed=1)))
        f_bar = model.f.copy()
        f_bar[[2, 4]] = bad
        alpha = np.full(6, 0.5)
        message = re.escape(f"f_bar is {bad} at sector {model.table.codes[2]}; it must be finite")
        with pytest.raises(ValueError, match=message):
            partial_extraction(model, make_extraction_spec(model, 0, alpha, f_bar=f_bar))

    def test_one_row_major_one_column_solve(self, monkeypatch):
        # The block products of a solve run slower on a column-major
        # right-hand side. L[:, k] is read from the inverse, not solved for.
        model = build_model(random_economy(EconomyGenSpec(n=300, seed=2)))
        spec = make_extraction_spec(model, 5, np.full(300, 0.5))
        calls = []
        solve = LeontiefModel.solve

        def spy(self, rhs):
            calls.append(rhs)
            return solve(self, rhs)

        monkeypatch.setattr(LeontiefModel, "solve", spy)
        partial_extraction(model, spec)
        assert len(calls) == 1
        assert calls[0].shape == (300, 1)
        assert calls[0].flags.c_contiguous

    def test_returns_the_shock_scenario_impacts_takes(self, e2, e2_model):
        f_bar = e2.f + np.array([-12.0, 3.0])
        delta = make_extraction_spec(e2_model, 1, [0.25, 0.5], f_bar=f_bar, label="x")
        assert (delta.scenario, delta.target) == ("x", "S2")
        assert delta.delta.tobytes() == (f_bar - e2_model.f).tobytes()
        assert delta.alpha.dtype == np.float64 and delta.alpha.tolist() == [0.25, 0.5]
        [[ext]] = scenario_impacts(e2_model, [delta], ("extraction",))
        assert partial_extraction(e2_model, delta).dx.tobytes() == ext.dx.tobytes()
        default = make_extraction_spec(e2_model, "S1", np.zeros(2))
        assert np.array_equal(default.delta, np.zeros(2))

    @pytest.mark.parametrize("k", [4, -1])
    def test_target_outside_the_model_rejected(self, k):
        model = build_model(random_economy(EconomyGenSpec(n=4, seed=1)))
        with pytest.raises(KeyError, match=rf"sector index {k} out of range"):
            make_extraction_spec(model, k, np.full(4, 0.5), f_bar=np.ones(4))


def oracle_alpha(kind, n, rng):
    return {
        "zero": np.zeros(n),
        "uniform": np.full(n, rng.uniform()),
        "one": np.ones(n),
        "random": rng.uniform(0.0, 1.0, n),
    }[kind]


class TestFastRoutesMatchOracles:
    """Each matrix-vector route on L against the dense re-solve it replaces."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
    def test_inoperability(self, seed, n):
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=seed)))
        delta = random_loss(model.table, np.random.default_rng(seed + 1))
        q_loss = inoperability_oracle(model, delta)
        result = inoperability(model, delta)
        assert np.abs(result.q + q_loss).max() <= 1e-12 * np.abs(q_loss).max()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 40),
        kind=st.sampled_from(["zero", "uniform", "one", "random"]),
    )
    def test_partial_extraction(self, seed, n, kind):
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=seed)))
        rng = np.random.default_rng(seed + 2)
        k = int(rng.integers(0, n))
        f_bar = model.f * rng.uniform(0.1, 1.0, n)
        spec = make_extraction_spec(model, k, oracle_alpha(kind, n, rng), f_bar=f_bar)
        dx = partial_extraction_oracle(model, spec)
        result = partial_extraction(model, spec)
        # The dense dx is a difference of two outputs, exact to their rounding.
        x_bar = np.abs(result.dx + model.x0).max()
        assert np.abs(result.dx - dx).max() <= 1e-12 * x_bar


class TestModelBaseline:
    """Extraction measures its change from the model's own output x0 = L f,
    not from the table's x."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2, 40, 128, 129, 300]), seed=st.integers(0, 10_000),
           k=st.integers(0, 299))
    def test_null_scenario_changes_nothing(self, n, seed, k):
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=seed)))
        k %= n
        null = DemandDelta(scenario="null", target=model.table.codes[k], delta=np.zeros(n))
        assert np.array_equal(inoperability(model, null).dx, np.zeros(n))
        spec = make_extraction_spec(model, k, np.zeros(n))  # alpha = 0, f_bar = f
        assert np.array_equal(partial_extraction(model, spec).dx, np.zeros(n))

    def test_identity_error_of_the_table_stays_out(self):
        # A table whose x is off by 1e-7 relative still validates at 1e-6.
        # Measured from that x, a null extraction moved total output by
        # -2.0e-4; measured from x0 = L f, it moves nothing.
        base = random_economy(EconomyGenSpec(n=300, seed=3))
        wobble = np.random.default_rng(3).uniform(-1.0, 1.0, 300)
        table = replace(base, x=base.x * (1.0 + 1e-7 * wobble))
        assert validate_table(table, 1e-6).passed
        model = build_model(table)
        assert abs((model.x0 - model.x).sum()) > 1e-4
        result = partial_extraction(model, make_extraction_spec(model, 0, np.zeros(300)))
        assert result.dx.sum() == 0.0
        assert result.totals["output"] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 40, 128, 129, 300]), seed=st.integers(0, 10_000),
           sparse=st.booleans())
    def test_zero_alpha_extraction_is_inoperability(self, n, seed, sparse):
        # The same u = L (f_bar - f), but from a two-column solve against a
        # one-column one: equal to the last bits, not bit for bit.
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=seed)))
        rng = np.random.default_rng(seed + 3)
        delta = random_loss(model.table, rng)
        if sparse:
            delta = replace(delta, delta=np.where(rng.random(n) < 0.9, 0.0, delta.delta))
        k = int(rng.integers(n))
        f_bar = model.f + delta.delta
        ext = partial_extraction(model, make_extraction_spec(model, k, np.zeros(n), f_bar=f_bar))
        ino = inoperability(model, replace(delta, delta=f_bar - model.f))
        assert np.abs(ext.dx - ino.dx).max() <= 1e-13 * np.abs(ino.dx).max()

    def test_baseline_is_read_only_and_solves_for_f(self, e2_model):
        model = build_model(random_economy(EconomyGenSpec(n=300, seed=7)))
        assert not model.x0.flags.writeable
        assert model.x0.tobytes() == model.solve(model.f).tobytes()
        assert np.allclose(e2_model.x0, [100.0, 100.0], rtol=1e-15, atol=0.0)


class TestUpdateDenominators:
    def test_negative_flows_rejected(self):
        # A = [[0, -0.5], [0.5, 0]] passes the column-sum test, but its
        # L = [[0.8, -0.4], [0.4, 0.8]] would put the rank-one update
        # denominator below one; the model refuses a negative or NaN flow up
        # front.
        for flow, shown in ((-50.0, "-50.0"), (np.nan, "nan")):
            Z = np.array([[0.0, flow], [50.0, 0.0]])
            table = make_table(Z, [150.0, 50.0], [100.0, 100.0])
            with pytest.raises(ValueError, match=rf"Z\[S1, S2\] is {shown};"):
                build_model(table)

    def test_nan_alpha_rejected(self, e2_model):
        with pytest.raises(ValueError, match="intensities"):
            make_extraction_spec(e2_model, "S1", np.array([np.nan, np.nan]))

    def test_nan_denominator_rejected(self, e2_model):
        broken = replace(e2_model, L=np.full((2, 2), np.nan))
        spec = make_extraction_spec(e2_model, 0, np.ones(2), f_bar=e2_model.f)
        with pytest.raises(NonProductiveEconomyError, match="is nan, not at least one"):
            partial_extraction(broken, spec)


class TestSatelliteDeltas:
    def test_elementwise_product(self, e2_model):
        deltas = satellite_deltas(e2_model, np.array([-30.0, -15.0]))
        assert np.allclose(deltas["employment"], [-3.0, -3.0], atol=1e-12)

    def test_zero_dx(self, e2_model):
        deltas = satellite_deltas(e2_model, np.zeros(2))
        for vec in deltas.values():
            assert np.array_equal(vec, np.zeros(2))

    def test_result_arrays_are_read_only(self, e2, e2_model):
        # A result's satellite changes refuse writes, as its q and dx do,
        # for each method and after a blowup; the caller's arrays stay writable.
        delta = e2_delta(e2)
        changes = {"employment": np.array([1.0, 2.0])}
        shock = make_extraction_spec(e2_model, "S1", np.full(2, 0.5))
        results = [inoperability(e2_model, delta), partial_extraction(e2_model, shock)]
        results += [apply_blowup(results[0], 1.092),
                    replace(results[0], satellite_changes=changes)]
        for result in results:
            for vec in (result.q, result.dx, *result.satellite_changes.values()):
                with pytest.raises(ValueError, match="read-only"):
                    vec[0] = 1e9
        assert changes["employment"].flags.writeable


def hand_built(**change):
    """An e2-sized result built by hand, with ``change`` to its fields."""
    fields = dict(
        method="inoperability", scenario="demo", sectors=(Sector("S1", "a"), Sector("S2", "b")),
        q=[-0.3, -0.15], dx=[-30.0, -15.0], satellite_changes={"employment": [-3.0, -3.0]},
        totals={"output": -45.0, "employment": -6.0}, pct_output=-0.225,
    )
    return ImpactResult(**{**fields, **change})


class TestImpactResult:
    """Building a result is its one check: one read-only, finite block."""

    @settings(max_examples=150, deadline=None)
    @given(
        where=st.sampled_from(["q", "dx", "employment", "output", "employment total",
                               "pct_output", "blowup_applied"]),
        at=st.integers(0, 1),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        b=st.sampled_from([1.0, 1.092, 1e10]),
    )
    def test_non_finite_figure_names_the_scenario(self, where, at, bad, b):
        result = hand_built(blowup_applied=b)
        if where in ("q", "dx", "employment"):
            vectors = {"q": result.q, "dx": result.dx, **result.satellite_changes}
            vector = vectors[where].copy()
            vector[at] = bad
            change = ({"satellite_changes": {"employment": vector}} if where == "employment"
                      else {where: vector})
        elif where.endswith("total"):
            change = {"totals": {**result.totals, "employment": bad}}
        elif where == "output":
            change = {"totals": {**result.totals, "output": bad}}
        else:
            change = {where: bad}
        factor = bad if where == "blowup_applied" else b
        what = "the impact" if factor == 1 else f"the impact times the blowup factor {factor:g}"
        message = f"scenario 'demo': {what} overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(result, **change)

    @pytest.mark.parametrize("change,shapes,n", [
        ({"q": [0.1, 0.2, 0.3]}, "'q': (3,), 'dx': (2,), 'employment': (2,)", 2),
        ({"dx": [1.0]}, "'q': (2,), 'dx': (1,), 'employment': (2,)", 2),
        ({"satellite_changes": {"employment": [1.0, 2.0, 3.0]}},
         "'q': (2,), 'dx': (2,), 'employment': (3,)", 2),
        ({"q": [[0.1, 0.2]]}, "'q': (1, 2), 'dx': (2,), 'employment': (2,)", 2),
        ({"sectors": (Sector("S1", "a"),)}, "'q': (2,), 'dx': (2,), 'employment': (2,)", 1),
    ])
    def test_vectors_without_one_value_per_sector_refused(self, change, shapes, n):
        message = re.escape(f"scenario 'demo': vectors of shapes {{{shapes}}} for {n} sectors;")
        with pytest.raises(ValueError, match=message):
            hand_built(**change)

    def test_vectors_are_rows_of_one_read_only_block(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        vectors = [result.q, result.dx, *result.satellite_changes.values()]
        assert all(vector.base is result.q.base for vector in vectors)
        for vector in vectors:
            with pytest.raises(ValueError):
                vector.setflags(write=True)
        assert result.q.tolist() == pytest.approx([-0.30, -0.15])

    def test_mappings_refuse_writes(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        with pytest.raises(TypeError):
            result.totals["output"] = 0.0
        with pytest.raises(TypeError):
            result.satellite_changes["employment"] = np.zeros(2)
        assert result.totals["output"] == pytest.approx(-45.0)


class TestBlowup:
    def test_scales_nominal_only(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        inflated = apply_blowup(result, 1.092)
        assert np.array_equal(inflated.dx, result.dx * 1.092)
        assert np.array_equal(inflated.q, result.q)
        assert inflated.pct_output == result.pct_output
        assert inflated.blowup_applied == pytest.approx(1.092)
        for kind in result.satellite_changes:
            assert np.array_equal(
                inflated.satellite_changes[kind], result.satellite_changes[kind] * 1.092
            )

    def test_published_aggregate_division_check(self):
        # -18 211 pre-inflation corresponds to the -19 886 published figure.
        assert -18211 * 1.092 == pytest.approx(-19886, abs=1.0)

    def test_identity_factor(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        same = apply_blowup(result, 1.0)
        assert np.array_equal(same.dx, result.dx)

    def test_commutes_with_satellite_translation(self, e2_model):
        dx = np.array([-30.0, -15.0])
        b = 1.092
        scale_then_translate = satellite_deltas(e2_model, dx * b)
        translate_then_scale = {k: v * b for k, v in satellite_deltas(e2_model, dx).items()}
        for kind in scale_then_translate:
            assert np.allclose(
                scale_then_translate[kind], translate_then_scale[kind], atol=1e-12
            )

    def test_non_positive_factor_rejected(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        with pytest.raises(ValueError):
            apply_blowup(result, 0.0)

    @pytest.mark.parametrize("b", [float("nan"), float("inf"), 10**400])
    def test_non_finite_factor_rejected(self, e2, e2_model, b):
        result = inoperability(e2_model, e2_delta(e2))
        with pytest.raises(ValueError, match="finite and positive"):
            apply_blowup(result, b)

    # At -1e300 dx times 1e10 overflows; at -6e297 only the output total does.
    @pytest.mark.parametrize("amount", [-1e300, -6e297])
    def test_factor_that_overflows_a_figure_names_scenario_and_factor(self, e2, e2_model, amount):
        result = inoperability(e2_model, e2_delta(e2, amount))
        message = "scenario 'demo': the impact times the blowup factor 1e+10 overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_blowup(result, 1e10)

    @pytest.mark.parametrize("b", [True, False, np.True_, "1.5", None, [1.0]])
    def test_non_number_factor_rejected(self, e2, e2_model, b):
        # The rule ScenarioSpec applies to blowup_factor: no bool, no string.
        result = inoperability(e2_model, e2_delta(e2))
        message = re.escape(f"blowup factor must be a number, got {b!r}")
        with pytest.raises(ValueError, match=message):
            apply_blowup(result, b)
        with pytest.raises(ScenarioConfigError, match="blowup_factor must be a number"):
            ScenarioSpec(name="x", target_sector="S1", sub_service_drop=0.5, blowup_factor=b)

    @pytest.mark.parametrize("b", [2, np.int64(2), np.float64(1.5), 1.092])
    def test_real_number_factors_accepted(self, e2, e2_model, b):
        result = inoperability(e2_model, e2_delta(e2))
        assert apply_blowup(result, b).blowup_applied == float(b)

    def test_fraction_factor_gives_float_vectors(self, e2, e2_model):
        result = inoperability(e2_model, e2_delta(e2))
        got, want = apply_blowup(result, Fraction(3, 2)), apply_blowup(result, 1.5)
        assert got.blowup_applied == 1.5 and got.totals == want.totals
        assert got.satellite_changes.keys() == want.satellite_changes.keys()
        for kind, vec in got.satellite_changes.items():
            assert vec.dtype == np.float64
            assert vec.tobytes() == want.satellite_changes[kind].tobytes()


class TestBlowupEstimate:
    def test_two_ratio_history(self):
        # Ratios 1.2 and 1.0, then two projection years at 4% growth.
        fd = {2015: 1000.0, 2016: 1048.0, 2017: 1048.0 * 1.04}
        gdp = {2016: 0.04, 2017: 0.04, 2018: 0.04, 2019: 0.04}
        assert estimate_blowup_factor(fd, gdp) == pytest.approx(1.044**2, abs=1e-9)
        assert estimate_blowup_factor(fd, gdp) == pytest.approx(1.0899, abs=1e-4)

    def test_zero_projection_growth(self):
        fd = {2015: 1000.0, 2016: 1048.0, 2017: 1090.0}
        gdp = {2016: 0.04, 2017: 0.04, 2018: 0.0, 2019: 0.0}
        assert estimate_blowup_factor(fd, gdp) == pytest.approx(1.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="ratio observations"):
            estimate_blowup_factor({2017: 100.0}, {2018: 0.02})

    def test_zero_total_rejected(self):
        fd = {2015: 0.0, 2016: 1048.0, 2017: 1090.0}
        gdp = {2016: 0.04, 2017: 0.04, 2018: 0.04}
        with pytest.raises(ValueError, match="2015 is zero"):
            estimate_blowup_factor(fd, gdp)

    HISTORY = {2015: 1000.0, 2016: 1048.0, 2017: 1090.0}
    GROWTH = {2016: 0.04, 2017: 0.04, 2018: 0.04, 2019: 0.04}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("series,year", [("GDP growth", 2018), ("GDP growth", 2016),
                                             ("final-demand total", 2016)],
                             ids=["projection-growth", "historical-growth", "total"])
    def test_non_finite_input_names_its_year(self, series, year, value):
        fd, gdp = dict(self.HISTORY), dict(self.GROWTH)
        (gdp if series == "GDP growth" else fd)[year] = value
        with pytest.raises(ValueError, match=f"^{series} for {year} is {value}; it must be finite$"):
            estimate_blowup_factor(fd, gdp)

    @pytest.mark.parametrize("projection,shown", [((1e308, 1e308), "inf"), ((-2.0, 0.04), "-")],
                             ids=["overflow", "negative"])
    def test_factor_that_is_not_finite_and_positive_is_refused(self, projection, shown):
        gdp = {**self.GROWTH, 2018: projection[0], 2019: projection[1]}
        with pytest.raises(ValueError, match=f"finite and positive, got {shown}"):
            estimate_blowup_factor(self.HISTORY, gdp)


class TestCompare:
    def test_identical_results_zero_difference(self, e2, e2_model):
        a = inoperability(e2_model, e2_delta(e2))
        report = compare_methods(a, a)
        assert all(v == 0 for v in report.total_diffs.values())
        assert np.array_equal(report.dx_diff, np.zeros(2))
        assert report.pct_diff == 0.0

    @pytest.mark.parametrize("what", ["dx", "totals", "pct_output"])
    def test_a_difference_that_overflows_is_refused(self, e2, e2_model, what):
        # Each result is finite and valid; a - b overflows float64. The
        # comparison refuses it as it is built, naming both results, with no
        # RuntimeWarning on the way (warnings are errors under pytest).
        ino = inoperability(e2_model, e2_delta(e2))
        high, low = {"dx": (np.array([1e308, 0.0]), np.array([-1e308, 0.0])),
                     "totals": ({"output": 1e308}, {"output": -1e308}),
                     "pct_output": (1e308, -1e308)}[what]
        up = replace(ino, method="extraction", scenario="up", **{what: high})
        down = replace(ino, scenario="down", **{what: low})
        message = ("comparing scenario 'up' (extraction) with scenario 'down' (inoperability): "
                   "a difference overflows float64")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                compare_methods(up, down)

    def test_extraction_loss_strictly_larger(self, e2, e2_model):
        delta = e2_delta(e2)
        ino = inoperability(e2_model, delta)
        spec = make_extraction_spec(
            e2_model, "S1", np.array([0.5, 0.5]), f_bar=e2.f + delta.delta
        )
        ext = partial_extraction(e2_model, spec)
        assert ext.totals["output"] < ino.totals["output"]
        report = compare_methods(ext, ino)
        assert report.total_diffs["output"] < 0
        assert "S1" in report.top_overlap

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0]), min_size=1, max_size=30
        )
    )
    def test_ranking_matches_sorted_key(self, values):
        # Ascending q, ties (signed zeros included) broken by sector index.
        n = len(values)
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=n)))
        result = inoperability(model, random_loss(model.table, np.random.default_rng(0)))
        result = replace(result, q=np.array(values))
        order = sorted(range(n), key=lambda i: (values[i], i))[:10]
        assert compare_methods(result, result).top_overlap == tuple(
            model.sectors[i].code for i in order
        )

    def test_sector_sets_compare_by_code(self, e2, e2_model):
        a = inoperability(e2_model, e2_delta(e2))
        renamed = replace(a, sectors=tuple(replace(s, name="renamed") for s in a.sectors))
        assert renamed.sectors is not a.sectors
        assert compare_methods(renamed, a).pct_diff == 0.0
        swapped = replace(a, sectors=tuple(
            replace(s, code=code) for s, code in zip(a.sectors, ("S2", "S1"))
        ))
        from ioimpact import StructuralError

        with pytest.raises(StructuralError, match="different sector sets"):
            compare_methods(swapped, a)

    def test_mismatched_sectors_rejected(self, e2, e2_model):
        a = inoperability(e2_model, e2_delta(e2))
        other = make_table(np.zeros((3, 3)), [1, 2, 3], [1, 2, 3])
        other_model = build_model(other)
        b = inoperability(
            other_model,
            DemandDelta(scenario="x", target="S1", delta=np.zeros(3)),
        )
        from ioimpact import StructuralError

        with pytest.raises(StructuralError):
            compare_methods(a, b)


SELECTIONS = [METHODS, METHODS[::-1], METHODS[:1], METHODS[1:]]


@st.composite
def runs(draw):
    """A model at a size on or beside a block boundary, and S shocks: sparse
    losses with repeated, unsorted targets, one shock and target in the last
    sector, and intensities that are zero, uniform or drawn per sector."""
    n = draw(st.sampled_from([1, 2, 128, 129, 300]))
    seed = draw(st.integers(0, 10_000))
    model = build_model(random_economy(EconomyGenSpec(n=n, seed=seed)))
    rng = np.random.default_rng(seed + 5)
    shocks = []
    for s in range(draw(st.integers(1, 40))):
        k = n - 1 if s == 0 else int(rng.integers(n))
        hit = rng.random(n) < 0.1 if s else np.zeros(n, dtype=bool)
        hit[k] = True
        df = np.where(hit, -model.f * rng.uniform(0.1, 0.9, n), 0.0)
        alpha = [np.zeros(n), np.full(n, rng.uniform()), rng.uniform(0.0, 1.0, n)][s % 3]
        shocks.append(DemandDelta(scenario=f"scn{s}", target=model.table.codes[k], delta=df,
                                  alpha=alpha))
    shocks.insert(int(rng.integers(len(shocks) + 1)), shocks.pop(0))
    return model, shocks


def max_rel(got, ref, scale=None):
    """max |got - ref| relative to max |ref| (or ``scale``); exact when both are zero."""
    scale = np.abs(ref).max() if scale is None else scale
    err = np.abs(got - ref).max()
    return err if scale == 0 else err / scale


class TestScenarioImpacts:
    """The one route of a run against the per-scenario functions and the
    dense oracles."""

    @settings(max_examples=30, deadline=None)
    @given(run=runs(), methods=st.sampled_from(SELECTIONS))
    def test_every_result_matches_the_one_scenario_route_and_the_oracles(self, run, methods):
        model, shocks = run
        impacts = scenario_impacts(model, shocks, methods)
        assert len(impacts) == len(shocks)
        for delta, results in zip(shocks, impacts):
            assert [r.method for r in results] == list(methods)
            for result in results:
                assert result.scenario == delta.scenario
                if result.method == "inoperability":
                    one = inoperability(model, delta)
                    q_loss = inoperability_oracle(model, delta)
                    assert max_rel(-result.q, q_loss) <= 1e-9
                else:
                    f_bar = model.f + delta.delta
                    spec = make_extraction_spec(model, delta.target, delta.alpha, f_bar=f_bar,
                                                label=delta.scenario)
                    one = partial_extraction(model, spec)
                    x_bar = np.abs(result.dx + model.x0).max()
                    dense = partial_extraction_oracle(model, spec)
                    assert max_rel(result.dx, dense, scale=x_bar) <= 1e-9
                assert max_rel(result.dx, one.dx) <= 1e-12
                assert max_rel(result.q, one.q) <= 1e-12
                for key, total in one.totals.items():
                    assert max_rel(result.totals[key], total) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(run=runs())
    def test_zero_intensities_give_inoperability_bit_for_bit(self, run):
        model, shocks = run
        shocks = [replace(delta, alpha=np.zeros(model.table.n)) for delta in shocks]
        for ino, ext in scenario_impacts(model, shocks):
            assert ext.dx.tobytes() == ino.dx.tobytes()
            assert ext.totals == ino.totals

    @settings(max_examples=20, deadline=None)
    @given(run=runs(), methods=st.sampled_from(SELECTIONS), at=st.integers(0, 39))
    def test_a_null_shock_changes_nothing(self, run, methods, at):
        model, shocks = run
        n = model.table.n
        delta = shocks[at % len(shocks)]
        shocks.insert(at % (len(shocks) + 1), replace(delta, delta=np.zeros(n), alpha=np.zeros(n)))
        results = scenario_impacts(model, shocks, methods)[at % len(shocks)]
        for result in results:
            assert np.array_equal(result.dx, np.zeros(n))
            assert result.totals["output"] == 0.0

    def test_no_shocks_no_results(self, e2_model):
        assert scenario_impacts(e2_model, []) == []

    @pytest.mark.parametrize(
        "alpha,message",
        [([0.5, 1.5], r"extraction intensities must lie in \[0, 1\]"),
         ([-0.1, 0.5], r"extraction intensities must lie in \[0, 1\]"),
         ([0.5, np.nan], r"extraction intensities must lie in \[0, 1\]"),
         ([0.5], r"alpha has shape \(1,\), not \(2,\)"),
         ([[0.5, 0.5]], r"alpha has shape \(1, 2\), not \(2,\)"),
         (0.5, r"alpha has shape \(\), not \(2,\)")],
    )
    def test_bad_intensities_refused_before_solving(self, e2, e2_model, monkeypatch, alpha,
                                                    message):
        # The shock refuses them as it is built, by hand, by replace or by
        # make_extraction_spec, so no run can be given one.
        monkeypatch.setattr(LeontiefModel, "solve", self.no_solve)
        with pytest.raises(ValueError, match=message):
            e2_delta(e2, alpha=alpha)
        with pytest.raises(ValueError, match=message):
            replace(e2_delta(e2), alpha=alpha)
        with pytest.raises(ValueError, match=message):
            make_extraction_spec(e2_model, "S1", alpha)

    @pytest.mark.parametrize("methods", SELECTIONS)
    def test_non_finite_demand_change_refused_before_solving(self, e2, e2_model, monkeypatch,
                                                             methods):
        monkeypatch.setattr(LeontiefModel, "solve", self.no_solve)
        bad = replace(e2_delta(e2, alpha=np.zeros(2)), delta=np.array([-12.0, np.nan]))
        with pytest.raises(ValueError, match="the demand change is nan at sector S2"):
            scenario_impacts(e2_model, [e2_delta(e2, alpha=np.zeros(2)), bad], methods)

    @pytest.mark.parametrize(
        "methods",
        [(), [], ("inoperability", "inoperability"), ("extraction", "both"), ("both",),
         "inoperability", "extraction", None, ("Inoperability",), {"extraction"}],
    )
    def test_unknown_methods_refused(self, e2, e2_model, monkeypatch, methods):
        monkeypatch.setattr(LeontiefModel, "solve", self.no_solve)
        with pytest.raises(ValueError, match="methods must be a non-empty selection of"):
            scenario_impacts(e2_model, [e2_delta(e2, alpha=np.zeros(2))], methods)

    def test_unknown_target_refused(self, e2, e2_model):
        shock = replace(e2_delta(e2, alpha=np.zeros(2)), target="S9")
        with pytest.raises(KeyError, match="unknown sector code 'S9'"):
            scenario_impacts(e2_model, [shock])
        assert scenario_impacts(e2_model, [shock], ["inoperability"])[0][0].dx[0] != 0

    def test_the_gap_error_names_the_worst_scenario(self, e2, e2_model):
        off = replace(e2_model, L=e2_model.L * (1.0 + 1e-6))
        shocks = [replace(e2_delta(e2, -6.0), scenario=name) for name in "ab"]
        shocks.insert(1, replace(e2_delta(e2, -12.0), scenario="big"))
        with pytest.raises(InternalConsistencyError,
                           match=r"fixed-point system by .* in scenario 'big'"):
            scenario_impacts(off, shocks, ["inoperability"])
        # Extraction alone makes no gap product.
        assert len(scenario_impacts(off, [replace(d, alpha=np.zeros(2)) for d in shocks],
                                    ["extraction"])) == 3
        broken = replace(e2_model, L=np.where(np.eye(2) > 0, np.nan, e2_model.L))
        with pytest.raises(InternalConsistencyError, match=r"by nan in scenario 'a'"):
            scenario_impacts(broken, shocks, ["inoperability"])

    @pytest.mark.parametrize("methods", [METHODS, ["inoperability"], ["extraction"]])
    @pytest.mark.parametrize(
        "amount,what",
        [(-1e308, "the output change L df"), (-5e307, "the impact")],
        ids=["solve", "impact"],
    )
    def test_overflow_names_the_scenario(self, e2, e2_model, methods, amount, what):
        # L df, or a figure built from it, past float64 is the shock's fault,
        # not the model's: ValueError, with no RuntimeWarning on the way.
        shocks = [e2_delta(e2, alpha=np.zeros(2)),
                  replace(e2_delta(e2, amount, alpha=np.zeros(2)), scenario="huge")]
        message = f"scenario 'huge': {what} overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_impacts(e2_model, shocks, methods)

    @staticmethod
    def no_solve(self, rhs):
        raise AssertionError("solved before the inputs were checked")

    # sha256 of the shocks of library_shocks at n = 40 and of every figure
    # scenario_impacts gives for them, pinned: how a shock is built changes
    # no bit of a result.
    LIBRARY_SHOCKS = "b75743280b89106e087fc675dd3358a917b081f16a2002dfd6da3d3d1b2d8ce3"

    @staticmethod
    def library_shocks(model):
        """build_delta's shocks, a savings, a reallocation and an absolute
        change, each with its intensities, and make_extraction_spec's shock
        of the same demand and intensities."""
        specs = [
            ScenarioSpec(name="savings", target_sector="S3", sub_service_drop=0.74,
                         component_ratios={"HH": 1.0, "EXP": 0.93}),
            ScenarioSpec(name="realloc", target_sector="S7", sub_service_drop=0.5,
                         reallocation=Reallocation(0.3, {"S1": 0.25, "S12": 0.75}),
                         intermediate=IntermediateSpec(True, UseRatio({"S2": 0.5}, 0.8))),
            ScenarioSpec(name="absolute", target_sector="S40", sub_service_drop=0.2,
                         absolute_changes={"GOV": -3.5},
                         intermediate=IntermediateSpec(True, UseRatio({}, 0.6))),
        ]
        deltas = [build_delta(model.table, spec) for spec in specs]
        return deltas + [
            make_extraction_spec(model, d.target, d.alpha, f_bar=model.f + d.delta,
                                 label=f"{d.scenario} spec")
            for d in deltas
        ]

    def test_library_shocks_give_the_pinned_bits(self):
        model = build_model(random_economy(EconomyGenSpec(n=40, seed=7)))
        shocks = self.library_shocks(model)
        digest = hashlib.sha256()
        for shock, results in zip(shocks, scenario_impacts(model, shocks)):
            digest.update(shock.delta.tobytes() + shock.alpha.tobytes())
            digest.update(repr(sorted(shock.reallocated.items())).encode())
            for r in results:
                for vector in (r.q, r.dx, *r.satellite_changes.values()):
                    digest.update(vector.tobytes())
                digest.update(repr((sorted(r.totals.items()), r.pct_output)).encode())
        assert digest.hexdigest() == self.LIBRARY_SHOCKS

    @pytest.mark.parametrize("methods", [METHODS, METHODS[:1], METHODS[1:]])
    def test_one_row_major_block(self, monkeypatch, methods):
        model = build_model(random_economy(EconomyGenSpec(n=300, seed=2)))
        calls = []
        solve = LeontiefModel.solve

        def spy(self, rhs):
            calls.append(rhs)
            return solve(self, rhs)

        monkeypatch.setattr(LeontiefModel, "solve", spy)
        shocks = []
        for s, k in enumerate([7, 299, 7]):  # two distinct targets
            delta = random_loss(model.table, np.random.default_rng(s))
            shocks.append(replace(delta, target=model.table.codes[k], alpha=np.full(300, 0.5)))
        scenario_impacts(model, shocks, methods)
        assert len(calls) == 1
        assert calls[0].shape == (300, 3)
        assert calls[0].flags.c_contiguous
        for s, delta in enumerate(shocks):
            assert np.array_equal(calls[0][:, s], delta.delta)

    @pytest.mark.parametrize("n", [6, 130])
    def test_extraction_reads_the_solved_column_of_L(self, n):
        # Every extraction reads L[:, k], which is model.solve(e_k) bit for
        # bit; the result is the Sherman-Morrison formula on that column.
        model = build_model(random_economy(EconomyGenSpec(n=n, seed=3)))
        rng = np.random.default_rng(n)
        targets = [0, n - 1, n // 2, 0]
        shocks = [replace(random_loss(model.table, np.random.default_rng(s)),
                          target=model.table.codes[k], alpha=rng.uniform(0.0, 1.0, n))
                  for s, k in enumerate(targets)]
        results = scenario_impacts(model, shocks)
        u = model.solve(np.column_stack([delta.delta for delta in shocks]))
        for s, k in enumerate(targets):
            l_k = model.solve(np.eye(n)[k])
            assert l_k.tobytes() == model.L[:, k].tobytes()
            d = model.A[k] * shocks[s].alpha
            d[k] = 0.0
            want = u[:, s] - l_k * ((d @ (model.x0 + u[:, s])) / (1.0 + d @ l_k))
            got = results[s][1].dx
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
