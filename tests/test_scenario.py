import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioimpact import (
    DemandDelta,
    FinalDemandBlock,
    IOTable,
    Reallocation,
    ScenarioConfigError,
    ScenarioSpec,
    Sector,
    UseRatio,
    build_delta,
    build_model,
    extraction_intensities,
    parse_scenario,
)
from ioimpact.impact import scenario_impacts
from ioimpact.scenario import IntermediateSpec
from ioimpact.table import FD_COMPONENTS
from ioimpact.testkit import EconomyGenSpec, random_economy

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ioimpact" / "fixtures"


def spec_s1(alpha=0.4, **kwargs):
    return ScenarioSpec(
        name="s1", target_sector="S1", sub_service_drop=alpha,
        component_ratios={"HH": 1.0}, **kwargs,
    )


class TestScenario1:
    def test_e2_drop(self, e2):
        delta = build_delta(e2, spec_s1())
        assert np.allclose(delta.delta, [-12.0, 0.0], atol=1e-12)
        # Households alone buy S1's final demand: the drop is 40 % of it.
        household = e2.final_demand.component("household_consumption")[0]
        assert delta.delta[0] == pytest.approx(-household * 0.4)
        assert delta.delta[0] / e2.f[0] == pytest.approx(-0.4)

    def test_zero_alpha_means_no_shock(self, e2):
        delta = build_delta(e2, spec_s1(alpha=0.0))
        assert np.array_equal(delta.delta, [0.0, 0.0])

    def test_default_ratios_spare_capital_formation(self):
        fd = FinalDemandBlock.from_components(
            2,
            household_consumption=[10.0, 0.0],
            gross_fixed_capital_formation=[20.0, 0.0],
            exports=[10.0, 0.0],
        )
        table = IOTable(
            sectors=(Sector("S1", "one"), Sector("S2", "two")),
            Z=[[10, 10], [10, 10]],
            final_demand=fd,
            imports=[0, 0],
            value_added=[40, 10],
            x=[60, 30],
        )
        spec = ScenarioSpec(name="d", target_sector="S1", sub_service_drop=0.5)
        delta = build_delta(table, spec)
        # household and exports default to fully exposed, capital formation to
        # exempt: each ratio set by hand to the other value moves the drop by
        # that component's half.
        assert delta.delta[0] == pytest.approx(-10.0)
        for ratios, drop in (({"HH": 0.0}, -5.0), ({"EXP": 0.0}, -5.0), ({"GFCF": 1.0}, -20.0)):
            set_by_hand = replace(spec, component_ratios=ratios)
            assert build_delta(table, set_by_hand).delta[0] == pytest.approx(drop)

    def test_absolute_changes_override_percentage_rule(self, e2):
        spec = ScenarioSpec(
            name="abs", target_sector="S1", sub_service_drop=0.4,
            component_ratios={"HH": 1.0}, absolute_changes={"HH": -7.5},
        )
        delta = build_delta(e2, spec)
        assert delta.delta[0] == pytest.approx(-7.5)

    @pytest.mark.parametrize(
        "shares,value",
        [({}, "-inf"), ({"S2": 1.0}, "-inf"), ({"S1": 1.0}, "nan")],
        ids=["savings", "reallocation", "reallocation-to-target"],
    )
    def test_change_past_float64_names_scenario_and_sector(self, e2, shares, value):
        # Each change is finite, their sum is not; returning the pool of an
        # infinite loss to the target adds inf to -inf without a warning.
        spec = ScenarioSpec(
            name="huge", target_sector="S1", sub_service_drop=0.4,
            absolute_changes={"HH": -1e308, "GOV": -1e308},
            reallocation=Reallocation(savings_fraction=0.0, shares=shares) if shares else None,
        )
        message = f"scenario 'huge': the demand change is {value} at sector S1; it must be finite"
        with pytest.raises(ScenarioConfigError, match=f"^{message}$"):
            build_delta(e2, spec)

    def test_does_not_mutate_table(self, e2):
        before = e2.final_demand.values.copy()
        build_delta(e2, spec_s1())
        assert np.array_equal(e2.final_demand.values, before)


class TestScenario2:
    def test_e2_reallocation(self, e2):
        spec = spec_s1(reallocation=Reallocation(savings_fraction=0.5, shares={"S2": 1.0}))
        delta = build_delta(e2, spec)
        assert np.allclose(delta.delta, [-12.0, 6.0], atol=1e-12)
        assert delta.reallocated == {"S2": pytest.approx(6.0)}

    def test_full_savings_matches_scenario1(self, e2):
        spec = spec_s1(reallocation=Reallocation(savings_fraction=1.0, shares={"S2": 1.0}))
        d2 = build_delta(e2, spec)
        d1 = build_delta(e2, spec_s1())
        assert np.array_equal(d2.delta, d1.delta)

    def test_exports_never_reallocate(self):
        fd = FinalDemandBlock.from_components(
            2, household_consumption=[10.0, 0.0], exports=[30.0, 0.0]
        )
        table = IOTable(
            sectors=(Sector("S1", "one"), Sector("S2", "two")),
            Z=[[10, 10], [10, 10]],
            final_demand=fd,
            imports=[0, 0],
            value_added=[40, 10],
            x=[60, 30],
        )
        spec = ScenarioSpec(
            name="exp", target_sector="S1", sub_service_drop=0.5,
            reallocation=Reallocation(savings_fraction=0.0, shares={"S2": 1.0}),
        )
        delta = build_delta(table, spec)
        # pool excludes the 15 export loss: only the 5 household loss returns
        assert delta.reallocated["S2"] == pytest.approx(5.0)
        assert delta.delta[0] == pytest.approx(-20.0)

    def test_unknown_reallocation_sector(self, e2):
        spec = spec_s1(reallocation=Reallocation(savings_fraction=0.5, shares={"S9": 1.0}))
        with pytest.raises(KeyError):
            build_delta(e2, spec)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ScenarioConfigError, match="0.95"):
            Reallocation(savings_fraction=0.5, shares={"S1": 0.5, "S2": 0.45})

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), savings=st.floats(0.0, 1.0))
    def test_conservation_and_dominance(self, seed, savings):
        table = random_economy(EconomyGenSpec(n=6, seed=seed))
        shares = {"S2": 0.25, "S3": 0.25, "S4": 0.5}
        spec = ScenarioSpec(
            name="prop", target_sector="S1", sub_service_drop=0.6,
            reallocation=Reallocation(savings_fraction=savings, shares=shares),
        )
        d2 = build_delta(table, spec)
        d1 = build_delta(
            table, ScenarioSpec(name="prop", target_sector="S1", sub_service_drop=0.6)
        )
        from ioimpact.scenario import CONSUMPTION_COMPONENTS

        consumption_drop = -sum(table.final_demand.component(c)[0] * spec.component_ratio(c)
                                for c in CONSUMPTION_COMPONENTS) * spec.sub_service_drop
        expected_pool = (1 - savings) * abs(consumption_drop)
        assert math.fsum(d2.reallocated.values()) == pytest.approx(expected_pool, rel=1e-12, abs=1e-12)
        assert np.all(d2.delta >= d1.delta - 1e-15)


class TestPaperShapedArithmetic:
    """The published component table, reconstructed: component values chosen
    so a 74% sub-service drop reproduces the reported changes."""

    def table(self):
        alpha = 0.74
        hh = 4955 / alpha
        npish = 1.5 / alpha
        gov = 48 / alpha
        exp = 7748 / (0.93 * alpha)
        fd = FinalDemandBlock.from_components(
            2,
            household_consumption=[hh, 1000.0],
            npish_consumption=[npish, 0.0],
            government_consumption=[gov, 0.0],
            exports=[exp, 0.0],
        )
        f = fd.values.sum(axis=1)
        Z = np.array([[1000.0, 500.0], [800.0, 600.0]])
        x = Z.sum(axis=1) + f
        return IOTable(
            sectors=(Sector("AT", "Air transport"), Sector("WHS", "Warehousing")),
            Z=Z,
            final_demand=fd,
            imports=[0.0, 0.0],
            value_added=x - Z.sum(axis=0),
            x=x,
        )

    def spec(self, reallocation=None):
        return ScenarioSpec(
            name="covid", target_sector="AT", sub_service_drop=0.74,
            component_ratios={"HH": 1.0, "NPISH": 1.0, "GOV": 1.0, "EXP": 0.93, "GFCF": 0.0},
            reallocation=reallocation,
        )

    def test_component_changes_and_71pct_total(self):
        table, spec = self.table(), self.spec()
        delta = build_delta(table, spec)
        c = {comp: -table.final_demand.component(comp)[0] * spec.component_ratio(comp)
             * spec.sub_service_drop for comp in FD_COMPONENTS}
        assert c["household_consumption"] == pytest.approx(-4955, abs=0.01)
        assert c["npish_consumption"] == pytest.approx(-1.5, abs=0.01)
        assert c["government_consumption"] == pytest.approx(-48, abs=0.01)
        assert c["exports"] == pytest.approx(-7748, abs=0.01)
        assert delta.delta[0] == pytest.approx(math.fsum(c.values()), abs=1e-9)
        assert delta.delta[0] == pytest.approx(-12752.5, abs=0.1)
        assert delta.delta[0] / table.f[0] == pytest.approx(-0.71, abs=0.005)

    def test_half_of_consumption_drop_reallocates(self):
        realloc = Reallocation(savings_fraction=0.5, shares={"WHS": 1.0})
        delta = build_delta(self.table(), self.spec(realloc))
        assert delta.reallocated["WHS"] == pytest.approx(0.5 * (4955 + 1.5 + 48), abs=0.01)


class TestExtractionIntensities:
    def test_ratio_times_drop(self, e2):
        spec = ScenarioSpec(
            name="x", target_sector="S1", sub_service_drop=0.74,
            intermediate=IntermediateSpec(
                apply=True, use_ratios=UseRatio(ratios={"S1": 0.07, "S2": 1.0})
            ),
        )
        alpha = extraction_intensities(e2, spec)
        assert alpha[0] == pytest.approx(0.0518)
        assert alpha[1] == pytest.approx(0.74)

    def test_zero_ratio_leaves_coefficient_untouched(self, e2):
        spec = ScenarioSpec(
            name="x", target_sector="S1", sub_service_drop=0.74,
            intermediate=IntermediateSpec(apply=True, use_ratios=UseRatio(ratios={}, default=0.0)),
        )
        assert np.array_equal(extraction_intensities(e2, spec), [0.0, 0.0])

    def test_default_ratio_applies_to_missing_sectors(self, e2):
        spec = ScenarioSpec(
            name="x", target_sector="S1", sub_service_drop=0.5,
            intermediate=IntermediateSpec(
                apply=True, use_ratios=UseRatio(ratios={"S1": 0.2}, default=0.8)
            ),
        )
        assert np.allclose(extraction_intensities(e2, spec), [0.1, 0.4])

    def test_no_intermediate_block_means_zero(self, e2):
        assert np.array_equal(extraction_intensities(e2, spec_s1()), [0.0, 0.0])

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ScenarioConfigError):
            UseRatio(ratios={"S1": 1.2})

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        drop=st.floats(0.0, 1.0),
        default=st.floats(0.0, 1.0),
        named=st.dictionaries(st.integers(0, 39), st.floats(0.0, 1.0), max_size=8),
    )
    def test_bit_identical_to_per_sector_route(self, n, drop, default, named):
        table = random_economy(EconomyGenSpec(n=n, seed=1))
        ratios = UseRatio(ratios={f"S{j % n + 1}": r for j, r in named.items()}, default=default)
        spec = ScenarioSpec(
            name="x", target_sector="S1", sub_service_drop=drop,
            intermediate=IntermediateSpec(apply=True, use_ratios=ratios),
        )
        want = np.array([ratios.ratios.get(code, ratios.default) * drop for code in table.codes])
        got = extraction_intensities(table, spec)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_unknown_ratio_sector_rejected(self, e2):
        spec = ScenarioSpec(
            name="x", target_sector="S1", sub_service_drop=0.5,
            intermediate=IntermediateSpec(apply=True, use_ratios=UseRatio(ratios={"S9": 0.5})),
        )
        with pytest.raises(KeyError):
            extraction_intensities(e2, spec)
        with pytest.raises(KeyError, match="unknown sector code 'S9'"):
            build_delta(e2, spec)

    @pytest.mark.parametrize("n", [None, 1, 7])  # None: e2
    @pytest.mark.parametrize(
        "intermediate",
        [None, IntermediateSpec(False, UseRatio({"S1": 0.3})),
         IntermediateSpec(True, UseRatio({"S1": 0.3}, default=0.6))],
        ids=["none", "not-applied", "applied"],
    )
    def test_build_delta_carries_the_intensities(self, e2, n, intermediate):
        table = e2 if n is None else random_economy(EconomyGenSpec(n=n, seed=n))
        spec = ScenarioSpec(name="x", target_sector="S1", sub_service_drop=0.74,
                            intermediate=intermediate)
        alpha = build_delta(table, spec).alpha
        want = extraction_intensities(table, spec)
        assert (alpha.dtype, alpha.tobytes()) == (np.float64, want.tobytes())
        assert not alpha.flags.writeable

    def test_a_hand_built_shock_has_zero_intensities(self, e2):
        # A shock built without alpha extracts nothing from interindustry
        # demand: its extraction is its inoperability, bit for bit.
        delta = DemandDelta("s", "S1", [-12.0, 0.0])
        assert (delta.delta.dtype, delta.delta.tolist()) == (np.float64, [-12.0, 0.0])
        assert (delta.alpha.dtype, delta.alpha.tolist()) == (np.float64, [0.0, 0.0])
        assert not delta.alpha.flags.writeable
        ino, ext = scenario_impacts(build_model(e2), [delta])[0]
        assert ext.dx.tobytes() == ino.dx.tobytes()


@st.composite
def bad_intensities(draw):
    """A shock's size n, the alpha it refuses and the message: a NaN, a
    value outside [0, 1] (infinities too), or a shape other than (n,)."""
    n = draw(st.integers(1, 6))
    alpha = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    fault = draw(st.sampled_from(["nan", "range", "shape"]))
    if fault == "shape":
        shape = draw(st.lists(st.integers(0, 3), max_size=3).map(tuple).filter(lambda s: s != (n,)))
        return n, np.full(shape, 0.5), re.escape(f"alpha has shape {shape}, not ({n},)")
    at = draw(st.integers(0, n - 1))
    alpha[at] = np.nan if fault == "nan" else draw(
        st.floats(allow_nan=False).filter(lambda v: not 0.0 <= v <= 1.0))
    return n, alpha, re.escape("extraction intensities must lie in [0, 1]")


class TestShockIntensities:
    """A shock checks its intensities once, when it is built."""

    @settings(max_examples=200, deadline=None)
    @given(case=bad_intensities())
    def test_bad_intensities_refused_when_built(self, case):
        n, alpha, message = case
        with pytest.raises(ValueError, match=message):
            DemandDelta("s", "S1", np.zeros(n), alpha=alpha)
        with pytest.raises(ValueError, match=message):
            replace(DemandDelta("s", "S1", np.zeros(n)), alpha=alpha)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_good_intensities_kept_and_the_default_is_zeros(self, values):
        n = len(values)
        given_alpha = DemandDelta("s", "S1", np.ones(n), alpha=values).alpha
        default = DemandDelta("s", "S1", np.ones(n)).alpha
        for alpha, want in ((given_alpha, values), (default, [0.0] * n)):
            assert (alpha.dtype, alpha.shape, alpha.tolist()) == (np.float64, (n,), want)
            assert not alpha.flags.writeable


class TestSpecValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ScenarioConfigError):
            ScenarioSpec(name="bad", target_sector="S1", sub_service_drop=1.2)

    def test_component_ratio_out_of_range(self):
        with pytest.raises(ScenarioConfigError):
            ScenarioSpec(
                name="bad", target_sector="S1", sub_service_drop=0.5,
                component_ratios={"HH": -0.1},
            )

    def test_unknown_component_rejected(self):
        with pytest.raises(ScenarioConfigError):
            ScenarioSpec(
                name="bad", target_sector="S1", sub_service_drop=0.5,
                component_ratios={"XX": 0.5},
            )

    def test_numbers_are_stored_as_floats(self, e2):
        # A real number of any type, numpy scalars included, is kept as a
        # float, so build_delta never multiplies by a numpy scalar.
        spec = ScenarioSpec(
            name="s", target_sector="S1", sub_service_drop=np.float32(0.5),
            component_ratios={"HH": 1}, absolute_changes={"EXP": np.int64(-3)},
            blowup_factor=np.float32(2.0),
            reallocation=Reallocation(savings_fraction=np.int64(0), shares={"S2": 1}),
            intermediate=IntermediateSpec(
                apply=True, use_ratios=UseRatio({"S2": np.float32(0.25)}, np.int64(1))
            ),
        )
        values = [spec.sub_service_drop, spec.component_ratios["household_consumption"],
                  spec.absolute_changes["exports"], spec.blowup_factor,
                  spec.reallocation.savings_fraction, spec.reallocation.shares["S2"],
                  spec.intermediate.use_ratios.ratios["S2"], spec.intermediate.use_ratios.default]
        assert values == [0.5, 1.0, -3.0, 2.0, 0.0, 1.0, 0.25, 1.0]
        assert all(type(v) is float for v in values)
        plain = ScenarioSpec(
            name="s", target_sector="S1", sub_service_drop=0.5,
            component_ratios={"HH": 1.0}, absolute_changes={"EXP": -3.0},
            reallocation=Reallocation(savings_fraction=0.0, shares={"S2": 1.0}),
        )
        assert np.array_equal(build_delta(e2, spec).delta, build_delta(e2, plain).delta)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: spec_s1(alpha=np.True_),
             f"sub_service_drop must be a number, got {np.True_!r}"),
            (lambda: UseRatio(default=np.False_),
             f"default use ratio must be a number, got {np.False_!r}"),
        ],
    )
    def test_numpy_bool_is_not_a_number(self, build, message):
        # No scenario file holds one, but float() would take it as 1 or 0.
        # The file's cases run through the classes in test_cli.py.
        with pytest.raises(ScenarioConfigError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: spec_s1(reallocation={"savings_fraction": 0.5, "shares": {"S2": 1.0}}),
             "reallocation must be of class Reallocation, got {'savings_fraction': 0.5, 'shares': {'S2"),
            (lambda: spec_s1(intermediate={"apply": True}),
             "intermediate must be of class IntermediateSpec, got {'apply': True}"),
            (lambda: IntermediateSpec(True, use_ratios={"S1": 0.5}),
             "intermediate use_ratios must be of class UseRatio, got {'S1': 0.5}"),
        ],
    )
    def test_blocks_hold_their_classes(self, build, message):
        # A mapping in place of a block's class used to fail later, inside
        # build_delta or extraction_intensities, with an AttributeError.
        with pytest.raises(ScenarioConfigError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "block,values,message",
        [
            ("absolute_changes", {"EXP": -5.0, "exports": 7.0},
             "absolute_changes names exports twice, as 'EXP' and 'exports'"),
            ("component_ratios", {"HH": 1.0, "household_consumption": 0.25},
             "component_ratios names household_consumption twice, "
             "as 'HH' and 'household_consumption'"),
            ("component_ratios", {"government_consumption": 0.5, "GOV": 0.5},
             "component_ratios names government_consumption twice, "
             "as 'government_consumption' and 'GOV'"),
        ],
    )
    def test_component_named_twice_rejected(self, block, values, message):
        # Otherwise the later of the two spellings would win without a word.
        with pytest.raises(ScenarioConfigError) as exc:
            ScenarioSpec(name="s", target_sector="S1", sub_service_drop=0.5, **{block: values})
        assert str(exc.value) == message

    def test_build_delta_dispatches_on_reallocation(self, e2):
        assert build_delta(e2, spec_s1()).reallocated == {}
        spec = spec_s1(reallocation=Reallocation(savings_fraction=0.5, shares={"S2": 1.0}))
        assert build_delta(e2, spec).reallocated != {}


class TestSpecMappingsReadOnly:
    """A spec's mappings cannot change after its checks; replace checks a
    new spec again."""

    @staticmethod
    def full_spec():
        return spec_s1(
            absolute_changes={"EXP": -3.0},
            reallocation=Reallocation(savings_fraction=0.5, shares={"S2": 1.0}),
            intermediate=IntermediateSpec(apply=True, use_ratios=UseRatio({"S2": 0.25})),
        )

    @pytest.mark.parametrize(
        "mapping, key",
        [
            (lambda spec: spec.component_ratios, "household_consumption"),
            (lambda spec: spec.absolute_changes, "exports"),
            (lambda spec: spec.reallocation.shares, "S2"),
            (lambda spec: spec.intermediate.use_ratios.ratios, "S2"),
        ],
        ids=["component_ratios", "absolute_changes", "shares", "use_ratios"],
    )
    def test_writes_raise(self, e2, mapping, key):
        spec = self.full_spec()
        before = build_delta(e2, spec)
        with pytest.raises(TypeError):
            mapping(spec)[key] = 7.0
        with pytest.raises(TypeError):
            del mapping(spec)[key]
        after = build_delta(e2, spec)
        assert np.array_equal(after.delta, before.delta)
        assert np.array_equal(after.alpha, before.alpha)

    def test_replace_checks_again(self, e2):
        spec = self.full_spec()
        again = replace(spec, sub_service_drop=0.5,
                        reallocation=replace(spec.reallocation, savings_fraction=1.0),
                        intermediate=replace(spec.intermediate, use_ratios=replace(
                            spec.intermediate.use_ratios, default=0.5)))
        assert again.component_ratios == {"household_consumption": 1.0}
        assert again.reallocation.shares == {"S2": 1.0}
        assert again.intermediate.use_ratios.ratios == {"S2": 0.25}
        assert np.array_equal(build_delta(e2, again).alpha, [0.25, 0.125])
        with pytest.raises(ScenarioConfigError, match="component ratio for 'HH' must lie in"):
            replace(spec, component_ratios={"HH": 7.0})


class TestBlowupFactorRule:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_must_be_finite_and_positive(self, value):
        with pytest.raises(ScenarioConfigError, match="finite and positive"):
            spec_s1(blowup_factor=value)


class TestParseScenario:
    def test_bundled_covid_fixture(self):
        spec = parse_scenario(FIXTURES / "scenarios" / "covid_scenario1.json")
        assert spec.sub_service_drop == 0.74
        assert spec.component_ratios["exports"] == 0.93
        assert spec.component_ratios["household_consumption"] == 1.0
        assert spec.component_ratios["gross_fixed_capital_formation"] == 0.0
        assert spec.blowup_factor == 1.092
        assert spec.reallocation is None
        assert spec.intermediate.use_ratios.ratios["WHS"] == 0.07

    def test_bundled_covid_reallocation(self):
        spec = parse_scenario(FIXTURES / "scenarios" / "covid_scenario2.json")
        assert spec.reallocation.savings_fraction == 0.5
        assert sum(spec.reallocation.shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert spec.reallocation.shares["WT"] == 0.05

    def test_share_sum_error_reports_sum(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5,'
            ' "reallocation": {"savings_fraction": 0.5,'
            ' "shares": {"A": 0.5, "B": 0.45}}}'
        )
        with pytest.raises(ScenarioConfigError, match="0.95"):
            parse_scenario(p)

    def test_empty_reallocation_means_savings_only(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(
            '{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5, "reallocation": {}}'
        )
        assert parse_scenario(p).reallocation is None

    def test_unknown_fields_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5, "typo": 1}')
        with pytest.raises(ScenarioConfigError, match="typo"):
            parse_scenario(p)

    def test_missing_required_field(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"name": "x", "sub_service_drop": 0.5}')
        with pytest.raises(ScenarioConfigError, match="target_sector"):
            parse_scenario(p)

    def test_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"name": "x\xff", "target_sector": "S1", "sub_service_drop": 0.5}')
        with pytest.raises(ScenarioConfigError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}: not valid UTF-8 (invalid start byte at byte 11)"


# A value for every key a scenario file can hold.
FULL_DOCUMENT = {
    "name": "full",
    "target_sector": "S1",
    "sub_service_drop": 0.5,
    "component_ratios": {"HH": 0.5},
    "absolute_changes": {"EXP": -1.0},
    "reallocation": {"savings_fraction": 0.25, "shares": {"S2": 1.0}},
    "intermediate": {"apply": False, "use_ratios": {"S2": 0.5}, "default_ratio": 0.75},
    "blowup_factor": 1.5,
}


class TestFileKeysAreSpecFields:
    """The top-level keys of a scenario file are the fields of ScenarioSpec
    and the reallocation block's those of Reallocation; only the intermediate
    block flattens its classes."""

    def write(self, tmp_path, document):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(document))
        return path

    def test_every_field_is_a_key(self, tmp_path):
        assert list(FULL_DOCUMENT) == [f.name for f in fields(ScenarioSpec)]
        assert list(FULL_DOCUMENT["reallocation"]) == [f.name for f in fields(Reallocation)]
        spec = parse_scenario(self.write(tmp_path, FULL_DOCUMENT))
        assert spec == ScenarioSpec(
            **{k: v for k, v in FULL_DOCUMENT.items() if k not in ("reallocation", "intermediate")},
            reallocation=Reallocation(**FULL_DOCUMENT["reallocation"]),
            intermediate=IntermediateSpec(False, UseRatio({"S2": 0.5}, 0.75)),
        )

    @pytest.mark.parametrize("block", [None, "reallocation", "intermediate"])
    def test_no_other_key(self, tmp_path, block):
        document = json.loads(json.dumps(FULL_DOCUMENT))
        (document[block] if block else document)["ratios"] = {}
        path = self.write(tmp_path, document)
        with pytest.raises(ScenarioConfigError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}: {block or 'scenario'} has unknown fields ['ratios']"

    @pytest.mark.parametrize("block,key", [
        (None, "name"), (None, "target_sector"), (None, "sub_service_drop"),
        ("reallocation", "savings_fraction"),
    ])
    def test_fields_without_a_default_are_required(self, tmp_path, block, key):
        document = json.loads(json.dumps(FULL_DOCUMENT))
        del (document[block] if block else document)[key]
        path = self.write(tmp_path, document)
        with pytest.raises(ScenarioConfigError) as err:
            parse_scenario(path)
        expected = f"reallocation needs {key}" if block else f"missing required field {key!r}"
        assert str(err.value) == f"{path}: {expected}"

    def test_default_ratio_falls_back_to_use_ratio_default(self, tmp_path):
        path = self.write(tmp_path, {**FULL_DOCUMENT, "intermediate": {"apply": True}})
        assert parse_scenario(path).intermediate == IntermediateSpec(True, UseRatio())


class TestScenarioByteOrderMark:
    """A scenario file may start with a UTF-8 byte-order mark, as CSV inputs
    may; byte offsets still count from the start of the file, and a syntax
    error's line from every line end a CSV input counts."""

    def test_bom_file_reads_as_without(self, tmp_path):
        source = FIXTURES / "e2" / "shock_s1.json"
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        assert parse_scenario(path) == parse_scenario(source)

    def test_bad_byte_after_bom_counts_from_file_start(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xef\xbb\xbf{"name": "x\xff", "target_sector": "S1", '
                         b'"sub_service_drop": 0.5}')
        with pytest.raises(ScenarioConfigError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}: not valid UTF-8 (invalid start byte at byte 14)"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_syntax_error_line_counts_every_line_end(self, tmp_path, eol):
        path = tmp_path / "bad.json"
        path.write_bytes(eol.join(['{"name": "x",', '"target_sector": "S1",', '"drop" 0.5}'])
                         .encode())
        with pytest.raises(ScenarioConfigError) as err:
            parse_scenario(path)
        assert str(err.value) == (
            f"{path}: invalid JSON at line 3, column 8: Expecting ':' delimiter"
        )
