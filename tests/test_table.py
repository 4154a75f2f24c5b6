import copy
from dataclasses import replace

import numpy as np
import pytest

from ioimpact import (
    FinalDemandBlock,
    IOTable,
    SatelliteAccount,
    Sector,
    StructuralError,
    build_model,
    drop_zero_sectors,
    validate_table,
)
from ioimpact.leontief import input_recipe
from ioimpact.testkit import canonical_e2, rescale


def make_table(Z, f_household, x, imports=None, value_added=None, satellites=None):
    Z = np.asarray(Z, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(x)
    residual = x - Z.sum(axis=0)
    if value_added is None and imports is None:
        value_added = residual
        imports = np.zeros(n)
    elif imports is None:
        imports = residual - value_added
    elif value_added is None:
        value_added = residual - imports
    sectors = tuple(Sector(f"S{i + 1}", f"Sector {i + 1}") for i in range(n))
    return IOTable(
        sectors=sectors,
        Z=Z,
        final_demand=FinalDemandBlock.from_components(n, household_consumption=f_household),
        imports=imports,
        value_added=value_added,
        satellites=satellites or {},
        x=x,
    )


class TestValidate:
    def test_e2_passes_both_identities(self, e2):
        # Hand check: rows 50+20+30 and 30+40+30; columns 80-10+30 and 60+0+40.
        report = validate_table(e2)
        assert report.passed
        assert report.violations == ()

    def test_row_identity_violation(self, e2):
        broken = make_table(e2.Z, [30, 30], [100, 101],
                            imports=e2.imports, value_added=e2.value_added)
        report = validate_table(broken)
        assert not report.passed
        rows = [v for v in report.violations if v.kind == "row_identity"]
        assert len(rows) == 1
        assert rows[0].sector == "S2"
        assert rows[0].rel_err == pytest.approx(1 / 101, abs=1e-12)
        assert rows[0].rel_err == pytest.approx(0.0099, abs=1e-4)

    def test_negative_flow_violation(self):
        table = make_table([[50, -1], [30, 40]], [51, 30], [100, 100])
        report = validate_table(table)
        assert not report.passed
        kinds = {v.kind for v in report.violations}
        assert "negative_flow" in kinds
        (negative,) = [v for v in report.violations if v.kind == "negative_flow"]
        # |Z_12| / x_1, the identity checks' denominator: finite, never NaN.
        assert (negative.sector, negative.actual, negative.rel_err) == ("S1", -1.0, 0.01)

    def test_negative_output_violation_with_balanced_identities(self):
        # S2: Z row and column zero, final demand -5, imports -5, x = -5.
        table = make_table([[50, 0], [0, 0]], [50, -5], [100, -5],
                           imports=[0, -5], value_added=[50, 0])
        report = validate_table(table)
        assert not report.passed
        (violation,) = report.violations
        assert (violation.kind, violation.sector, violation.expected, violation.actual,
                violation.rel_err) == ("negative_output", "S2", 0.0, -5.0, 1.0)

    def test_total_uses_row_is_checked_against_output(self, e2):
        report = validate_table(replace(e2, total_uses=[999.0, 100.4]), rel_tol=5e-3)
        assert not report.passed
        (violation,) = report.violations
        assert (violation.kind, violation.sector, violation.expected, violation.actual) == (
            "total_uses", "S1", 100.0, 999.0)
        assert violation.message == "total uses for S1: expected 100, got 999 (rel err 8.99)"
        assert validate_table(replace(e2, total_uses=e2.x)).passed
        with pytest.raises(StructuralError, match="total_uses must have length 2"):
            replace(e2, total_uses=[100.0, 100.0, 0.0])

    def test_rel_tol_must_be_positive(self, e2):
        with pytest.raises(ValueError):
            validate_table(e2, rel_tol=0.0)

    def test_tolerance_is_configurable(self, e2):
        off = make_table(e2.Z, [30, 30.5], [100, 100],
                         imports=e2.imports, value_added=e2.value_added)
        assert not validate_table(off, rel_tol=1e-6).passed
        assert validate_table(off, rel_tol=0.01).passed

    def test_read_only(self, e2):
        before = e2.Z.copy()
        validate_table(e2)
        assert np.array_equal(e2.Z, before)
        assert not e2.Z.flags.writeable

    def test_negative_inventory_accepted_without_warning(self):
        n = 2
        fd = FinalDemandBlock.from_components(
            n, household_consumption=[35, 30], inventory_changes=[-5, 0]
        )
        table = IOTable(
            sectors=(Sector("S1", "Sector 1"), Sector("S2", "Sector 2")),
            Z=[[50, 20], [30, 40]],
            final_demand=fd,
            imports=[0, 0],
            value_added=[20, 40],
            x=[100, 100],
        )
        report = validate_table(table)
        assert report.passed
        assert report.warnings == ()

    def test_negative_household_demand_warns_but_passes(self):
        table = make_table([[50, 20], [30, 40]], [-5, 30], [65, 100])
        report = validate_table(table)
        assert report.passed
        assert any("negative household_consumption" in w for w in report.warnings)

    def test_income_above_value_added_warns(self, e2):
        sats = dict(e2.satellites)
        sats["income"] = SatelliteAccount("income", [35.0, 25.0])  # 35 > va 30
        noisy = IOTable(
            sectors=e2.sectors, Z=e2.Z, final_demand=e2.final_demand,
            imports=e2.imports, value_added=e2.value_added, satellites=sats, x=e2.x,
        )
        report = validate_table(noisy)
        assert report.passed
        assert any("income exceeds value added" in w for w in report.warnings)

    def test_dimension_mismatch_is_structural(self, e2):
        with pytest.raises(StructuralError):
            IOTable(
                sectors=e2.sectors,
                Z=np.zeros((2, 3)),
                final_demand=e2.final_demand,
                imports=e2.imports,
                value_added=e2.value_added,
                x=e2.x,
            )

    def test_duplicate_codes_are_structural(self, e2):
        sectors = (Sector("S1", "a"), Sector("S1", "b"))
        with pytest.raises(StructuralError, match="duplicate"):
            IOTable(
                sectors=sectors, Z=e2.Z, final_demand=e2.final_demand,
                imports=e2.imports, value_added=e2.value_added, x=e2.x,
            )


class TestDropZeroSectors:
    def test_identity_when_no_zero_sector(self, e2):
        reduced, dropped = drop_zero_sectors(e2)
        assert dropped == []
        assert reduced is e2

    def test_middle_sector_dropped_and_flows_preserved(self):
        Z = [[50, 0, 20], [0, 0, 0], [30, 0, 40]]
        table = make_table(Z, [30, 0, 30], [100, 0, 100],
                           satellites={"employment": SatelliteAccount("employment", [10, 0, 20])})
        table = replace(table, total_uses=[100, 0, 100])
        reduced, dropped = drop_zero_sectors(table)
        assert [s.code for s in dropped] == ["S2"]
        assert reduced.codes == ("S1", "S3")
        # The retained Sector objects themselves, their positions now 0 and 1.
        assert reduced.sectors[0] is table.sectors[0] and reduced.sectors[1] is table.sectors[2]
        assert np.array_equal(reduced.Z, [[50, 20], [30, 40]])
        assert np.array_equal(reduced.x, [100, 100])
        assert np.array_equal(reduced.satellites["employment"].values, [10, 20])
        assert np.array_equal(reduced.total_uses, [100, 100])
        assert validate_table(reduced).passed

    def test_no_division_hazard_after_drop(self):
        table = make_table([[0.0, 0], [0, 0]], [10, 0], [10, 0])
        reduced, dropped = drop_zero_sectors(table)
        assert all(reduced.x > 0)
        assert [s.code for s in dropped] == ["S2"]

    @pytest.mark.parametrize("x3", [-5.0, np.nan])
    def test_negative_or_nan_output_is_kept_and_fails_validation(self, x3):
        Z = [[50, 20, 0], [30, 40, 0], [0, 0, 0]]
        table = make_table(Z, [30, 30, 0], [100, 100, 0])
        table = replace(table, x=[100.0, 100.0, x3])
        reduced, dropped = drop_zero_sectors(table)
        assert dropped == [] and reduced is table
        report = validate_table(reduced)
        assert not report.passed
        assert ("row_identity", "S3") in [(v.kind, v.sector) for v in report.violations]

    def test_negative_zero_output_is_dropped(self):
        table = make_table([[0.0, 0], [0, 0]], [10, 0], [10, -0.0])
        assert [s.code for s in drop_zero_sectors(table)[1]] == ["S2"]

    @staticmethod
    def dead_middle(**held):
        """The middle-sector table above, its S2 holding nothing but zeros
        except what ``held`` puts in it."""
        Z = np.array([[50, 0, 20], [0, 0, 0], [30, 0, 40]], dtype=float)
        fd = np.zeros((3, 6))
        fd[[0, 2], 0] = 30.0
        vectors = {"imports": np.zeros(3), "value_added": np.array([20.0, 0.0, 40.0]),
                   "total_uses": np.array([100.0, 0.0, 100.0]),
                   "employment": np.array([10.0, 0.0, 20.0])}
        for where, value in held.items():
            if where == "z_row":
                Z[1, 0] = value
            elif where == "z_column":
                Z[0, 1] = value
            elif where == "final_demand":
                fd[1, 5] = value
            else:
                vectors[where][1] = value
        return IOTable(
            sectors=tuple(Sector(f"S{i + 1}", f"Sector {i + 1}") for i in range(3)),
            Z=Z, final_demand=FinalDemandBlock(fd), imports=vectors["imports"],
            value_added=vectors["value_added"], x=[100.0, 0.0, 100.0],
            total_uses=vectors["total_uses"],
            satellites={"employment": SatelliteAccount("employment", vectors["employment"])},
        )

    def test_an_empty_zero_output_sector_is_dropped(self):
        table = self.dead_middle()
        assert validate_table(table).violations[0].kind == "zero_output"
        reduced, dropped = drop_zero_sectors(table)
        assert [s.code for s in dropped] == ["S2"]
        assert validate_table(reduced).passed

    @pytest.mark.parametrize("where", ["z_row", "z_column", "final_demand", "imports",
                                       "value_added", "total_uses", "employment"])
    @pytest.mark.parametrize("value", [5.0, -7.0, 1e-300, np.nan])
    def test_a_zero_output_sector_holding_a_value_is_kept_and_reported(self, where, value):
        table = self.dead_middle(**{where: value})
        reduced, dropped = drop_zero_sectors(table)
        assert dropped == [] and reduced is table
        report = validate_table(reduced)
        assert not report.passed
        zero = [v for v in report.violations if v.kind == "zero_output"]
        assert [(v.sector, v.expected, v.actual, v.rel_err) for v in zero] == [
            ("S2", 0.0, 0.0, 1.0)
        ]
        assert zero[0].message == (
            "total output of S2 is zero; the model needs it positive, and only a sector "
            "that holds nothing but zeros is dropped"
        )

    def test_sector_from_the_original_table_resolves_by_code(self):
        Z = [[50, 0, 20, 10], [0, 0, 0, 0], [30, 0, 40, 5], [10, 0, 5, 30]]
        table = make_table(Z, [20, 0, 25, 55], [100, 0, 100, 100])
        reduced, dropped = drop_zero_sectors(table)
        assert reduced.codes == ("S1", "S3", "S4")
        model = build_model(reduced)
        s3 = table.sectors[2]
        assert reduced.sector_index(s3) == 1
        assert input_recipe(model, s3, 3) == input_recipe(model, "S3", 3)
        assert input_recipe(model, s3, 3) != input_recipe(model, "S4", 3)
        with pytest.raises(KeyError, match="unknown sector code 'S2'"):
            reduced.sector_index(dropped[0])


class TestFinalDemandBlock:
    def test_component_lookup_by_code_and_name(self, e2):
        hh = e2.final_demand.component("HH")
        assert np.array_equal(hh, e2.final_demand.component("household_consumption"))
        assert np.array_equal(hh, [30, 30])

    def test_unknown_component_rejected(self, e2):
        with pytest.raises(KeyError):
            e2.final_demand.component("nope")

    def test_totals(self, e2):
        assert np.array_equal(e2.f, [30, 30])

    def test_table_sums_f_once_read_only(self, e2):
        assert e2.f is e2.f
        assert np.array_equal(e2.f, e2.final_demand.values.sum(axis=1))
        assert not e2.f.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            e2.f[0] = 1.0

    def test_reduced_table_has_its_own_f(self):
        Z = [[50, 0, 20], [0, 0, 0], [30, 0, 40]]
        table = make_table(Z, [30, 0, 30], [100, 0, 100])
        reduced, _ = drop_zero_sectors(table)
        assert reduced.f is not table.f
        assert reduced.f is reduced.f
        assert np.array_equal(reduced.f, reduced.final_demand.values.sum(axis=1))
        assert np.array_equal(reduced.f, [30, 30])
        assert not reduced.f.flags.writeable


class TestIdentity:
    """Tables compare and hash by identity, never by their arrays."""

    def test_a_table_equals_itself_and_hashes(self):
        t = canonical_e2()
        assert t == t
        assert hash(t) == hash(t)
        assert {t: 1}[t] == 1

    def test_a_copy_is_another_table(self):
        t = canonical_e2()
        for other in (copy.copy(t), replace(t), canonical_e2()):
            assert other != t
            assert not other == t
            assert len({t, other}) == 2


def test_satellites_are_read_only():
    # A write would slip past check_structure's rule that each account is
    # stored under its own kind.
    table = canonical_e2()
    with pytest.raises(TypeError):
        table.satellites["income"] = SatelliteAccount("employment", [1.0, 2.0])
    assert table.satellites["income"].kind == "income"
    again = replace(table)
    assert dict(again.satellites) == dict(table.satellites)


def test_rescale_keeps_employment():
    table = canonical_e2()
    scaled = rescale(table, 3.0)
    assert np.array_equal(scaled.Z, table.Z * 3)
    assert np.array_equal(scaled.satellites["employment"].values,
                          table.satellites["employment"].values)
    assert np.array_equal(scaled.satellites["income"].values,
                          table.satellites["income"].values * 3)
    assert validate_table(scaled).passed
    assert validate_table(rescale(replace(table, total_uses=table.x), 3.0)).passed


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_rescale_refuses_a_factor_that_is_not_positive_and_finite(factor):
    with pytest.raises(ValueError, match=f"must be positive and finite, got {factor}$"):
        rescale(canonical_e2(), factor)


class TestNonFiniteLibraryTable:
    def test_nan_cell_fails_validation(self):
        table = canonical_e2()
        Z = table.Z.copy()
        Z[1, 0] = np.nan
        report = validate_table(IOTable(
            sectors=table.sectors, Z=Z, final_demand=table.final_demand,
            imports=table.imports, value_added=table.value_added, x=table.x,
        ))
        assert not report.passed
        assert {(v.kind, v.sector) for v in report.violations} == {
            ("row_identity", "S2"), ("column_identity", "S1"),
        }

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError):
            validate_table(canonical_e2(), rel_tol=float("nan"))

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(ValueError, match="must be positive and finite, got inf"):
            validate_table(canonical_e2(), rel_tol=float("inf"))
