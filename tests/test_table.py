from dataclasses import replace

import numpy as np
import pytest

from ioimpact import (
    FinalDemandBlock,
    IOTable,
    SatelliteAccount,
    Sector,
    StructuralError,
    drop_zero_sectors,
    validate_table,
)
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
    sectors = tuple(Sector(f"S{i + 1}", f"Sector {i + 1}", i) for i in range(n))
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
            sectors=(Sector("S1", "Sector 1", 0), Sector("S2", "Sector 2", 1)),
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
        sectors = (Sector("S1", "a", 0), Sector("S1", "b", 1))
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
        reduced, dropped = drop_zero_sectors(table)
        assert [s.code for s in dropped] == ["S2"]
        assert reduced.codes == ("S1", "S3")
        assert [s.index for s in reduced.sectors] == [0, 1]
        assert np.array_equal(reduced.Z, [[50, 20], [30, 40]])
        assert np.array_equal(reduced.x, [100, 100])
        assert np.array_equal(reduced.satellites["employment"].values, [10, 20])
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


class TestFinalDemandBlock:
    def test_component_lookup_by_code_and_name(self, e2):
        hh = e2.final_demand.component("HH")
        assert np.array_equal(hh, e2.final_demand.component("household_consumption"))
        assert np.array_equal(hh, [30, 30])

    def test_unknown_component_rejected(self, e2):
        with pytest.raises(KeyError):
            e2.final_demand.component("nope")

    def test_totals(self, e2):
        assert np.array_equal(e2.final_demand.totals(), [30, 30])


def test_rescale_keeps_employment():
    table = canonical_e2()
    scaled = rescale(table, 3.0)
    assert np.array_equal(scaled.Z, table.Z * 3)
    assert np.array_equal(scaled.satellites["employment"].values,
                          table.satellites["employment"].values)
    assert np.array_equal(scaled.satellites["income"].values,
                          table.satellites["income"].values * 3)
    assert validate_table(scaled).passed


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
