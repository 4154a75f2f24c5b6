import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioimpact import (
    EconomyGenSpec,
    ScenarioConfigError,
    StructuralError,
    TableParseError,
    canonical_e2,
    disaggregate_aggregate,
    parse_io_table,
    parse_scenario,
    random_economy,
    write_table_files,
)
from ioimpact.ingest import parse_blowup_history

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ioimpact" / "fixtures"


def parse_fixture_e2():
    d = FIXTURES / "e2"
    return parse_io_table(
        d / "table.csv",
        d / "sectors.csv",
        [d / "satellite_employment.csv", d / "satellite_income.csv"],
    )


class TestParseTable:
    def test_bundled_e2_matches_canonical(self):
        parsed = parse_fixture_e2()
        e2 = canonical_e2()
        assert parsed.codes == e2.codes
        assert np.array_equal(parsed.Z, e2.Z)
        assert np.array_equal(parsed.final_demand.values, e2.final_demand.values)
        assert np.array_equal(parsed.imports, e2.imports)
        assert np.array_equal(parsed.value_added, e2.value_added)
        assert np.array_equal(parsed.x, e2.x)
        for kind in ("employment", "income"):
            assert np.array_equal(
                parsed.satellites[kind].values, e2.satellites[kind].values
            )

    def test_comma_decimal_rejected_with_coordinates(self, tmp_path):
        d = tmp_path
        (d / "sectors.csv").write_text("code,name\nS1,One\n")
        (d / "table.csv").write_text(
            "sector,S1,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
            'S1,"1,5",80.0,0.0,0.0,0.0,0.0,0.0,100.0\n'
            "IMPORTS,10.0,,,,,,,\n"
            "VALUE_ADDED,88.5,,,,,,,\n"
            "TOTAL_USES,100.0,,,,,,,\n"
        )
        with pytest.raises(TableParseError) as err:
            parse_io_table(d / "table.csv", d / "sectors.csv")
        assert err.value.row == 2
        assert err.value.column == 2

    def test_missing_trailing_row(self, tmp_path):
        d = tmp_path
        (d / "sectors.csv").write_text("code,name\nS1,One\n")
        (d / "table.csv").write_text(
            "sector,S1,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
            "S1,20.0,80.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
            "IMPORTS,10.0,,,,,,,\n"
            "VALUE_ADDED,70.0,,,,,,,\n"
        )
        with pytest.raises(TableParseError, match="TOTAL_USES"):
            parse_io_table(d / "table.csv", d / "sectors.csv")

    def test_row_order_must_match_metadata(self, tmp_path):
        d = tmp_path
        (d / "sectors.csv").write_text("code,name\nS1,One\nS2,Two\n")
        (d / "table.csv").write_text(
            "sector,S1,S2,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
            "S2,50.0,20.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
            "S1,30.0,40.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
            "IMPORTS,20.0,40.0,,,,,,,\n"
            "VALUE_ADDED,0.0,0.0,,,,,,,\n"
            "TOTAL_USES,100.0,100.0,,,,,,,\n"
        )
        with pytest.raises(TableParseError, match="metadata order"):
            parse_io_table(d / "table.csv", d / "sectors.csv")

    def test_header_must_match_metadata(self, tmp_path):
        d = tmp_path
        (d / "sectors.csv").write_text("code,name\nS1,One\nS2,Two\n")
        (d / "table.csv").write_text("sector,S1,SX,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n")
        with pytest.raises(TableParseError, match="header"):
            parse_io_table(d / "table.csv", d / "sectors.csv")

    def test_duplicate_sector_in_metadata(self, tmp_path):
        (tmp_path / "sectors.csv").write_text("code,name\nS1,One\nS1,Two\n")
        with pytest.raises(TableParseError, match="duplicate"):
            parse_io_table(tmp_path / "missing.csv", tmp_path / "sectors.csv")


def _set_cell(path, row, column, raw):
    """Overwrite one cell (1-based coordinates) of a comma-separated file."""
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[column - 1] = raw
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# A written n=3 table: columns 2-4 are Z, 5-10 final demand, 11 total_output;
# rows 2-4 are sectors, then IMPORTS, VALUE_ADDED, TOTAL_USES.
BAD_CELLS = [
    pytest.param(2, 2, id="Z-first-column"),
    pytest.param(3, 4, id="Z-last-column"),
    pytest.param(4, 7, id="final-demand"),
    pytest.param(2, 11, id="total-output"),
    pytest.param(5, 2, id="IMPORTS"),
    pytest.param(6, 3, id="VALUE_ADDED"),
    pytest.param(7, 4, id="TOTAL_USES"),
]


class TestCellCoordinates:
    @pytest.fixture
    def paths(self, tmp_path):
        return write_table_files(random_economy(EconomyGenSpec(n=3, seed=4)), tmp_path)

    @pytest.mark.parametrize("row,column", BAD_CELLS)
    @pytest.mark.parametrize(
        "raw,message",
        [("1.0x", "malformed"), ("nan", "non-finite"), ("-inf", "non-finite"),
         ("1e400", "non-finite")],
    )
    def test_bad_cell_named(self, paths, row, column, raw, message):
        _set_cell(paths["table"], row, column, raw)
        with pytest.raises(TableParseError, match=message) as err:
            parse_io_table(paths["table"], paths["sectors"])
        assert (err.value.row, err.value.column) == (row, column)

    def test_first_bad_cell_in_row_is_named(self, paths):
        _set_cell(paths["table"], 3, 5, "oops")
        _set_cell(paths["table"], 3, 3, "nan")
        with pytest.raises(TableParseError, match="non-finite") as err:
            parse_io_table(paths["table"], paths["sectors"])
        assert (err.value.row, err.value.column) == (3, 3)

    def test_non_finite_satellite_cell(self, paths):
        sat = paths["satellites"]["employment"]
        _set_cell(sat, 3, 2, "inf")
        with pytest.raises(TableParseError, match="non-finite") as err:
            parse_io_table(paths["table"], paths["sectors"], [sat])
        assert (err.value.row, err.value.column) == (3, 2)

    def test_non_finite_blowup_history(self, tmp_path):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2015,1000.0\n")
        gdp.write_text("year,gdp_growth\n2016,nan\n")
        with pytest.raises(TableParseError, match="non-finite"):
            parse_blowup_history(fd, gdp)

    def test_extra_row_reports_count(self, paths):
        with open(paths["table"], "a") as fh:
            fh.write("EXTRA,1.0,2.0,3.0,,,,,,,\n")
        with pytest.raises(TableParseError, match="expected 7 rows .* got 8"):
            parse_io_table(paths["table"], paths["sectors"])


class TestByteOrderMark:
    def test_bom_prefixed_table(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("\ufeff" + (FIXTURES / "e2" / "table.csv").read_text(), encoding="utf-8")
        parsed = parse_io_table(table, FIXTURES / "e2" / "sectors.csv")
        assert np.array_equal(parsed.Z, canonical_e2().Z)

    def test_bom_prefixed_sectors(self, tmp_path):
        meta = tmp_path / "sectors.csv"
        meta.write_text("\ufeff" + (FIXTURES / "e2" / "sectors.csv").read_text(), encoding="utf-8")
        parsed = parse_io_table(FIXTURES / "e2" / "table.csv", meta)
        assert parsed.codes == canonical_e2().codes


def _finite(**kw):
    return st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, **kw)


# Valid spellings of a number; float() of each is the oracle.
SPELLINGS = st.one_of(
    _finite().map(repr),
    _finite().map(lambda v: f"  {v!r}\t"),
    _finite().map(lambda v: f"{v:.17e}"),
    _finite().map(lambda v: f"{v:E}"),
    _finite().map(lambda v: "+" + repr(abs(v))),
    st.integers(-(10**15), 10**15).map(lambda i: f"{i:_}"),
    st.sampled_from(["-0", "-0.0", "+0", ".5", "-.25", "7.", "1e-320", "2.5e-400"]),
)


class TestStreamedParseMatchesFloat:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_bit_identical_to_per_cell_float(self, data, n):
        codes = [f"S{i + 1}" for i in range(n)]
        width = n + 7
        body = [data.draw(st.lists(SPELLINGS, min_size=width, max_size=width)) for _ in codes]
        tail = [data.draw(st.lists(SPELLINGS, min_size=n, max_size=n)) for _ in range(3)]
        lines = [",".join(["sector", *codes, "HH", "NPISH", "GOV", "GFCF", "INV", "EXP",
                           "total_output"])]
        lines += [",".join([code, *cells]) for code, cells in zip(codes, body)]
        for label, cells in zip(("IMPORTS", "VALUE_ADDED", "TOTAL_USES"), tail):
            lines.append(",".join([label, *cells, *[""] * 7]))
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "sectors.csv").write_text("code,name\n" + "\n".join(f"{c},{c}" for c in codes))
            (d / "table.csv").write_text("\n".join(lines) + "\n")
            parsed = parse_io_table(d / "table.csv", d / "sectors.csv")

        oracle = np.array([[float(raw) for raw in cells] for cells in body])
        expected = {
            "Z": oracle[:, :n],
            "final_demand": oracle[:, n:-1],
            "x": oracle[:, -1],
            "imports": np.array([float(raw) for raw in tail[0]]),
            "value_added": np.array([float(raw) for raw in tail[1]]),
        }
        got = {
            "Z": parsed.Z,
            "final_demand": parsed.final_demand.values,
            "x": parsed.x,
            "imports": parsed.imports,
            "value_added": parsed.value_added,
        }
        for name, want in expected.items():
            assert got[name].tobytes() == np.ascontiguousarray(want).tobytes(), name


def test_parse_does_not_materialise_rows(tmp_path):
    # Holding every cell as a Python string peaked near 12x the parsed
    # arrays at n=200; the streamed parse stays near 2.4x.
    paths = write_table_files(random_economy(EconomyGenSpec(n=200, seed=3)), tmp_path)
    tracemalloc.start()
    try:
        table = parse_io_table(
            paths["table"], paths["sectors"], list(paths["satellites"].values())
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [table.Z, table.final_demand.values, table.x, table.imports, table.value_added]
    arrays += [sat.values for sat in table.satellites.values()]
    assert peak < 4 * sum(a.nbytes for a in arrays)


class TestSatelliteFiles:
    def write_e2(self, d):
        write_table_files(canonical_e2(), d)

    def test_missing_sector_is_structural_and_named(self, tmp_path):
        self.write_e2(tmp_path)
        (tmp_path / "satellite_employment.csv").write_text("sector,employment\nS1,10.0\n")
        with pytest.raises(StructuralError, match="S2"):
            parse_io_table(
                tmp_path / "table.csv",
                tmp_path / "sectors.csv",
                [tmp_path / "satellite_employment.csv"],
            )

    def test_unknown_kind_rejected(self, tmp_path):
        self.write_e2(tmp_path)
        (tmp_path / "satellite_carbon.csv").write_text("sector,carbon\nS1,1.0\nS2,2.0\n")
        with pytest.raises(TableParseError, match="carbon"):
            parse_io_table(
                tmp_path / "table.csv",
                tmp_path / "sectors.csv",
                [tmp_path / "satellite_carbon.csv"],
            )

    def test_unknown_sector_rejected(self, tmp_path):
        self.write_e2(tmp_path)
        (tmp_path / "sat.csv").write_text("sector,employment\nS1,10.0\nS9,20.0\n")
        with pytest.raises(TableParseError, match="S9"):
            parse_io_table(tmp_path / "table.csv", tmp_path / "sectors.csv", [tmp_path / "sat.csv"])


class TestRoundTrip:
    def test_e2_exact(self, tmp_path):
        e2 = canonical_e2()
        paths = write_table_files(e2, tmp_path)
        back = parse_io_table(
            paths["table"], paths["sectors"], list(paths["satellites"].values())
        )
        assert np.array_equal(back.Z, e2.Z)
        assert np.array_equal(back.final_demand.values, e2.final_demand.values)
        assert np.array_equal(back.imports, e2.imports)
        assert np.array_equal(back.value_added, e2.value_added)
        assert np.array_equal(back.x, e2.x)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_tables_within_1e12(self, tmp_path_factory, seed):
        table = random_economy(EconomyGenSpec(n=9, seed=seed))
        d = tmp_path_factory.mktemp(f"rt{seed}")
        paths = write_table_files(table, d)
        back = parse_io_table(
            paths["table"], paths["sectors"], list(paths["satellites"].values())
        )
        for name in ("Z", "imports", "value_added", "x"):
            a, b = getattr(table, name), getattr(back, name)
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())
        assert np.abs(table.final_demand.values - back.final_demand.values).max() <= 1e-12
        for kind, sat in table.satellites.items():
            assert np.array_equal(back.satellites[kind].values, sat.values)

    def test_sector_names_with_commas_survive(self, tmp_path):
        table = random_economy(EconomyGenSpec(n=2, seed=0))
        renamed = type(table)(
            sectors=tuple(
                type(s)(s.code, f"Name {i}, with comma", s.index)
                for i, s in enumerate(table.sectors)
            ),
            Z=table.Z, final_demand=table.final_demand, imports=table.imports,
            value_added=table.value_added, satellites=table.satellites, x=table.x,
        )
        paths = write_table_files(renamed, tmp_path)
        back = parse_io_table(paths["table"], paths["sectors"],
                              list(paths["satellites"].values()))
        assert back.sectors[0].name == "Name 0, with comma"


class TestParseScenario:
    def test_bundled_covid_fixture(self):
        spec = parse_scenario(FIXTURES / "scenarios" / "covid_scenario1.json")
        assert spec.sub_service_drop == 0.74
        assert spec.component_ratios["exports"] == 0.93
        assert spec.component_ratios["household_consumption"] == 1.0
        assert spec.component_ratios["gross_fixed_capital_formation"] == 0.0
        assert spec.blowup_factor == 1.092
        assert spec.reallocation is None
        assert spec.intermediate.use_ratios.get("WHS") == 0.07

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


class TestBlowupHistoryFiles:
    def test_parse(self, tmp_path):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2015,1000.0\n2016,1048.0\n")
        gdp.write_text("year,gdp_growth\n2016,0.04\n2017,0.03\n")
        fd_map, gdp_map = parse_blowup_history(fd, gdp)
        assert fd_map == {2015: 1000.0, 2016: 1048.0}
        assert gdp_map == {2016: 0.04, 2017: 0.03}


class TestDisaggregate:
    def test_proportional(self):
        assert np.allclose(disaggregate_aggregate(100, [1, 3]), [25.0, 75.0])

    def test_single_sector(self):
        assert np.array_equal(disaggregate_aggregate(42.0, [7.0]), [42.0])

    def test_largest_remainder_preserves_total(self):
        got = disaggregate_aggregate(10, [1, 1, 1], integral=True)
        assert np.array_equal(got, [4, 3, 3])
        assert got.sum() == 10

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            disaggregate_aggregate(10, [0, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        total=st.integers(0, 10_000),
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12).filter(
            lambda w: sum(w) > 0
        ),
    )
    def test_integral_split_always_sums_to_total(self, total, weights):
        got = disaggregate_aggregate(total, weights, integral=True)
        assert got.sum() == total
        assert np.all(got >= 0)
