import csv
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ioimpact import (
    DemandDelta,
    ImpactResult,
    apply_blowup,
    build_model,
    compare_methods,
    downstream_importance,
    inoperability,
    input_recipe,
    make_extraction_spec,
    output_multipliers,
    partial_extraction,
    validate_table,
)
from ioimpact.leontief import sector_order
from ioimpact.report import (
    _FORMATTERS,
    ReportTable,
    comparison_table,
    impact_table,
    load_impact_result,
    multiplier_table,
    plotdata_table,
    recipe_tables,
    result_from_dict,
    result_json_text,
    sector_profile_table,
    validation_table,
    write_reports,
)
from ioimpact.table import SATELLITE_KINDS, Sector
from ioimpact.testkit import csv_report_oracle, json_report_oracle, result_to_dict, table_payload

from test_table import make_table


@pytest.fixture
def impact(e2, e2_model):
    delta = DemandDelta(
        scenario="demo", target="S1", delta=np.array([-12.0, 0.0]),
        component_changes={"household_consumption": -12.0}, total_drop_fraction=-0.4,
    )
    return inoperability(e2_model, delta)


@pytest.fixture
def tables(e2, e2_model, impact):
    delta = np.array([-12.0, 0.0])
    spec = make_extraction_spec(e2_model, "S1", np.array([0.5, 0.5]),
                                f_bar=e2.f + delta, label="demo")
    extraction = partial_extraction(e2_model, spec)
    return [
        validation_table(validate_table(e2)),
        multiplier_table(e2_model),
        impact_table(impact),
        impact_table(extraction),
        comparison_table(compare_methods(extraction, impact)),
        plotdata_table(impact, top_k=10),
    ]


def column_values(table, column):
    """The values of one column of a report table."""
    return list(table.columns[column][1])


class TestTables:
    def test_multiplier_table_ranked_descending(self, e2_model):
        t = multiplier_table(e2_model)
        assert list(t.columns) == ["sector_code", "sector_name", "value", "rank"]
        assert column_values(t, "sector_code") == ["S1", "S2"]
        assert column_values(t, "rank") == [1, 2]
        assert "3.75000" in t.csv_text()

    def test_impact_table_formats(self, impact):
        t = impact_table(impact)
        text = t.csv_text()
        # most affected first, q to six decimals, nominal whole millions
        lines = text.splitlines()
        assert lines[1].startswith("S1,Sector 1,-0.300000,-30")
        assert lines[-1].startswith("TOTAL,")
        assert "-45" in lines[-1]

    def test_sector_profile(self, e2_model):
        t = sector_profile_table(e2_model, "S1")
        profile = dict(zip(column_values(t, "multiplier"), column_values(t, "value")))
        assert profile["output"] == pytest.approx(3.75)
        assert profile["employment"] == pytest.approx(0.5)

    def test_recipe_tables(self, e2_model):
        recipe, downstream = recipe_tables(e2_model, "S1", top_k=2)
        assert recipe.name == "input_recipe_S1"
        assert column_values(recipe, "sector_code") == ["S1", "S2"]
        assert column_values(downstream, "value")[0] == pytest.approx(0.5)

    def test_plotdata_truncates(self, impact):
        t = plotdata_table(impact, top_k=1)
        assert column_values(t, "sector_code") == ["S1"]

    def test_plotdata_rejects_negative_top_k(self, impact):
        with pytest.raises(ValueError, match="top_k must be non-negative"):
            plotdata_table(impact, top_k=-1)

    @pytest.mark.parametrize("top_k", [True, 2.5, 2.0])
    def test_plotdata_rejects_a_depth_that_is_no_integer(self, impact, top_k):
        with pytest.raises(ValueError, match="top_k must be an integer"):
            plotdata_table(impact, top_k=top_k)

    def test_comparison_of_one_method_keeps_both_columns(self, impact):
        t = comparison_table(compare_methods(impact, impact))
        assert list(t.columns) == ["metric", "inoperability (a)", "inoperability (b)", "difference"]
        t = comparison_table(compare_methods(replace(impact, method="difference"), impact))
        assert list(t.columns) == ["metric", "difference (a)", "inoperability (b)", "difference"]


class TestResultSerialization:
    def test_round_trip(self, impact):
        back = result_from_dict(result_to_dict(impact))
        assert back.method == impact.method
        assert np.allclose(back.q, impact.q, atol=0)
        assert np.allclose(back.dx, impact.dx, atol=0)
        assert back.totals == impact.totals
        assert back.codes == impact.codes

    def test_blowup_survives_round_trip(self, impact):
        inflated = apply_blowup(impact, 1.092)
        back = result_from_dict(result_to_dict(inflated))
        assert back.blowup_applied == pytest.approx(1.092)
        assert np.array_equal(back.dx, inflated.dx)


class TestWriteReports:
    def test_expected_files_and_manifest(self, tables, impact, tmp_path):
        manifest = write_reports(tables, tmp_path, formats=("csv", "json"), results=[impact])
        names = {(e["report"], e["format"]) for e in manifest["files"]}
        assert ("multipliers", "csv") in names
        assert ("impact_inoperability", "csv") in names
        assert ("impact_extraction", "csv") in names
        assert ("comparison", "csv") in names
        assert ("plotdata_top10", "csv") in names
        assert ("result_inoperability", "json") in names
        for entry in manifest["files"]:
            path = tmp_path / entry["path"]
            assert path.exists()
            assert len(entry["sha256"]) == 64
        assert (tmp_path / "manifest.json").exists()

    def test_reruns_are_byte_identical(self, tables, impact, tmp_path):
        a = write_reports(tables, tmp_path / "a", formats=("csv", "json"), results=[impact])
        b = write_reports(tables, tmp_path / "b", formats=("csv", "json"), results=[impact])
        digests_a = {e["report"]: e["sha256"] for e in a["files"]}
        digests_b = {e["report"]: e["sha256"] for e in b["files"]}
        assert digests_a == digests_b

    def test_empty_formats_rejected(self, tables, tmp_path):
        with pytest.raises(ValueError):
            write_reports(tables, tmp_path, formats=())

    def test_unknown_format_rejected(self, tables, tmp_path):
        with pytest.raises(ValueError):
            write_reports(tables, tmp_path, formats=("xml",))

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../up", "a\\b", "a\x00b"])
    def test_report_name_must_be_one_path_component(self, tables, tmp_path, name):
        tables.append(ReportTable(name, {"a": ("s", ["x"])}))
        out = tmp_path / "out" / "deep"
        with pytest.raises(ValueError, match=f"report name {re.escape(repr(name))} must be"):
            write_reports(tables, out, formats=("csv", "json"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["a/b", "../up", "a\\b", "a\x00b"])
    def test_result_name_must_be_one_path_component(self, tables, impact, tmp_path, method):
        results = [impact, replace(impact, method=method)]
        out = tmp_path / "out" / "deep"
        name = re.escape(repr(f"result_{method}"))
        with pytest.raises(ValueError, match=f"report name {name} must be"):
            write_reports(tables, out, formats=("csv", "json"), results=results)
        assert not (tmp_path / "out").exists()

    def test_json_payload_loadable(self, tables, impact, tmp_path):
        write_reports(tables, tmp_path, formats=("json",), results=[impact])
        result = load_impact_result(tmp_path / "result_inoperability.json")
        assert result.method == "inoperability"
        payload = json.loads((tmp_path / "multipliers.json").read_text())
        assert payload[0]["sector_code"] == "S1"


class TestTiesBreakBySectorIndex:
    """Every ranked view orders tied values, -0.0 against 0.0 included, by
    sector index."""

    N = 12

    @staticmethod
    def ascending(values):
        return sorted(range(len(values)), key=lambda i: (values[i], i))

    @pytest.fixture
    def tied_model(self):
        # Diagonal flows in two tied groups give exactly tied multipliers;
        # sector S1 buys equal amounts from four sectors, and sector S2 sells
        # equal amounts to three.
        n = self.N
        Z = np.diag([20.0 if i % 2 else 10.0 for i in range(n)])
        Z[[3, 5, 7, 9], 0] = 5.0
        Z[1, [4, 6, 8]] = 5.0
        return build_model(make_table(Z, [60.0] * n, [100.0] * n))

    @pytest.fixture
    def tied_results(self, tied_model):
        q_a = np.array([0.0, -0.1, -0.0, -0.1, 0.0, -0.2, -0.0, -0.1, 0.0, -0.0, -0.2, 0.0])
        q_b = np.array([-0.0, 0.0, -0.3, 0.0, -0.0, -0.3, 0.0, -0.0, -0.3, 0.0, -0.0, 0.0])

        def result(method, q):
            dx = q * 100.0
            return ImpactResult(
                method=method, scenario="ties", sectors=tied_model.sectors, q=q, dx=dx,
                satellite_changes={}, totals={"output": float(dx.sum())},
                pct_output=float(dx.sum()) / 1200.0,
            )

        return result("inoperability", q_a), result("extraction", q_b)

    def test_sector_order_signed_zeros(self):
        values = [0.0, -0.0, 1.0, -0.0, 0.0, 1.0]
        assert sector_order(values) == [0, 1, 3, 4, 2, 5]
        assert sector_order(values, descending=True) == [2, 5, 0, 1, 3, 4]
        assert all(type(i) is int for i in sector_order(values))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 300),
        pool=st.lists(
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
            | st.floats(-1e3, 1e3),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
        descending=st.booleans(),
        data=st.data(),
    )
    def test_depth_gives_the_full_order_prefix(self, n, pool, seed, descending, data):
        # Few distinct values, so ties (signed zeros and NaN included) abound.
        values = np.random.default_rng(seed).choice(np.array(pool), n)
        k = data.draw(st.integers(0, n + 2), label="k")
        full = sector_order(values, descending)
        got = sector_order(values, descending, k)
        assert got == full[:k]
        assert all(type(i) is int for i in got)

    @pytest.mark.parametrize("k", [-1, -3, -4])
    def test_negative_depth_refused(self, k):
        with pytest.raises(ValueError, match="top_k must be non-negative"):
            sector_order([3.0, 1.0, 2.0], k=k)

    @pytest.mark.parametrize("top_k", [0, 1, 2, 3])
    def test_ranked_views_of_e2_follow_the_full_order(self, e2, e2_model, top_k):
        delta = DemandDelta(
            scenario="demo", target="S1", delta=np.array([-12.0, 0.0]),
            total_drop_fraction=-0.4,
        )
        ino = inoperability(e2_model, delta)
        ext = partial_extraction(e2_model, make_extraction_spec(e2_model, "S1", [0.5, 0.5]))
        assert column_values(plotdata_table(ino, top_k=top_k), "sector_code") == [
            e2.codes[i] for i in sector_order(ino.q)[:top_k]
        ]
        top_ext = [e2.codes[i] for i in sector_order(ext.q)]
        top_ino = {e2.codes[i] for i in sector_order(ino.q)}
        assert compare_methods(ext, ino).top_overlap == tuple(c for c in top_ext if c in top_ino)
        recipes = recipe_tables(e2_model, "S1", top_k)
        for table, values in zip(recipes, (e2_model.A[:, 0], e2_model.A[0])):
            ranked = sector_order(values, descending=True)[:top_k]
            codes = column_values(table, "sector_code")
            assert codes == [e2.codes[i] for i in ranked if values[i] > 0]

    def test_recipes(self, tied_model):
        recipe = input_recipe(tied_model, "S1", top_k=self.N)
        assert [s.code for s, _ in recipe] == ["S1", "S4", "S6", "S8", "S10"]
        downstream = downstream_importance(tied_model, "S2", top_k=3)
        assert [s.code for s, _ in downstream] == ["S2", "S5", "S7"]

    def test_multipliers(self, tied_model):
        mults = output_multipliers(tied_model)
        codes = column_values(multiplier_table(tied_model), "sector_code")
        assert len(set(mults.tolist())) < self.N  # ties are present
        expected = self.ascending([-m for m in mults])
        assert codes == [f"S{i + 1}" for i in expected]

    def test_impact_and_plotdata(self, tied_results):
        result = tied_results[0]
        expected = [f"S{i + 1}" for i in self.ascending(result.q.tolist())]
        assert expected[:5] == ["S6", "S11", "S2", "S4", "S8"]
        assert column_values(impact_table(result), "sector_code") == [*expected, "TOTAL"]
        assert column_values(plotdata_table(result, top_k=7), "sector_code") == expected[:7]

    def test_compare_overlap(self, tied_results):
        a, b = tied_results
        top_a = [f"S{i + 1}" for i in self.ascending(a.q.tolist())][:10]
        top_b = {f"S{i + 1}" for i in self.ascending(b.q.tolist())[:10]}
        overlap = compare_methods(a, b).top_overlap
        assert overlap == tuple(c for c in top_a if c in top_b)
        # S11 ties at 0.0 in b but falls past its top ten by index.
        assert overlap == ("S6", "S2", "S4", "S8", "S1", "S3", "S5", "S7", "S9")


# Floats at the edges of the encoding: signed zeros, the smallest subnormal,
# the largest normals, and values on either side of repr's switch to
# exponent notation.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 1e-5, 0.1, -2.5,
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# Any code point but surrogates, with quotes, commas, line ends,
# backslashes, control characters, non-ASCII and the template's own '%' made
# likely.
names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from('%",\r\n\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    max_size=6,
)

# A column kind is its value strategy and the formats whose cell type it is.
COLUMN_KINDS = {
    "float": (finite_floats, ("coef", "q", "million", "raw")),
    "str": (names, ("s",)),
    "int": (st.integers(-(2**70), 2**70), ("int",)),
}


@st.composite
def report_columns(draw, nrows):
    """A column mapping of up to six columns of ``nrows`` values each."""
    columns = {}
    for name in draw(st.lists(names, max_size=6, unique=True)):
        values, formats = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
        fmt = draw(st.sampled_from(formats))
        columns[name] = (fmt, draw(st.lists(values, min_size=nrows, max_size=nrows)))
    return columns


@st.composite
def report_tables(draw, min_rows=0, max_rows=5):
    nrows = draw(st.integers(min_rows, max_rows))
    return ReportTable("t%", draw(report_columns(nrows)))


@st.composite
def impact_results(draw):
    """Results of either method over 1 to 6 sectors, with any subset of the
    satellite kinds, edge floats and awkward sector and scenario names."""
    n = draw(st.integers(1, 6))
    vectors = st.lists(finite_floats, min_size=n, max_size=n).map(np.array)
    kinds = draw(st.lists(st.sampled_from(SATELLITE_KINDS), unique=True))
    return ImpactResult(
        method=draw(st.sampled_from(["inoperability", "extraction"])),
        scenario=draw(names),
        sectors=tuple(Sector(draw(names), draw(names)) for _ in range(n)),
        q=draw(vectors),
        dx=draw(vectors),
        satellite_changes={k: draw(vectors) for k in kinds},
        totals={k: draw(finite_floats) for k in ("output", *kinds)},
        pct_output=draw(finite_floats),
        blowup_applied=draw(finite_floats),
    )


class TestSerializerMatchesOracle:
    """Row tables and result documents are written as the bytes of
    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus a
    newline, and the column-wise CSV as the bytes of cell-by-cell
    formatting."""

    @settings(max_examples=150, deadline=None)
    @given(table=report_tables())
    def test_row_tables(self, table):
        assert table.json_text() == json_report_oracle(table_payload(table))
        assert table.csv_text() == csv_report_oracle(table)

    @settings(max_examples=150, deadline=None)
    @given(result=impact_results())
    def test_results(self, result):
        assert result_json_text(result) == json_report_oracle(result_to_dict(result))

    @settings(max_examples=150, deadline=None)
    @given(table=report_tables())
    def test_csv_reads_back_as_its_cells(self, table):
        # One column is left out: a row of one empty cell is a blank line,
        # which csv.reader reads as no cells. Every real report has two.
        assume(len(table.columns) >= 2)
        rows = list(csv.reader(io.StringIO(table.csv_text(), newline="")))
        cells = [list(map(_FORMATTERS[fmt], values)) for fmt, values in table.columns.values()]
        assert rows == [list(table.columns), *map(list, zip(*cells))]

    def test_empty_and_one_row_tables(self):
        empty = ReportTable("e", {"a": ("s", []), "b": ("raw", [])})
        one = ReportTable("o", {"b": ("s", ["x"]), "a": ("raw", [-0.0])})
        for table in (empty, one):
            assert table.json_text() == json_report_oracle(table_payload(table))
            assert table.csv_text() == csv_report_oracle(table)
        assert one.json_text() == '[\n  {\n    "a": -0.0,\n    "b": "x"\n  }\n]\n'

    def test_columns_of_other_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"report 'd': columns differ in length"):
            ReportTable("d", {"a": ("s", ["x", "y"]), "b": ("s", ["z"])})

    def test_columns_read_only_once_built(self):
        columns = {"a": ("s", ["x"])}
        table = ReportTable("r", columns)
        columns["a"][1].append("y")
        columns["b"] = ("s", ["z"])
        with pytest.raises(TypeError):
            table.columns["b"] = ("s", ["z"])
        assert dict(table.columns) == {"a": ("s", ("x",))}
        assert table.csv_text() == "a\nx\n"

    def test_fixture_tables(self, tables, impact):
        for table in tables:
            assert table.json_text() == json_report_oracle(table_payload(table))
            assert table.csv_text() == csv_report_oracle(table)
        assert result_json_text(impact) == json_report_oracle(result_to_dict(impact))

    @pytest.mark.parametrize(
        "fmt,values",
        [("raw", (0.5, 1)), ("int", (1, 0.5)), ("int", (True, False)), ("int", (1, True)),
         ("s", (None, None)), ("raw", (np.float64(0.5), 0.5))],
        ids=["float-int", "int-float", "bool", "int-bool", "none", "numpy-float"],
    )
    def test_other_columns_rejected(self, fmt, values):
        with pytest.raises(TypeError, match=r"report 't': 'v' holds .* values, and its format"):
            ReportTable("t", {"code": ("s", ["S1", "S2"]), "v": (fmt, values)})

    @pytest.mark.parametrize("fmt,values,message", [
        ("s", [1.5], "holds float values, and its format holds only str values"),
        ("coef", ["0.5"], "holds str values, and its format holds only float values"),
        ("int", [True], "holds bool values, and its format holds only int values"),
    ], ids=["s-float", "coef-str", "int-bool"])
    def test_cell_of_another_type_refused_when_built(self, fmt, values, message):
        # Before any write, so a CSV-only write, which encodes no JSON, is
        # refused as well.
        with pytest.raises(TypeError, match=f"report 't': 'v' {message}"):
            ReportTable("t", {"code": ("s", ["S1"]), "v": (fmt, values)})


class TestNonFiniteNeverWritten:
    @settings(max_examples=100, deadline=None)
    @given(
        nrows=st.integers(1, 4),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    def test_row_tables(self, nrows, bad, data):
        # Insert a float column "x" with one non-finite cell: the table is
        # refused when it is built.
        columns = list(data.draw(report_columns(nrows)).items())
        assume("x" not in dict(columns))
        c = data.draw(st.integers(0, len(columns)))
        r = data.draw(st.integers(0, nrows - 1))
        values, formats = COLUMN_KINDS["float"]
        fmt = data.draw(st.sampled_from(formats))
        x = data.draw(st.lists(values, min_size=nrows, max_size=nrows))
        x[r] = bad
        columns.insert(c, ("x", (fmt, x)))
        with pytest.raises(ValueError, match=r"report 'broken': 'x' holds a NaN or infinite"):
            ReportTable("broken", dict(columns))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["q", "employment", "output", "pct_output"])
    def test_results(self, impact, bad, where):
        result = replace(impact, method="x")
        if where == "q":
            result = replace(result, q=[0.5, bad])
        elif where == "employment":
            result = replace(result, satellite_changes={"employment": np.array([bad, 1.0])})
        elif where == "output":
            result = replace(result, totals={**result.totals, "output": bad})
        else:
            result = replace(result, pct_output=bad)
        with pytest.raises(ValueError):
            json_report_oracle(result_to_dict(result))
        with pytest.raises(ValueError, match=rf"report 'result_x': '{where}' holds a NaN"):
            result_json_text(result)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_reports_names_report_and_column(self, fmt, tmp_path, impact):
        result = replace(impact, method="x", q=np.array([0.5, math.nan]))
        out = tmp_path / "reports"
        with pytest.raises(ValueError, match=r"report 'impact_x': 'q' holds a NaN"):
            write_reports([impact_table(result)], out, formats=(fmt,), results=[result])
        with pytest.raises(ValueError, match=r"report 'result_x': 'q' holds a NaN"):
            write_reports([], out, formats=(fmt,), results=[result])
        assert not out.exists()

    def test_comparison_numbers_checked(self, impact):
        inflated = ImpactResult(
            method="extraction", scenario="demo", sectors=impact.sectors, q=impact.q,
            dx=impact.dx, satellite_changes={}, totals={"output": math.inf},
            pct_output=impact.pct_output,
        )
        with pytest.raises(ValueError, match="'change in output \\(M\\)'"):
            comparison_table(compare_methods(inflated, impact))
