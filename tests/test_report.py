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
    ReportBundle,
    ReportTable,
    comparison_table,
    document_json_text,
    impact_table,
    load_impact_result,
    multiplier_table,
    plotdata_table,
    recipe_tables,
    result_from_dict,
    result_to_dict,
    sector_profile_table,
    validation_table,
    write_reports,
)
from ioimpact.testkit import csv_report_oracle, json_report_oracle, table_payload

from test_table import make_table


@pytest.fixture
def impact(e2, e2_model):
    delta = DemandDelta(
        scenario="demo", target="S1", delta=np.array([-12.0, 0.0]),
        component_changes={"household_consumption": -12.0}, total_drop_fraction=-0.4,
    )
    return inoperability(e2_model, delta)


@pytest.fixture
def bundle(e2, e2_model, impact):
    delta = np.array([-12.0, 0.0])
    spec = make_extraction_spec(e2_model, "S1", np.array([0.5, 0.5]),
                                f_bar=e2.f + delta, label="demo")
    extraction = partial_extraction(e2_model, spec)
    b = ReportBundle()
    b.add(validation_table(validate_table(e2)))
    b.add(multiplier_table(e2_model))
    b.add(impact_table(impact))
    b.add(impact_table(extraction))
    b.add(comparison_table(compare_methods(extraction, impact)))
    b.add(plotdata_table(impact, top_k=10))
    b.documents["result_inoperability"] = result_to_dict(impact)
    return b


class TestTables:
    def test_multiplier_table_ranked_descending(self, e2_model):
        t = multiplier_table(e2_model)
        assert t.columns == ("sector_code", "sector_name", "value", "rank")
        assert [r[0] for r in t.rows] == ["S1", "S2"]
        assert [r[3] for r in t.rows] == [1, 2]
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
        values = dict((r[0], r[1]) for r in t.rows)
        assert values["output"] == pytest.approx(3.75)
        assert values["employment"] == pytest.approx(0.5)

    def test_recipe_tables(self, e2_model):
        recipe, downstream = recipe_tables(e2_model, "S1", top_k=2)
        assert recipe.name == "input_recipe_S1"
        assert [r[0] for r in recipe.rows] == ["S1", "S2"]
        assert downstream.rows[0][2] == pytest.approx(0.5)

    def test_plotdata_truncates(self, impact):
        t = plotdata_table(impact, top_k=1)
        assert len(t.rows) == 1
        assert t.rows[0][0] == "S1"

    def test_plotdata_rejects_negative_top_k(self, impact):
        with pytest.raises(ValueError, match="top_k must be non-negative"):
            plotdata_table(impact, top_k=-1)

    def test_comparison_of_one_method_keeps_both_columns(self, impact):
        t = comparison_table(compare_methods(impact, impact))
        assert t.columns == ("metric", "inoperability (a)", "inoperability (b)", "difference")
        t = comparison_table(compare_methods(replace(impact, method="difference"), impact))
        assert t.columns == ("metric", "difference (a)", "inoperability (b)", "difference")


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
    def test_expected_files_and_manifest(self, bundle, tmp_path):
        manifest = write_reports(bundle, tmp_path, formats=("csv", "json"))
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

    def test_reruns_are_byte_identical(self, bundle, tmp_path):
        a = write_reports(bundle, tmp_path / "a", formats=("csv", "json"))
        b = write_reports(bundle, tmp_path / "b", formats=("csv", "json"))
        digests_a = {e["report"]: e["sha256"] for e in a["files"]}
        digests_b = {e["report"]: e["sha256"] for e in b["files"]}
        assert digests_a == digests_b

    def test_empty_formats_rejected(self, bundle, tmp_path):
        with pytest.raises(ValueError):
            write_reports(bundle, tmp_path, formats=())

    def test_unknown_format_rejected(self, bundle, tmp_path):
        with pytest.raises(ValueError):
            write_reports(bundle, tmp_path, formats=("xml",))

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../up", "a\\b", "a\x00b"])
    @pytest.mark.parametrize("kind", ["table", "document"])
    def test_report_name_must_be_one_path_component(self, bundle, tmp_path, name, kind):
        if kind == "table":
            bundle.add(ReportTable(name, ("a",), ("s",), (("x",),)))
        else:
            bundle.documents[name] = {"a": 1}
        out = tmp_path / "out" / "deep"
        with pytest.raises(ValueError, match=f"report name {re.escape(repr(name))} must be"):
            write_reports(bundle, out, formats=("csv", "json"))
        assert not (tmp_path / "out").exists()

    def test_json_payload_loadable(self, bundle, tmp_path):
        write_reports(bundle, tmp_path, formats=("json",))
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

    def test_recipes(self, tied_model):
        recipe = input_recipe(tied_model, "S1", top_k=self.N)
        assert [s.code for s, _ in recipe] == ["S1", "S4", "S6", "S8", "S10"]
        downstream = downstream_importance(tied_model, "S2", top_k=3)
        assert [s.code for s, _ in downstream] == ["S2", "S5", "S7"]

    def test_multipliers(self, tied_model):
        mults = output_multipliers(tied_model)
        rows = multiplier_table(tied_model).rows
        assert len(set(mults.tolist())) < self.N  # ties are present
        expected = self.ascending([-m for m in mults])
        assert [r[0] for r in rows] == [f"S{i + 1}" for i in expected]

    def test_impact_and_plotdata(self, tied_results):
        result = tied_results[0]
        expected = [f"S{i + 1}" for i in self.ascending(result.q.tolist())]
        assert expected[:5] == ["S6", "S11", "S2", "S4", "S8"]
        assert [r[0] for r in impact_table(result).rows[:-1]] == expected
        assert [r[0] for r in plotdata_table(result, top_k=7).rows] == expected[:7]

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
# Any code point but surrogates, with quotes, backslashes, control
# characters, non-ASCII and the template's own '%' made likely.
names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from('%"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    max_size=6,
)
leaves = st.one_of(finite_floats, names, st.integers(), st.booleans(), st.none())

# A column kind is its value strategy and the CSV formats that suit it.
COLUMN_KINDS = {
    "float": (finite_floats, ("coef", "q", "million", "pct", "raw", "s")),
    "str": (names, ("s",)),
    "int": (st.integers(-(2**70), 2**70), ("int", "s")),
    "mixed": (
        st.one_of(
            leaves,
            st.builds(np.float64, finite_floats),
            st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
            st.builds(np.float32, st.floats(width=32, allow_nan=False, allow_infinity=False)),
        ),
        ("s",),
    ),
}


@st.composite
def report_tables(draw, min_rows=0, max_rows=5):
    columns = draw(st.lists(names, max_size=6, unique=True))
    kinds = [draw(st.sampled_from(sorted(COLUMN_KINDS))) for _ in columns]
    nrows = draw(st.integers(min_rows, max_rows))
    cells = [
        draw(st.lists(COLUMN_KINDS[k][0], min_size=nrows, max_size=nrows)) for k in kinds
    ]
    formats = tuple(draw(st.sampled_from(COLUMN_KINDS[k][1])) for k in kinds)
    rows = tuple(zip(*cells)) if cells else ((),) * nrows
    return ReportTable(name="t%", columns=tuple(columns), formats=formats, rows=rows)


@st.composite
def records(draw):
    """Lists of flat objects sharing one key order, the shape of
    ``result_*.json``'s sectors."""
    keys = draw(st.lists(names, max_size=4, unique=True))
    return draw(st.lists(st.fixed_dictionaries({k: leaves for k in keys}), max_size=4))


documents = st.recursive(
    leaves | st.lists(finite_floats, max_size=5) | st.lists(names, max_size=5) | records(),
    lambda kids: st.lists(kids, max_size=4)
    | st.tuples(kids, kids)
    | st.dictionaries(names, kids, max_size=4),
    max_leaves=25,
)


class TestSerializerMatchesOracle:
    """The column-wise encoder writes the bytes of ``json.dumps(obj,
    indent=2, sort_keys=True, allow_nan=False)`` plus a newline, and the
    column-wise CSV the bytes of cell-by-cell formatting."""

    @settings(max_examples=150, deadline=None)
    @given(table=report_tables())
    def test_row_tables(self, table):
        assert table.json_text() == json_report_oracle(table_payload(table))
        assert table.csv_text() == csv_report_oracle(table)

    @settings(max_examples=150, deadline=None)
    @given(doc=documents)
    def test_documents(self, doc):
        assert document_json_text("doc", doc) == json_report_oracle(doc)

    def test_empty_and_one_row_tables(self):
        empty = ReportTable("e", ("a", "b"), ("s", "raw"), ())
        one = ReportTable("o", ("b", "a"), ("s", "raw"), (("x", -0.0),))
        no_columns = ReportTable("z", (), (), ((), ()))
        for table in (empty, one, no_columns):
            assert table.json_text() == json_report_oracle(table_payload(table))
            assert table.csv_text() == csv_report_oracle(table)
        assert one.json_text() == '[\n  {\n    "a": -0.0,\n    "b": "x"\n  }\n]\n'

    def test_repeated_column_rejected(self):
        with pytest.raises(ValueError, match=r"report 'd': repeated column name"):
            ReportTable("d", ("a", "b", "a"), ("s", "s", "s"), (("x", "y", "z"),))

    def test_fixture_bundle(self, bundle):
        for table in bundle.tables:
            assert table.json_text() == json_report_oracle(table_payload(table))
            assert table.csv_text() == csv_report_oracle(table)
        for name, doc in bundle.documents.items():
            assert document_json_text(name, doc) == json_report_oracle(doc)


class TestNonFiniteNeverWritten:
    @settings(max_examples=100, deadline=None)
    @given(
        table=report_tables(min_rows=1, max_rows=4),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    def test_row_tables(self, table, bad, data):
        # Insert a float or mixed column "x" with one non-finite cell.
        assume("x" not in table.columns)
        c = data.draw(st.integers(0, len(table.columns)))
        r = data.draw(st.integers(0, len(table.rows) - 1))
        values, formats = COLUMN_KINDS[data.draw(st.sampled_from(["float", "mixed"]))]
        fmt = data.draw(st.sampled_from(formats))
        x = data.draw(st.lists(values, min_size=len(table.rows), max_size=len(table.rows)))
        x[r] = bad
        rows = tuple((*row[:c], x[i], *row[c:]) for i, row in enumerate(table.rows))
        broken = ReportTable(
            "broken",
            (*table.columns[:c], "x", *table.columns[c:]),
            (*table.formats[:c], fmt, *table.formats[c:]),
            rows,
        )
        with pytest.raises(ValueError, match=r"report 'broken': 'x' holds a NaN or infinite"):
            broken.csv_text()
        with pytest.raises(ValueError, match=r"report 'broken': 'x' holds a NaN or infinite"):
            broken.json_text()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_documents(self, bad):
        doc = {"q": [1.0, 2.0], "totals": {"output": [0.5, bad]}}
        with pytest.raises(ValueError):
            json_report_oracle(doc)
        with pytest.raises(ValueError, match=r"report 'result_x': 'output' holds a NaN"):
            document_json_text("result_x", doc)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_reports_names_report_and_column(self, fmt, tmp_path):
        bundle = ReportBundle()
        bundle.add(ReportTable("impact_x", ("sector_code", "q"), ("s", "q"),
                               (("S1", 0.5), ("S2", math.nan))))
        bundle.documents["result_x"] = {"q": [0.5]}
        out = tmp_path / "reports"
        with pytest.raises(ValueError, match=r"report 'impact_x': 'q' holds a NaN"):
            write_reports(bundle, out, formats=(fmt,))
        assert not out.exists()

    def test_comparison_numbers_checked(self, impact):
        inflated = ImpactResult(
            method="extraction", scenario="demo", sectors=impact.sectors, q=impact.q,
            dx=impact.dx, satellite_changes={}, totals={"output": math.inf},
            pct_output=impact.pct_output,
        )
        with pytest.raises(ValueError, match="'change in output \\(M\\)'"):
            comparison_table(compare_methods(inflated, impact))
