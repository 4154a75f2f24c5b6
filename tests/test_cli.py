import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ioimpact import cli, drop_zero_sectors, ingest, leontief, write_table_files
from ioimpact.cli import main
from ioimpact.errors import ScenarioConfigError
from ioimpact.scenario import IntermediateSpec, Reallocation, ScenarioSpec, UseRatio, parse_scenario
from ioimpact.testkit import EconomyGenSpec, canonical_e2, random_economy

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ioimpact" / "fixtures"
E2 = FIXTURES / "e2"


def e2_args(**over):
    args = {
        "table": str(E2 / "table.csv"),
        "meta": str(E2 / "sectors.csv"),
        "satellites": [str(E2 / "satellite_employment.csv"), str(E2 / "satellite_income.csv")],
    }
    args.update(over)
    return args


def table_flags(args):
    flags = ["--table", args["table"], "--meta", args["meta"]]
    if args["satellites"]:
        flags += ["--satellites", *args["satellites"]]
    return flags


class TestValidateCmd:
    def test_valid_fixture_exits_zero(self, capsys):
        assert main(["validate", *table_flags(e2_args())]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_identity_violation_exits_one(self, tmp_path, capsys):
        broken = (E2 / "table.csv").read_text().replace(
            "S2,30.0,40.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0",
            "S2,30.0,40.0,30.0,0.0,0.0,0.0,0.0,0.0,101.0",
        )
        p = tmp_path / "table.csv"
        p.write_text(broken)
        code = main(["validate", *table_flags(e2_args(table=str(p))), "--rel-tol", "1e-6"])
        assert code == 1
        assert "row identity" in capsys.readouterr().out

    def test_total_uses_row_against_output_exits_one(self, tmp_path, capsys):
        broken = (E2 / "table.csv").read_text().replace(
            "TOTAL_USES,100.0,100.0", "TOTAL_USES,999.0,5.0"
        )
        p = tmp_path / "table.csv"
        p.write_text(broken)
        out = tmp_path / "reports"
        assert main(["validate", *table_flags(e2_args(table=str(p))), "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "violation [total_uses] total uses for S1: expected 100, got 999" in stdout
        assert "violation [total_uses] total uses for S2: expected 100, got 5" in stdout
        rows = json.loads((out / "validation.json").read_text())
        assert [(r["kind"], r["sector"]) for r in rows] == [("total_uses", "S1"),
                                                             ("total_uses", "S2")]

    def test_infinite_tolerance_exits_two(self, tmp_path, capsys):
        broken = (E2 / "table.csv").read_text().replace(
            "S1,50.0,20.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0",
            "S1,50.0,20.0,30.0,0.0,0.0,0.0,0.0,0.0,1000.0",
        )
        p = tmp_path / "table.csv"
        p.write_text(broken)
        flags = table_flags(e2_args(table=str(p)))
        assert main(["validate", *flags, "--rel-tol", "1e-6"]) == 1
        assert "validation FAILED" in capsys.readouterr().out
        assert main(["validate", *flags, "--rel-tol", "inf"]) == 2
        assert "rel_tol must be positive and finite, got inf" in capsys.readouterr().err
        out = tmp_path / "reports"
        code = main(["run", *flags, "--scenario", str(E2 / "shock_s1.json"), "--out", str(out),
                     "--rel-tol", "inf"])
        assert code == 2
        assert "rel_tol must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_flow_report_is_finite(self, tmp_path, capsys):
        broken = (E2 / "table.csv").read_text().replace("S1,50.0,20.0", "S1,50.0,-5.0")
        p = tmp_path / "table.csv"
        p.write_text(broken)
        out = tmp_path / "reports"
        assert main(["validate", *table_flags(e2_args(table=str(p))), "--out", str(out)]) == 1
        rows = json.loads(
            (out / "validation.json").read_text(), parse_constant=lambda c: pytest.fail(c)
        )
        negative = [r for r in rows if r["kind"] == "negative_flow"]
        assert [(r["sector"], r["actual"], r["rel_err"]) for r in negative] == [("S1", -5.0, 0.05)]
        numbers = [r[k] for r in rows for k in ("expected", "actual", "rel_err")]
        assert numbers and all(np.isfinite(numbers))
        assert "nan" not in (out / "validation.csv").read_text()

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "--table", "nope.csv", "--meta", str(E2 / "sectors.csv")]) == 2

    def test_malformed_cell_exits_two(self, tmp_path, capsys):
        bad = (E2 / "table.csv").read_text().replace("50.0", '"5,0"')
        p = tmp_path / "table.csv"
        p.write_text(bad)
        assert main(["validate", *table_flags(e2_args(table=str(p)))]) == 2

    def test_nan_flow_exits_two_with_coordinates(self, tmp_path, capsys):
        bad = (E2 / "table.csv").read_text().replace("S2,30.0,40.0", "S2,30.0,nan")
        p = tmp_path / "table.csv"
        p.write_text(bad)
        assert main(["validate", *table_flags(e2_args(table=str(p)))]) == 2
        captured = capsys.readouterr()
        assert "PASSED" not in captured.out
        assert "non-finite numeric cell 'nan' (row 3, column 3)" in captured.err

    def test_unknown_scenario_sector_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text('{"name": "x", "target_sector": "S9", "sub_service_drop": 0.5}')
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(scenario),
             "--out", str(tmp_path / "reports")]
        )
        assert code == 2
        assert "S9" in capsys.readouterr().err


class TestMultipliersCmd:
    def test_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(
            ["multipliers", *table_flags(e2_args()), "--out", str(out),
             "--sector", "S1", "--top-k", "2"]
        )
        assert code == 0
        mults = json.loads((out / "multipliers.json").read_text())
        assert mults[0]["value"] == pytest.approx(3.75)
        assert mults[1]["value"] == pytest.approx(2.9166666667)
        profile = json.loads((out / "sector_multipliers_S1.json").read_text())
        by_name = {r["multiplier"]: r["value"] for r in profile}
        assert by_name["employment"] == pytest.approx(0.5)
        recipe = json.loads((out / "input_recipe_S1.json").read_text())
        assert [r["sector_code"] for r in recipe] == ["S1", "S2"]


class TestRunCmd:
    def test_scenario_pipeline_aggregates(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--method", "both", "--out", str(out)]
        )
        assert code == 0
        ino = json.loads((out / "result_inoperability.json").read_text())
        assert ino["totals"]["output"] == pytest.approx(-45.0)
        assert ino["q"] == pytest.approx([-0.30, -0.15])
        ext = json.loads((out / "result_extraction.json").read_text())
        # alpha = 0.5 * 0.4 = 0.2 per sector on top of the demand drop
        assert ext["totals"]["output"] < ino["totals"]["output"]
        assert (out / "comparison.csv").exists()
        assert (out / "plotdata_top10.csv").exists()
        summary = capsys.readouterr().out
        assert "change in output" in summary

    def test_nan_satellite_cell_exits_two(self, tmp_path, capsys):
        sat = tmp_path / "satellite_employment.csv"
        sat.write_text("sector,employment\nS1,10.0\nS2,nan\n")
        out = tmp_path / "reports"
        args = e2_args(satellites=[str(sat), str(E2 / "satellite_income.csv")])
        code = main(
            ["run", *table_flags(args), "--scenario", str(E2 / "shock_s1.json"),
             "--out", str(out)]
        )
        assert code == 2
        assert "non-finite numeric cell 'nan' (row 3, column 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_shock_is_all_zero(self, tmp_path):
        scenario = tmp_path / "none.json"
        scenario.write_text(
            '{"name": "none", "target_sector": "S1", "sub_service_drop": 0.0}'
        )
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(scenario),
             "--method", "both", "--out", str(out)]
        )
        assert code == 0
        ino = json.loads((out / "result_inoperability.json").read_text())
        ext = json.loads((out / "result_extraction.json").read_text())
        assert ino["totals"]["output"] == pytest.approx(0.0, abs=1e-9)
        assert ext["totals"]["output"] == pytest.approx(0.0, abs=1e-9)

    def test_blowup_flag_scales_nominals(self, tmp_path):
        out_plain = tmp_path / "plain"
        out_scaled = tmp_path / "scaled"
        base = ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                "--method", "inoperability"]
        assert main([*base, "--out", str(out_plain), "--blowup", "1.0"]) == 0
        assert main([*base, "--out", str(out_scaled), "--blowup", "1.092"]) == 0
        plain = json.loads((out_plain / "result_inoperability.json").read_text())
        scaled = json.loads((out_scaled / "result_inoperability.json").read_text())
        assert scaled["totals"]["output"] == pytest.approx(plain["totals"]["output"] * 1.092)
        assert scaled["q"] == plain["q"]
        assert scaled["pct_output"] == plain["pct_output"]

    def test_blowup_history_flag(self, tmp_path):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2015,1000.0\n2016,1048.0\n2017,1089.92\n")
        gdp.write_text("year,gdp_growth\n2016,0.04\n2017,0.04\n2018,0.04\n2019,0.04\n")
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--method", "inoperability", "--out", str(out),
             "--blowup-history", str(fd), str(gdp)]
        )
        assert code == 0
        result = json.loads((out / "result_inoperability.json").read_text())
        assert result["blowup_applied"] == pytest.approx(1.044**2, rel=1e-6)

    def test_non_productive_table_exits_three(self, tmp_path, capsys):
        d = tmp_path
        (d / "sectors.csv").write_text("code,name\nS1,One\nS2,Two\n")
        (d / "table.csv").write_text(
            "sector,S1,S2,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
            "S1,70.0,50.0,-20.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
            "S2,50.0,70.0,-20.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
            "IMPORTS,-10.0,-10.0,,,,,,,\n"
            "VALUE_ADDED,-10.0,-10.0,,,,,,,\n"
            "TOTAL_USES,100.0,100.0,,,,,,,\n"
        )
        scenario = d / "s.json"
        scenario.write_text('{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5}')
        code = main(
            ["run", "--table", str(d / "table.csv"), "--meta", str(d / "sectors.csv"),
             "--scenario", str(scenario), "--out", str(d / "reports")]
        )
        assert code == 3
        assert "diverge" in capsys.readouterr().err

    def test_multiple_scenarios_get_own_directories(self, tmp_path):
        s2 = tmp_path / "second.json"
        s2.write_text(
            '{"name": "second", "target_sector": "S2", "sub_service_drop": 0.25}'
        )
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"), str(s2),
             "--method", "inoperability", "--out", str(out)]
        )
        assert code == 0
        assert (out / "e2_shock_s1" / "result_inoperability.json").exists()
        assert (out / "second" / "result_inoperability.json").exists()

    @pytest.mark.parametrize("command", ["run", "multipliers"])
    def test_negative_top_k_exits_two_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "reports"
        view = ["--scenario", str(E2 / "shock_s1.json")] if command == "run" else ["--sector", "S1"]
        code = main([command, *table_flags(e2_args()), *view, "--top-k", "-1", "--out", str(out)])
        assert code == 2
        assert "top_k must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_tables_encoded_once(self, tmp_path, monkeypatch):
        from ioimpact.report import ReportTable

        encoded = []
        for method in ("csv_text", "json_text"):
            original = getattr(ReportTable, method)

            def spy(self, _original=original, _method=method):
                encoded.append((self.name, _method))
                return _original(self)

            monkeypatch.setattr(ReportTable, method, spy)
        scenarios = [str(E2 / "shock_s1.json")]
        for name, target in (("second", "S2"), ("third", "S1")):
            doc = {"name": name, "target_sector": target, "sub_service_drop": 0.25}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            scenarios.append(str(tmp_path / f"{name}.json"))
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", *scenarios,
                     "--method", "both", "--out", str(out)]) == 0
        for shared in ("validation", "multipliers"):
            assert encoded.count((shared, "csv_text")) == 1
            assert encoded.count((shared, "json_text")) == 1
            for fmt in ("csv", "json"):
                files = [(out / d / f"{shared}.{fmt}").read_bytes()
                         for d in ("e2_shock_s1", "second", "third")]
                assert files[0] == files[1] == files[2]
        assert encoded.count(("impact_inoperability", "json_text")) == 3

    def test_reruns_byte_identical(self, tmp_path):
        args = ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                "--method", "both"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            if path_a.name == "manifest.json":  # embeds the output directory
                continue
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


class TestCompareCmd:
    def test_compare_two_result_files(self, tmp_path, capsys):
        out = tmp_path / "reports"
        main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
              "--method", "both", "--out", str(out)])
        cmp_out = tmp_path / "cmp"
        code = main(
            ["compare", str(out / "result_extraction.json"),
             str(out / "result_inoperability.json"), "--out", str(cmp_out)]
        )
        assert code == 0
        assert (cmp_out / "comparison.csv").exists()
        assert "output difference" in capsys.readouterr().out

    def test_same_method_results_keep_both_columns(self, tmp_path):
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                     "--method", "inoperability", "--out", str(out)]) == 0
        result = str(out / "result_inoperability.json")
        cmp_out = tmp_path / "cmp"
        assert main(["compare", result, result, "--out", str(cmp_out)]) == 0
        columns = ["metric", "inoperability (a)", "inoperability (b)", "difference"]
        header = (cmp_out / "comparison.csv").read_text().splitlines()[0]
        assert header == ",".join(columns)
        rows = json.loads((cmp_out / "comparison.json").read_text())
        assert all(sorted(row) == sorted(columns) for row in rows)
        assert all(row["inoperability (a)"] == row["inoperability (b)"] for row in rows)


class TestReportCsvQuoting:
    """A report cell that holds a comma, a quote or a line end is quoted, so
    every CSV report reads back through csv.reader as the rows of its JSON
    twin."""

    def assert_csv_reads_back(self, out):
        paths = sorted(out.glob("*.csv"))
        assert paths
        for path in paths:
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            records = json.loads(path.with_suffix(".json").read_text())
            assert len(rows) == len(records)
            assert all(len(row) == len(header) for row in rows), path.name
            for j, key in enumerate(header):
                if all(isinstance(r[key], str) for r in records):
                    assert [row[j] for row in rows] == [r[key] for r in records], path.name

    def test_validation_messages_with_commas(self, tmp_path):
        broken = (E2 / "table.csv").read_text().replace("S1,50.0,20.0", "S1,50.0,-5.0")
        p = tmp_path / "table.csv"
        p.write_text(broken)
        out = tmp_path / "reports"
        assert main(["validate", *table_flags(e2_args(table=str(p))), "--out", str(out)]) == 1
        self.assert_csv_reads_back(out)
        messages = [r["message"] for r in json.loads((out / "validation.json").read_text())]
        assert len(messages) == 3 and all("," in m for m in messages)

    def test_sector_name_with_a_comma_and_quotes(self, tmp_path):
        meta = tmp_path / "sectors.csv"
        meta.write_text('code,name\nS1,"Air, transport ""AT"""\nS2,Sector 2\n')
        flags = table_flags(e2_args(meta=str(meta)))
        run = tmp_path / "run"
        assert main(["run", *flags, "--scenario", str(E2 / "shock_s1.json"), "--method", "both",
                     "--out", str(run)]) == 0
        assert main(["multipliers", *flags, "--sector", "S1", "--out", str(tmp_path / "mult")]) == 0
        assert main(["compare", str(run / "result_extraction.json"),
                     str(run / "result_inoperability.json"), "--out", str(tmp_path / "cmp")]) == 0
        for out in ("run", "mult", "cmp"):
            self.assert_csv_reads_back(tmp_path / out)
        with open(run / "impact_inoperability.csv", newline="", encoding="utf-8") as fh:
            assert 'Air, transport "AT"' in [row[1] for row in csv.reader(fh)]


class TestMultiScenarioNames:
    """Each scenario of a multi-scenario run writes to --out/<name>. A name
    that is not one plain path component, or that two scenarios share, exits
    2 naming the scenario file, before any report is written."""

    @staticmethod
    def scenario(tmp_path, stem, name):
        path = tmp_path / f"{stem}.json"
        doc = {"name": name, "target_sector": "S2", "sub_service_drop": 0.25}
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def run(scenarios, out):
        return main(["run", *table_flags(e2_args()), "--scenario", *map(str, scenarios),
                     "--method", "inoperability", "--out", str(out)])

    @pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\x00b"])
    def test_name_must_be_one_path_component(self, tmp_path, capsys, name):
        bad = self.scenario(tmp_path, "bad", name)
        work = tmp_path / "work"
        assert self.run([E2 / "shock_s1.json", bad], work / "o3" / "deep") == 2
        err = capsys.readouterr().err
        assert f"{bad}: scenario name {name!r} must be a plain directory name" in err
        assert not work.exists()

    def test_names_must_differ(self, tmp_path, capsys):
        first = self.scenario(tmp_path, "first", "same")
        second = self.scenario(tmp_path, "second", "same")
        out = tmp_path / "reports"
        assert self.run([first, second], out) == 2
        err = capsys.readouterr().err
        assert f"{second}: scenario name 'same' is also the name of {first}" in err
        assert not out.exists()

    def test_scenario_not_utf8_is_named(self, tmp_path, capsys):
        bad = self.scenario(tmp_path, "bad", "bad")
        bad.write_bytes(bad.read_bytes().replace(b"S2", b"S\xff"))
        out = tmp_path / "reports"
        assert self.run([bad, E2 / "shock_s1.json"], out) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not valid UTF-8 (invalid start byte at byte " in err
        assert not out.exists()

    def test_single_scenario_writes_to_out_whatever_its_name(self, tmp_path):
        only = self.scenario(tmp_path, "only", "../escaped")
        out = tmp_path / "reports"
        assert self.run([only], out) == 0
        assert (out / "result_inoperability.json").exists()
        assert not (tmp_path / "escaped").exists()


class TestInputFaults:
    """Every input file keeps its format's rules through the CLI: a leading
    byte-order mark is accepted, and a byte that is not UTF-8 exits 2 naming
    the file and its line (CSV) or byte offset (JSON), as a repeated key
    does naming the file, the key and the line and column where the object
    that repeats it begins. Nothing is written."""

    # Each input, with the edit that repeats one of its keys and the message
    # that names it.
    INPUTS = {
        "sectors.csv": (b"S2,", b"S1,", "duplicate code 'S1' (row 3, column 1)"),
        "satellite_employment.csv": (b"S2,", b"S1,", "duplicate sector 'S1' (row 3, column 1)"),
        "fd.csv": (b"2016,", b"2015,", "duplicate year 2015 (row 3, column 1)"),
        "shock_s1.json": (b'"name"', b'"target_sector": "S1", "name"',
                          "repeated key 'target_sector' in the object at line 1, column 1"),
        "result_inoperability.json": (b'"dx": ', b'"dx": [0.0, 0.0], "dx": ',
                                      "repeated key 'dx' in the object at line 1, column 1"),
    }
    # A key repeated in a nested object: the edit, and the message.
    NESTED = {
        "shock_s1.json": (b'{"S2": 0.5}', b'{"S2": 0.5, "S2": 0.25}',
                          "repeated key 'S2' in the object at line 6, column 49"),
        "result_inoperability.json": (b'"code": "S2"', b'"code": "S2", "code": "S3"',
                                      "repeated key 'code' in the object at line 33, column 5"),
    }

    @staticmethod
    def argv(d: Path, name: str, out: Path) -> list[str]:
        """compare for a result file; otherwise one run that reads every
        other input."""
        if name.startswith("result_"):
            return ["compare", str(d / name), str(d / "result_extraction.json"), "--out", str(out)]
        return ["run", "--table", str(E2 / "table.csv"), "--meta", str(d / "sectors.csv"),
                "--satellites", str(d / "satellite_employment.csv"),
                "--scenario", str(d / "shock_s1.json"), "--method", "both",
                "--blowup-history", str(d / "fd.csv"), str(d / "gdp.csv"), "--out", str(out)]

    @pytest.fixture
    def inputs(self, tmp_path):
        for name in ("sectors.csv", "satellite_employment.csv", "shock_s1.json"):
            shutil.copy(E2 / name, tmp_path / name)
        (tmp_path / "fd.csv").write_text(
            "year,total_final_demand\n2015,1000.0\n2016,1048.0\n2017,1089.92\n"
        )
        (tmp_path / "gdp.csv").write_text("year,gdp_growth\n2016,0.04\n2017,0.04\n2018,0.04\n")
        assert main(self.argv(tmp_path, "", tmp_path)) == 0  # writes the result files
        return tmp_path

    @pytest.mark.parametrize("fault", ["bom", "bad-byte", "repeated-key"])
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_input_fault(self, inputs, capsys, name, fault):
        path = inputs / name
        data = path.read_bytes()
        old, new, message = self.INPUTS[name]
        if fault == "bom":
            data = b"\xef\xbb\xbf" + data
        elif fault == "bad-byte":  # in the last line, before its last character
            at, row = len(data) - 2, data.count(b"\n")
            data = data[:at] + b"\xff" + data[at:]
            message = "not valid UTF-8 (invalid start byte" + (
                f" at byte {at})" if name.endswith(".json") else f") (row {row})"
            )
        else:
            assert data.count(old) == 1
            data = data.replace(old, new)
        path.write_bytes(data)
        capsys.readouterr()
        out = inputs / "out"
        code = main(self.argv(inputs, name, out))
        err = capsys.readouterr().err
        if fault == "bom":
            assert (code, err) == (0, "")
            assert out.exists()
        else:
            assert (code, err) == (2, f"error: {path}: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("name", list(NESTED))
    def test_a_repeated_key_names_where_its_object_begins(self, inputs, capsys, name, eol):
        # Lines are counted at every line end, as for a syntax error.
        path = inputs / name
        old, new, message = self.NESTED[name]
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new).replace(b"\n", eol))
        capsys.readouterr()
        out = inputs / "out"
        assert main(self.argv(inputs, name, out)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()


class TestCompareRejectsBrokenResults:
    """compare exits 2 naming the file for a result that is not valid JSON,
    holds a NaN or infinity, lacks a key, or has vectors of unequal length;
    it writes no comparison."""

    @staticmethod
    def results(tmp_path):
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                     "--method", "both", "--out", str(out)]) == 0
        return out / "result_extraction.json", out / "result_inoperability.json"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace('"pct_output": ', '"pct_output": NaN, "x": '),
             "'pct_output' must be a finite number, got nan"),
            (lambda text: text.replace('"blowup_applied": 1.0', '"blowup_applied": Infinity'),
             "'blowup_applied' must be a finite number, got inf"),
            (lambda text: text.replace('"pct_output": ', '"pct_output": 1e400, "x": '),
             "'pct_output' must be a finite number"),
            (lambda text: text.replace('"output": ', f'"output": {10**400}, "x": '),
             "'totals.output' is an integer beyond the float range"),
            (lambda text: re.sub(r'("q": \[\s*)[^,\s]+', rf"\g<1>{10**400}", text),
             "'q' holds an integer beyond the float range"),
            (lambda text: text.replace('"q"', '"q_renamed"'), "missing key(s): 'q'"),
            (lambda text: text.replace('"dx": ', '"dx": [0.0, 0.0], "dx": ', 1),
             "repeated key 'dx'"),
            (lambda text: text.replace('"dx": [', '"dx": [1.0, '), "'dx' has 3 values for 2 sectors"),
            (lambda text: text.replace('"income": [', '"income": [1.0, '),
             "'satellite_changes.income' has 3 values for 2 sectors"),
            (lambda text: text.replace('"sectors": [', '"sectors": [{"code": "S3", "name": "x"}, '),
             "'q' has 2 values for 3 sectors"),
        ],
        ids=["nan", "infinity", "overflow", "int-overflow-total", "int-overflow-q", "missing-key",
             "repeated-key", "dx-length", "satellite-length", "extra-sector"],
    )
    def test_bad_content_exits_two(self, tmp_path, capsys, edit, message):
        good, other = self.results(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(edit(good.read_text()))
        cmp_out = tmp_path / "cmp"
        assert main(["compare", str(bad), str(other), "--out", str(cmp_out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        assert message in err
        assert not cmp_out.exists()

    def test_syntax_error_gives_line_and_column(self, tmp_path, capsys):
        good, other = self.results(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(good.read_text().replace('"method": ', '"method" ', 1))
        line = next(i for i, text in enumerate(bad.read_text().splitlines(), 1) if '"method"' in text)
        assert main(["compare", str(other), str(bad), "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: invalid JSON at line {line}, column 12: Expecting ':' delimiter" in err

    def test_repeated_sector_code_exits_two(self, tmp_path, capsys):
        # Both files name S1 twice, so their sector lists still agree: only
        # the reader can refuse them.
        bad = []
        for path in self.results(tmp_path):
            bad.append(tmp_path / f"bad_{path.name}")
            bad[-1].write_text(path.read_text().replace('"code": "S2"', '"code": "S1"'))
        cmp_out = tmp_path / "cmp"
        assert main(["compare", *map(str, bad), "--out", str(cmp_out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad[0]}: 'sectors' repeats code 'S1'" in err
        assert not cmp_out.exists()


class TestOutEnvironment:
    """IOIMPACT_OUT is the default --out of multipliers, run and compare, and
    turns on validate's report files."""

    @pytest.fixture
    def env_out(self, tmp_path, monkeypatch):
        out = tmp_path / "env-out"
        monkeypatch.setenv("IOIMPACT_OUT", str(out))
        return out

    def test_validate_writes_reports(self, env_out):
        assert main(["validate", *table_flags(e2_args())]) == 0
        assert sorted(p.name for p in env_out.iterdir()) == [
            "manifest.json", "validation.csv", "validation.json"]

    def test_multipliers_default_out(self, env_out, capsys):
        assert main(["multipliers", *table_flags(e2_args())]) == 0
        assert f"wrote 4 report files to {env_out}" in capsys.readouterr().out
        assert (env_out / "multipliers.csv").exists()

    def test_run_default_out(self, env_out):
        assert main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json")]) == 0
        assert (env_out / "result_extraction.json").exists()
        assert (env_out / "comparison.csv").exists()

    def test_compare_default_out(self, env_out, tmp_path):
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                     "--out", str(out)]) == 0
        assert main(["compare", str(out / "result_extraction.json"),
                     str(out / "result_inoperability.json")]) == 0
        assert sorted(p.name for p in env_out.iterdir()) == [
            "comparison.csv", "comparison.json", "manifest.json"]


class TestNationalScalePipeline:
    """The bundled COVID fixtures must bind to the bundled sector codes on a
    table of national shape; a synthetic 65-sector economy stands in for the
    real one."""

    def test_covid_fixtures_run_end_to_end(self, tmp_path):
        import csv

        from ioimpact import IOTable, Sector
        from ioimpact.testkit import EconomyGenSpec, random_economy

        with open(FIXTURES / "swedish_sectors.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        base = random_economy(EconomyGenSpec(n=len(rows), seed=2017))
        table = IOTable(
            sectors=tuple(Sector(code, name) for code, name in rows),
            Z=base.Z, final_demand=base.final_demand, imports=base.imports,
            value_added=base.value_added, satellites=base.satellites, x=base.x,
        )
        paths = write_table_files(table, tmp_path)
        out = tmp_path / "reports"
        code = main(
            ["run", "--table", str(paths["table"]), "--meta", str(paths["sectors"]),
             "--satellites", *[str(p) for p in paths["satellites"].values()],
             "--scenario", str(FIXTURES / "scenarios" / "covid_scenario1.json"),
             str(FIXTURES / "scenarios" / "covid_scenario2.json"),
             "--method", "both", "--out", str(out), "--rel-tol", "1e-6"]
        )
        assert code == 0
        for name in ("covid_scenario1", "covid_scenario2"):
            result = json.loads((out / name / "result_extraction.json").read_text())
            assert result["blowup_applied"] == pytest.approx(1.092)
            assert result["totals"]["output"] < 0


class TestDropZeroIntegration:
    def test_zero_output_sector_dropped_before_modeling(self, tmp_path, capsys):
        table = canonical_e2()
        # embed the canonical economy in a 3-sector table with a dead sector
        from ioimpact import FinalDemandBlock, IOTable, SatelliteAccount, Sector

        Z = np.zeros((3, 3))
        Z[np.ix_([0, 2], [0, 2])] = table.Z
        fd = np.zeros((3, 6))
        fd[[0, 2], :] = table.final_demand.values
        big = IOTable(
            sectors=(Sector("S1", "One"), Sector("DEAD", "Defunct"), Sector("S2", "Two")),
            Z=Z,
            final_demand=FinalDemandBlock(fd),
            imports=np.array([table.imports[0], 0.0, table.imports[1]]),
            value_added=np.array([table.value_added[0], 0.0, table.value_added[1]]),
            satellites={
                "employment": SatelliteAccount("employment", [10.0, 0.0, 20.0]),
            },
            x=np.array([100.0, 0.0, 100.0]),
        )
        paths = write_table_files(big, tmp_path)
        code = main(
            ["validate", "--table", str(paths["table"]), "--meta", str(paths["sectors"]),
             "--satellites", str(paths["satellites"]["employment"])]
        )
        assert code == 0
        assert "DEAD" in capsys.readouterr().err

    GHOST = (
        "sector,S1,S2,S3,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
        "S1,50.0,20.0,0.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
        "S2,30.0,40.0,0.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
        "S3,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,-5.0\n"
        "IMPORTS,-10.0,0.0,0.0,,,,,,,\n"
        "VALUE_ADDED,30.0,40.0,0.0,,,,,,,\n"
        "TOTAL_USES,100.0,100.0,0.0,,,,,,,\n"
    )

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_output_sector_is_kept_and_fails_validation(self, tmp_path, capsys,
                                                                 command):
        (tmp_path / "table.csv").write_text(self.GHOST)
        (tmp_path / "sectors.csv").write_text("code,name\nS1,Sector 1\nS2,Sector 2\nS3,Ghost\n")
        args = e2_args(table=str(tmp_path / "table.csv"), meta=str(tmp_path / "sectors.csv"),
                       satellites=[])
        extra = {"validate": [], "run": ["--scenario", str(E2 / "shock_s1.json"),
                                         "--out", str(tmp_path / "reports")]}[command]
        assert main([command, *table_flags(args), *extra]) == 1
        captured = capsys.readouterr()
        assert "dropped" not in captured.err
        assert "violation [row_identity] row identity for S3: expected -5" in (
            captured.out + captured.err
        )
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_balanced_negative_output_sector_fails_validation(self, tmp_path, capsys, command):
        """Both identities of S3 hold, so only the sign check can see it."""
        (tmp_path / "table.csv").write_text(
            self.GHOST.replace("S3," + "0.0," * 8, "S3," + "0.0," * 7 + "-5.0,")
            .replace("IMPORTS,-10.0,0.0,0.0", "IMPORTS,-10.0,0.0,-5.0")
            .replace("TOTAL_USES,100.0,100.0,0.0", "TOTAL_USES,100.0,100.0,-5.0")
        )
        (tmp_path / "sectors.csv").write_text("code,name\nS1,Sector 1\nS2,Sector 2\nS3,Ghost\n")
        args = e2_args(table=str(tmp_path / "table.csv"), meta=str(tmp_path / "sectors.csv"),
                       satellites=[])
        extra = {"validate": [], "run": ["--scenario", str(E2 / "shock_s1.json"),
                                         "--out", str(tmp_path / "reports")]}[command]
        assert main([command, *table_flags(args), *extra]) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "violation [negative_output] total output of S3 = -5 is negative" in text
        assert "identity" not in text
        assert "validation FAILED" in text
        assert not (tmp_path / "reports").exists()


    # S3 produces nothing, but its imports, value added and total uses are
    # not zero: dropping it would lose them.
    LOSSY = (
        "sector,S1,S2,S3,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
        "S1,50.0,20.0,0.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
        "S2,30.0,40.0,0.0,30.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
        "S3,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
        "IMPORTS,-10.0,0.0,7.0,,,,,,,\n"
        "VALUE_ADDED,30.0,40.0,-7.0,,,,,,,\n"
        "TOTAL_USES,100.0,100.0,50.0,,,,,,,\n"
    )

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("household", ["0.0", "5.0"])
    def test_zero_output_sector_holding_values_is_kept_and_fails(self, tmp_path, capsys,
                                                                 command, household):
        table = self.LOSSY.replace("S3," + "0.0," * 3 + "0.0", "S3," + "0.0," * 3 + household)
        (tmp_path / "table.csv").write_text(table)
        (tmp_path / "sectors.csv").write_text("code,name\nS1,a\nS2,b\nS3,c\n")
        args = e2_args(table=str(tmp_path / "table.csv"), meta=str(tmp_path / "sectors.csv"),
                       satellites=[])
        extra = {"validate": [], "run": ["--scenario", str(E2 / "shock_s1.json"),
                                         "--out", str(tmp_path / "reports")]}[command]
        assert main([command, *table_flags(args), *extra]) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "dropped zero-output sector" not in captured.err
        assert "validation FAILED" in text
        assert ("violation [zero_output] total output of S3 is zero; the model needs it "
                "positive, and only a sector that holds nothing but zeros is dropped") in text
        assert "violation [total_uses] total uses for S3: expected 0, got 50" in text
        assert ("row identity for S3" in text) == (household == "5.0")
        assert not (tmp_path / "reports").exists()


class TestReportNames:
    def test_sector_code_with_a_slash_exits_two_and_writes_nothing(self, tmp_path, capsys):
        d = tmp_path / "in"
        shutil.copytree(E2, d)
        for name in ("table.csv", "sectors.csv", "satellite_employment.csv",
                     "satellite_income.csv"):
            path = d / name
            path.write_text(path.read_text().replace("S2", "S/2"))
        args = e2_args(table=str(d / "table.csv"), meta=str(d / "sectors.csv"),
                       satellites=[str(d / "satellite_employment.csv"),
                                   str(d / "satellite_income.csv")])
        out = tmp_path / "out"
        assert main(["multipliers", *table_flags(args), "--sector", "S/2",
                     "--out", str(out)]) == 2
        assert "report name 'sector_multipliers_S/2' must be one plain file name" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestMalformedRowsExitTwo:
    def test_one_cell_satellite_row(self, tmp_path, capsys):
        sat = tmp_path / "satellite_employment.csv"
        sat.write_text("sector,employment\nS1\nS2,20.0\n")
        args = e2_args(satellites=[str(sat)])
        assert main(["validate", *table_flags(args)]) == 2
        assert "row has 1 cells, expected 2 (row 2)" in capsys.readouterr().err

    def test_one_cell_history_row(self, tmp_path, capsys):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2015\n")
        gdp.write_text("year,gdp_growth\n2016,0.04\n")
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--out", str(out), "--blowup-history", str(fd), str(gdp)]
        )
        assert code == 2
        assert "row has 1 cells, expected 2 (row 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_over_csv_field_limit(self, tmp_path, capsys):
        bad = (E2 / "table.csv").read_text().replace("S2,30.0,40.0", "S2,30.0," + "4" * 140000)
        p = tmp_path / "table.csv"
        p.write_text(bad)
        assert main(["validate", *table_flags(e2_args(table=str(p)))]) == 2
        err = capsys.readouterr().err
        assert "field larger than field limit" in err
        assert "(row 3)" in err


class TestBlowupRule:
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_flag_must_be_finite_and_positive(self, tmp_path, capsys, value):
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--out", str(out), "--blowup", value]
        )
        assert code == 2
        assert "blowup factor must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "0", "Infinity"])
    def test_scenario_factor_must_be_finite_and_positive(self, tmp_path, capsys, value):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            '{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5, '
            f'"blowup_factor": {value}}}'
        )
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(scenario), "--out", str(out)]
        )
        assert code == 2
        assert "blowup_factor must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_history_total(self, tmp_path, capsys):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2015,0.0\n2016,1048.0\n2017,1089.92\n")
        gdp.write_text("year,gdp_growth\n2016,0.04\n2017,0.04\n2018,0.04\n")
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--out", str(out), "--blowup-history", str(fd), str(gdp)]
        )
        assert code == 2
        assert "final-demand total for 2015 is zero" in capsys.readouterr().err


    def test_duplicate_history_year(self, tmp_path, capsys):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2019,110\n2019,500\n")
        gdp.write_text("year,gdp_growth\n2020,0.04\n")
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--out", str(out), "--blowup-history", str(fd), str(gdp)]
        )
        assert code == 2
        assert "fd.csv: duplicate year 2019 (row 3, column 1)" in capsys.readouterr().err
        assert not out.exists()


class TestReportDigests:
    """The e2 fixture's CSV and JSON reports, pinned byte for byte."""

    RUN = {
        "comparison.csv": "e4738222ccc9cdc9c23209b20638fd59d8db44ced46b05271160b33c2a80a263",
        "impact_extraction.csv": "16616eecaeedf1a03ab2f5357945d133d46ddf81564002b5b39df79f3f9017ff",
        "impact_inoperability.csv": "d969f13be095a78ee83f85306b0a54e31fc5acd2c17af19ca55cd79314f45608",
        "multipliers.csv": "e7a157ab307945c7789f270ccb5bdf1c89e6a319030103584262853e976ff5a6",
        "plotdata_top10.csv": "af366bcee221f4130000d2d8df36e5a0705aca5efd0fa0846366da7fa4b79365",
        "validation.csv": "77e9da49d92d47048c83ae4bd470c4750188353f51ac210a5420a693366fe211",
    }
    MULTIPLIERS = {
        "downstream_S1.csv": "b8160e736365100324cf381a8c2d2568fefdeb2663219cf7e14317b4cfd36e31",
        "input_recipe_S1.csv": "94637384e711d2bd2147ece12160ad79e64f31414eb8cebf248fb526934f0aee",
        "multipliers.csv": "e7a157ab307945c7789f270ccb5bdf1c89e6a319030103584262853e976ff5a6",
        "sector_multipliers_S1.csv": "cb501670912e2e627a3607425ca6a7e3798f0291fbb3a5aacd06ac98ad1e9971",
        "validation.csv": "77e9da49d92d47048c83ae4bd470c4750188353f51ac210a5420a693366fe211",
    }

    # The JSON reports, pinned byte for byte as json.dumps(indent=2,
    # sort_keys=True) wrote them; manifest.json holds the output path.
    RUN_JSON = {
        "comparison.json": "3568b687a75ea5636b157958ff1d4d2c7897331e0a0ea644caba1a6436756385",
        "impact_extraction.json": "370dd26d0451b0f414e5690dc99bf0d0f6a6eff2bd125cad41337cd172160474",
        "impact_inoperability.json": "9c36210eaeb43431cfeb69d6dc6f9e72d2e47ddcdb33e9a5c4b2976e5b5d3111",
        "multipliers.json": "a8f36154980eee620c28979078a9a0c202179f78b9616ccc754aa454ec696eae",
        "plotdata_top10.json": "b5e82ff03ceca2bce3fe2816744e3557490c29e92a3871554936b078c44fb1f5",
        "result_extraction.json": "52afc3403362fae335e828b7fdf9f008660e4ccc8f42559fb9724380a062d2c7",
        "result_inoperability.json": "8e8d756573ef4978ed8007b6d7a7d244abbb2d01069a2d02dd54038974a883bb",
        "validation.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    }
    MULTIPLIERS_JSON = {
        "downstream_S1.json": "7fa6691dbab1cdca77f55df59a3cd9e797c4e628f8b4363ccf86304c5f215ad9",
        "input_recipe_S1.json": "af2b2c86f5cd1979147639dc0bfefec59c1ba3bb3800e754598a60c8c5299e1b",
        "multipliers.json": "a8f36154980eee620c28979078a9a0c202179f78b9616ccc754aa454ec696eae",
        "sector_multipliers_S1.json": "d76e59542c62482c91d2abd0ad6273c64b0b5c2521d06031904147dfa6d6dd55",
        "validation.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    }

    # run --method both on a generated 40-sector table with both satellites
    # and two scenarios, the second with reallocation: every CSV and JSON
    # report of each scenario's directory. OpenBLAS inverts this table to
    # the same bits under 1 and 2 threads.
    N40_SCENARIOS = [
        {"name": "loss", "target_sector": "S3", "sub_service_drop": 0.4,
         "intermediate": {"apply": True, "use_ratios": {"S5": 0.2}, "default_ratio": 0.5}},
        {"name": "shift", "target_sector": "S11", "sub_service_drop": 0.3,
         "intermediate": {"apply": True, "use_ratios": {}, "default_ratio": 0.3},
         "reallocation": {"savings_fraction": 0.25, "shares": {"S2": 0.6, "S7": 0.4}}},
    ]
    N40_RUN = {
        "loss/comparison.csv": "a4f97422bec2bdceee08466c509e9046ed63557dfe73c4e47c47341c1a9cff67",
        "loss/comparison.json": "2b42510350bcc3b136b1a1a0a7d53f98c643bae6279702b6fbca2b30de6a7c1a",
        "loss/impact_extraction.csv": "740d34feb15f14eef2f70aa2ccf3d2b0efaecb5c95b7bcf566a1a513d33f79d1",
        "loss/impact_extraction.json": "29985cdb6bf75c9c80cab6f297b03219721532021d08eba39ae1f10d8922e3ac",
        "loss/impact_inoperability.csv": "bbfacb93b12cb8ad87ae8b8d0bfc7fd24f9232639afa2be15fb6c74a76dd46c8",
        "loss/impact_inoperability.json": "10456c22ccae95c928cd0f3ea75911806c64f946fb5c100762c9fe4b70fd9f76",
        "loss/multipliers.csv": "252e9099554c24ed6e521dd8b00d1a33bb983a4f08fce1a76e53ae3f08a248b7",
        "loss/multipliers.json": "041f34d0aed830263fe4b5bb1eeb3b4ae6e17b14cc60654761a19ef326c17308",
        "loss/plotdata_top10.csv": "e17a23e69d9decadd451af65137f66c1f7063737ad27a932573d39f2ea4f9a89",
        "loss/plotdata_top10.json": "5f55fed042af7c97bf52046aaa504d1a24763381c1daa8ba43c828ad6b62bc11",
        "loss/result_extraction.json": "383f5388bdfc9fb946637566a412802fd6355eacf41c1da1b53ace0ddae46a91",
        "loss/result_inoperability.json": "931e99dc103197ab422ddc0cbcbdf0fd43dede095533fdf3920fa214e97f706a",
        "loss/validation.csv": "77e9da49d92d47048c83ae4bd470c4750188353f51ac210a5420a693366fe211",
        "loss/validation.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "shift/comparison.csv": "fb980ae4870b24681901611bcfea62d0f120d589061033a4e0bdb8085c466bb1",
        "shift/comparison.json": "2698107b2028c871d84f74824858bc74b4982abdcffa4a3824ba10d9910f13bf",
        "shift/impact_extraction.csv": "24034910f18bb459724a5dc5304cdae2946d1778c1b2c09e20e2f4c4b96b4403",
        "shift/impact_extraction.json": "3e125f4226096b0246c69a21f60e553169847a94c47736d7a10f329043f9094a",
        "shift/impact_inoperability.csv": "1b738dd3e16b82849d399b5d0c91df76f267b30be33e410d285c5df4b197188b",
        "shift/impact_inoperability.json": "467f245e732847861efae7473a15ccda41a280db911cd2f7ae706a417017ecb2",
        "shift/multipliers.csv": "252e9099554c24ed6e521dd8b00d1a33bb983a4f08fce1a76e53ae3f08a248b7",
        "shift/multipliers.json": "041f34d0aed830263fe4b5bb1eeb3b4ae6e17b14cc60654761a19ef326c17308",
        "shift/plotdata_top10.csv": "eca784efc53ee627910cec9ce50e7e97d7ce3940457e9c7a63f9f5717b0e2686",
        "shift/plotdata_top10.json": "e8fa9216d43b14cdf2ad47443928fe696823895159a53a4b03955ca1ffdd619e",
        "shift/result_extraction.json": "7a3b5e2b019b5ec9f34d00860c363ff0d486a2988d99f71daff37a78ce11fc4a",
        "shift/result_inoperability.json": "de2bbca07fef9424188ef4106425099a5fd03bc8b3ebc5003ff15b899170b7a4",
        "shift/validation.csv": "77e9da49d92d47048c83ae4bd470c4750188353f51ac210a5420a693366fe211",
        "shift/validation.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    }

    @staticmethod
    def csv_digests(out):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
        }

    @staticmethod
    def json_digests(out):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.json"))
            if p.name != "manifest.json"
        }

    def test_run_method_both(self, tmp_path):
        out = tmp_path / "reports"
        code = main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--method", "both", "--out", str(out)]
        )
        assert code == 0
        assert self.csv_digests(out) == self.RUN
        assert self.json_digests(out) == self.RUN_JSON

    def test_run_method_both_n40(self, tmp_path):
        paths = write_table_files(random_economy(EconomyGenSpec(n=40, seed=7)), tmp_path / "in")
        scenarios = []
        for doc in self.N40_SCENARIOS:
            scenarios.append(tmp_path / "in" / f"{doc['name']}.json")
            scenarios[-1].write_text(json.dumps(doc))
        args = e2_args(table=str(paths["table"]), meta=str(paths["sectors"]),
                       satellites=[str(p) for p in paths["satellites"].values()])
        out = tmp_path / "reports"
        assert main(["run", *table_flags(args), "--scenario", *map(str, scenarios),
                     "--method", "both", "--out", str(out)]) == 0
        digests = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }
        assert digests == self.N40_RUN

    def test_multipliers_sector(self, tmp_path):
        out = tmp_path / "reports"
        assert main(["multipliers", *table_flags(e2_args()), "--sector", "S1",
                     "--out", str(out)]) == 0
        assert self.csv_digests(out) == self.MULTIPLIERS
        assert self.json_digests(out) == self.MULTIPLIERS_JSON


class TestParseCache:
    @staticmethod
    def run_both(out):
        shutil.rmtree(out, ignore_errors=True)
        return main(
            ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
             "--method", "both", "--out", str(out)]
        )

    @staticmethod
    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_hit_writes_identical_reports(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "reports"
        assert self.run_both(out) == 0
        miss, miss_stdout = self.files(out), capsys.readouterr().out
        assert "manifest.json" in miss

        def no_parse(*args):
            raise AssertionError("parse_io_table called on a cache hit")

        monkeypatch.setattr(ingest, "parse_io_table", no_parse)
        assert self.run_both(out) == 0
        assert self.files(out) == miss
        assert capsys.readouterr().out == miss_stdout

    def test_edited_cell_after_caching_exits_two(self, tmp_path, capsys):
        d = tmp_path / "in"
        shutil.copytree(E2, d)
        args = e2_args(table=str(d / "table.csv"))
        assert main(["validate", *table_flags(args)]) == 0
        table = d / "table.csv"
        table.write_text(table.read_text().replace("S2,30.0,40.0", "S2,30.0,abc"))
        capsys.readouterr()
        assert main(["validate", *table_flags(args)]) == 2
        assert "malformed numeric cell 'abc' (row 3, column 3)" in capsys.readouterr().err

    def test_unwritable_cache_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "reports"
        assert self.run_both(out) == 0
        cached = self.files(out)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert self.run_both(out) == 0
        assert self.files(out) == cached


class TestOneSolvePerRun:
    """A warm run makes the same solves at any number of scenarios: one
    n x S block of the S demand changes, under every method, beside the
    model's own x0 and productivity solves. Extraction reads its target's
    column of L without a solve."""

    TARGETS = ["S2", "S1", "S2", "S2", "S1"]

    @staticmethod
    def scenarios(tmp_path, count):
        paths = []
        for s, target in enumerate(TestOneSolvePerRun.TARGETS[:count]):
            doc = {"name": f"scn{s}", "target_sector": target, "sub_service_drop": 0.1 * (s + 1),
                   "intermediate": {"apply": True, "use_ratios": {}, "default_ratio": 0.5}}
            paths.append(tmp_path / f"scn{s}.json")
            paths[-1].write_text(json.dumps(doc))
        return paths

    @pytest.mark.parametrize("fixture", ["e2", "n130"])
    @pytest.mark.parametrize("method", ["both", "inoperability", "extraction"])
    def test_warm_run_solves_one_block(self, tmp_path, monkeypatch, fixture, method):
        if fixture == "e2":
            args, n = e2_args(), 2
        else:  # two pivot blocks of the inversion
            paths = write_table_files(random_economy(EconomyGenSpec(n=130, seed=4)), tmp_path)
            args = e2_args(table=str(paths["table"]), meta=str(paths["sectors"]),
                           satellites=[str(p) for p in paths["satellites"].values()])
            n = 130
        calls = {}
        solve = leontief.LeontiefModel.solve
        for count in (1, 5):
            argv = ["run", *table_flags(args), "--scenario",
                    *map(str, self.scenarios(tmp_path, count)), "--method", method,
                    "--out", str(tmp_path / f"out{count}")]
            assert main(argv) == 0  # the first run of a count is cold
            shutil.rmtree(tmp_path / f"out{count}")
            calls[count] = []

            def spy(model, rhs, seen=calls[count]):
                seen.append(rhs)
                return solve(model, rhs)

            monkeypatch.setattr(leontief.LeontiefModel, "solve", spy)
            assert main(argv) == 0
            monkeypatch.undo()
        assert len(calls[1]) == len(calls[5])
        for count in (1, 5):
            blocks = [rhs for rhs in calls[count] if np.ndim(rhs) == 2]
            assert len(blocks) == 1
            assert blocks[0].shape == (n, count)
            assert blocks[0].flags.c_contiguous


def cache_dir():
    return Path(os.environ["XDG_CACHE_HOME"]) / "ioimpact"


def cache_files():
    return sorted(cache_dir().glob("*.npz"))


class TestModelCache:
    """run and multipliers load L = (I - A)^-1 from the table's cache
    entry when an earlier run inverted the same I - A."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        real = leontief.leontief_inverse

        def counting(A):
            calls.append("leontief_inverse")
            return real(A)

        monkeypatch.setattr(leontief, "leontief_inverse", counting)
        return calls

    @staticmethod
    def n300_args(tmp_path):
        """A generated 300-sector table (three diagonal blocks) and a scenario."""
        paths = write_table_files(random_economy(EconomyGenSpec(n=300, seed=11)), tmp_path / "in")
        doc = {
            "name": "n300", "target_sector": "S17", "sub_service_drop": 0.6,
            "intermediate": {"apply": True, "use_ratios": {"S3": 0.2}, "default_ratio": 0.5},
        }
        scenario = tmp_path / "in" / "n300.json"
        scenario.write_text(json.dumps(doc))
        args = e2_args(table=str(paths["table"]), meta=str(paths["sectors"]),
                       satellites=[str(p) for p in paths["satellites"].values()])
        return args, scenario

    @pytest.mark.parametrize("fixture", ["e2", "n300"])
    def test_second_run_does_not_factorize(self, tmp_path, factorizations, fixture):
        if fixture == "e2":
            args, scenario = e2_args(), E2 / "shock_s1.json"
        else:
            args, scenario = self.n300_args(tmp_path)
        out = tmp_path / "reports"
        argv = ["run", *table_flags(args), "--scenario", str(scenario), "--method", "both",
                "--out", str(out)]
        assert main(argv) == 0
        assert factorizations == ["leontief_inverse"]
        miss = TestParseCache.files(out)
        shutil.rmtree(out)
        assert main(argv) == 0
        assert factorizations == ["leontief_inverse"]
        assert TestParseCache.files(out) == miss

    def test_cold_run_checks_A_once(self, tmp_path, monkeypatch, factorizations):
        checks = []
        real = leontief.check_coefficients

        def counting(model):
            checks.append(model.table.n)
            return real(model)

        monkeypatch.setattr(leontief, "check_coefficients", counting)
        assert TestParseCache.run_both(tmp_path / "reports") == 0
        assert (checks, factorizations) == ([2], ["leontief_inverse"])
        assert TestParseCache.run_both(tmp_path / "reports") == 0
        assert (checks, factorizations) == ([2, 2], ["leontief_inverse"])

    def test_multipliers_share_the_entry(self, tmp_path, factorizations):
        out = tmp_path / "reports"
        assert TestParseCache.run_both(out) == 0
        assert main(["multipliers", *table_flags(e2_args()), "--sector", "S1",
                     "--out", str(tmp_path / "m")]) == 0
        assert factorizations == ["leontief_inverse"]

    NON_PRODUCTIVE = (
        "sector,S1,S2,HH,NPISH,GOV,GFCF,INV,EXP,total_output\n"
        "S1,70.0,50.0,-20.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
        "S2,50.0,70.0,-20.0,0.0,0.0,0.0,0.0,0.0,100.0\n"
        "IMPORTS,-10.0,-10.0,,,,,,,\n"
        "VALUE_ADDED,-10.0,-10.0,,,,,,,\n"
        "TOTAL_USES,100.0,100.0,,,,,,,\n"
    )

    NEGATIVE_FLOW = (E2 / "table.csv").read_text().replace("S1,50.0,20.0", "S1,50.0,-5.0")

    @pytest.mark.parametrize(
        "text,code,message",
        [(NEGATIVE_FLOW, 1, "negative"), (NON_PRODUCTIVE, 3, "diverge")],
        ids=["negative-flow", "non-productive"],
    )
    def test_bad_table_fails_alike_with_a_populated_cache(
        self, tmp_path, capsys, text, code, message
    ):
        table = tmp_path / "table.csv"
        table.write_text(text)
        args = e2_args(table=str(table), satellites=[])
        argv = ["run", *table_flags(args), "--scenario", str(E2 / "shock_s1.json"),
                "--out", str(tmp_path / "reports")]
        assert main(argv) == code
        cold = capsys.readouterr()
        assert message in cold.err
        # A table that fails to validate or to certify is never cached.
        assert list(cache_dir().glob("*")) == []
        # Plant the L a hit would serve: the table's own leontief_inverse,
        # which no check has passed.
        loaded, table_entry = ingest.load_table_entry(args["table"], args["meta"])
        loaded, _ = drop_zero_sectors(loaded)
        ingest._write_entry(table_entry, L=leontief.leontief_inverse(loaded.Z / loaded.x))
        (entry,) = cache_files()
        planted = entry.read_bytes()
        assert main(argv) == code
        assert capsys.readouterr() == cold
        assert entry.read_bytes() == planted

    def test_one_entry_for_validate_run_and_multipliers(self, tmp_path, monkeypatch,
                                                        factorizations):
        parses = []
        real = ingest.parse_io_table

        def counting(*args):
            parses.append(args)
            return real(*args)

        monkeypatch.setattr(ingest, "parse_io_table", counting)
        args, scenario = self.n300_args(tmp_path)
        counts = []
        for argv in (
            ["validate"],
            ["run", "--scenario", str(scenario), "--out", str(tmp_path / "run")],
            ["multipliers", "--sector", "S17", "--out", str(tmp_path / "m")],
        ):
            assert main([argv[0], *table_flags(args), *argv[1:]]) == 0
            counts.append((len(parses), factorizations.count("leontief_inverse")))
        # validate stores the parsed table; run adds L to its entry.
        assert counts == [(1, 0), (1, 1), (1, 1)]
        cache = cache_dir()
        assert [p.name for p in cache.iterdir()] == [cache_files()[0].name]
        assert not (cache / "models").exists()

    @pytest.fixture
    def writes(self, monkeypatch):
        """For each cache entry written so far, whether it held L."""
        calls = []
        real = ingest._write_entry

        def counting(entry, **model):
            calls.append("L" in model)
            return real(entry, **model)

        monkeypatch.setattr(ingest, "_write_entry", counting)
        return calls

    @pytest.fixture
    def parses(self, monkeypatch):
        """The arguments of each parse_io_table call so far."""
        calls = []
        real = ingest.parse_io_table

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ingest, "parse_io_table", counting)
        return calls

    @staticmethod
    def e2_argv(tmp_path, command):
        extra = {
            "validate": [],
            "run": ["--scenario", str(E2 / "shock_s1.json"), "--out", str(tmp_path / "run")],
            "multipliers": ["--sector", "S1", "--out", str(tmp_path / "m")],
        }[command]
        return [command, *table_flags(e2_args()), *extra]

    @pytest.mark.parametrize("command,cold", [("run", [True]), ("multipliers", [True]),
                                              ("validate", [False])])
    def test_cold_command_writes_once_and_warm_never(self, tmp_path, writes, command, cold):
        argv = self.e2_argv(tmp_path, command)
        assert main(argv) == 0
        assert writes == cold
        assert main(argv) == 0
        assert writes == cold

    def test_validate_then_run_adds_the_factors(self, tmp_path, writes):
        assert main(self.e2_argv(tmp_path, "validate")) == 0
        assert writes == [False]
        assert main(self.e2_argv(tmp_path, "run")) == 0
        assert writes == [False, True]
        for command in ("validate", "multipliers", "run"):
            assert main(self.e2_argv(tmp_path, command)) == 0
        assert writes == [False, True]
        (entry,) = cache_files()
        with np.load(entry) as npz:
            assert "L" in npz.files

    UNKNOWN_TARGET = '{"name": "x", "target_sector": "S9", "sub_service_drop": 0.5}'
    INFINITE_CHANGE = ('{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5,'
                       ' "absolute_changes": {"HH": -1e308, "GOV": -1e308}}')

    @pytest.mark.parametrize(
        "command,table,view,code,message",
        [("run", NEGATIVE_FLOW, None, 1, "negative"),
         ("multipliers", NEGATIVE_FLOW, None, 1, "negative"),
         ("run", None, UNKNOWN_TARGET, 2, "unknown sector code 'S9'"),
         ("multipliers", None, "S9", 2, "unknown sector code 'S9'"),
         ("run", None, INFINITE_CHANGE, 2, "the demand change is -inf at sector S1"),
         ("run", NON_PRODUCTIVE, None, 3, "diverge"),
         ("multipliers", NON_PRODUCTIVE, None, 3, "diverge")],
        ids=["run-invalid", "multipliers-invalid", "run-unknown-sector",
             "multipliers-unknown-sector", "run-infinite-change", "run-non-productive",
             "multipliers-non-productive"],
    )
    def test_command_that_stops_before_its_model_stores_nothing(
        self, tmp_path, capsys, parses, writes, command, table, view, code, message
    ):
        def argv(table, view):
            if command == "run":
                scenario = E2 / "shock_s1.json"
                if view is not None:
                    scenario = tmp_path / "bad.json"
                    scenario.write_text(view)
                extra = ["--scenario", str(scenario)]
            else:
                extra = ["--sector", "S1" if view is None else view]
            return [command, *table_flags(table), *extra, "--out", str(tmp_path / "reports")]

        args = e2_args(satellites=[])
        if table is not None:
            (tmp_path / "table.csv").write_text(table)
            args["table"] = str(tmp_path / "table.csv")
        failing = argv(args, view)
        assert main(failing) == code
        assert message in capsys.readouterr().err
        assert writes == []
        assert list(cache_dir().glob("*")) == []
        # The corrected rerun parses the table again and stores it with L, in one write.
        parses.clear()
        assert main(argv(e2_args(satellites=[]), None)) == 0
        assert (len(parses), writes) == (1, [True])
        # Warm: validate adds the failing table's entry if it is another table.
        # The failing command leaves every entry as it was.
        assert main(["validate", *table_flags(args)]) == (1 if table == self.NEGATIVE_FLOW else 0)
        warm = {p.name: p.read_bytes() for p in cache_files()}
        assert main(failing) == code
        assert {p.name: p.read_bytes() for p in cache_files()} == warm

    def test_damaged_arrays_with_intact_factors_are_rewritten_whole(
        self, tmp_path, factorizations, parses, writes
    ):
        args, scenario = self.n300_args(tmp_path)
        argv = ["run", *table_flags(args), "--scenario", str(scenario), "--out",
                str(tmp_path / "reports")]
        assert main(argv) == 0
        (entry,) = cache_files()
        with np.load(entry) as npz:
            stored = {name: npz[name] for name in npz.files}
        damaged = {**stored, "Z": stored["Z"].copy()}
        damaged["Z"][0, 1] = np.nan
        np.savez(entry, **damaged)
        assert main(argv) == 0
        assert (len(parses), writes) == (2, [True, True])
        with np.load(entry) as npz:
            assert {name: npz[name].tobytes() for name in npz.files} == {
                name: array.tobytes() for name, array in stored.items()
            }
        assert main(argv) == 0
        assert (len(parses), writes) == (2, [True, True])
        assert factorizations == ["leontief_inverse"] * 2

    def test_warm_run_hashes_each_input_once_and_never_A(self, tmp_path, monkeypatch):
        args, scenario = self.n300_args(tmp_path)
        argv = ["run", *table_flags(args), "--scenario", str(scenario), "--out",
                str(tmp_path / "reports")]
        assert main(argv) == 0
        digested, hashed = [], []
        real_digest = ingest._file_digest

        def file_digest(path):
            digested.append(Path(path).resolve())
            return real_digest(path)

        class CountingHashlib:
            @staticmethod
            def sha256(data=b""):
                digest = hashlib.sha256()

                class Counted:
                    def update(self, chunk):
                        hashed.append(memoryview(chunk).nbytes)
                        digest.update(chunk)

                    def digest(self):
                        return digest.digest()

                    def hexdigest(self):
                        return digest.hexdigest()

                counted = Counted()
                counted.update(data)
                return counted

        monkeypatch.setattr(ingest, "_file_digest", file_digest)
        monkeypatch.setattr(ingest, "hashlib", CountingHashlib)
        assert main(argv) == 0
        inputs = [Path(p).resolve() for p in (ingest.__file__, leontief.__file__, args["meta"],
                                              args["table"])]
        assert sorted(digested) == sorted(inputs)
        # The four files and the key's own few bytes; A alone is 8 n^2 bytes.
        file_bytes = sum(p.stat().st_size for p in inputs)
        assert file_bytes <= sum(hashed) <= file_bytes + 256
        assert 8 * 300**2 not in hashed

    def test_unwritable_cache_dir_factorizes_every_run(self, tmp_path, monkeypatch,
                                                       factorizations):
        out = tmp_path / "reports"
        assert TestParseCache.run_both(out) == 0
        cached = TestParseCache.files(out)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for _ in range(2):
            assert TestParseCache.run_both(out) == 0
            assert TestParseCache.files(out) == cached
        assert factorizations == ["leontief_inverse"] * 3

    def test_entry_serves_only_its_blas_thread_count(self, tmp_path):
        # OpenBLAS inverts I - A to other bits under another thread count at
        # this size, so an entry written by a 2-thread run must not serve a
        # 1-thread run: the second run writes the bytes of a cold one.
        paths = write_table_files(random_economy(EconomyGenSpec(n=256, seed=5)), tmp_path / "in")
        scenario = tmp_path / "in" / "n256.json"
        scenario.write_text(json.dumps({"name": "n256", "target_sector": "S17",
                                        "sub_service_drop": 0.6}))
        src = str(Path(cli.__file__).resolve().parents[1])

        def run(threads, cache, out):
            env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                   "OPENBLAS_NUM_THREADS": str(threads), "XDG_CACHE_HOME": str(tmp_path / cache),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            argv = ["run", "--table", str(paths["table"]), "--meta", str(paths["sectors"]),
                    "--scenario", str(scenario), "--method", "both", "--out", str(tmp_path / out)]
            child = subprocess.run([sys.executable, "-m", "ioimpact.cli", *argv],
                                   env=env, capture_output=True, text=True, timeout=120)
            assert (child.returncode, child.stderr) == (0, "")
            files = TestParseCache.files(tmp_path / out)
            del files["manifest.json"]  # it holds the output directory
            return files

        run(2, "shared", "out-2")
        assert run(1, "shared", "out-1") == run(1, "cold", "out-cold")
        assert len(list((tmp_path / "shared" / "ioimpact").glob("*.npz"))) == 2


class TestScenariosReadFirst:
    """A scenario that fails to parse, or a bad or repeated scenario name,
    exits 2 naming its file before the table is read; so does every other
    argument the table does not decide."""

    @pytest.fixture(autouse=True)
    def no_table_read(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the table was read")

        monkeypatch.setattr(cli, "load_table_entry", fail)
        monkeypatch.setattr(cli, "load_io_table", fail)

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", ')
        code = main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                     str(bad), "--out", str(tmp_path / "reports")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid JSON at line 1, column 15: "
            "Expecting property name enclosed in double quotes\n"
        )

    def test_repeated_name(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for path in (first, second):
            path.write_text('{"name": "same", "target_sector": "S1", "sub_service_drop": 0.5}')
        code = main(["run", *table_flags(e2_args()), "--scenario", str(first), str(second),
                     "--out", str(tmp_path / "reports")])
        assert code == 2
        assert f"{second}: scenario name 'same' is also the name of {first}" in (
            capsys.readouterr().err
        )

    @staticmethod
    def run(tmp_path, *flags):
        out = tmp_path / "reports"
        code = main(["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json"),
                     "--out", str(out), *flags])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_blowup(self, tmp_path, capsys, value):
        assert self.run(tmp_path, "--blowup", value) == 2
        assert capsys.readouterr().err == (
            f"error: blowup factor must be finite and positive, got {float(value)}\n"
        )

    @pytest.mark.parametrize(
        "fd_rows, message",
        [
            ("2015\n", "row has 1 cells, expected 2 (row 2)"),
            ("2015,1000.0\n2016,1048.0\n",
             "need at least two historical final-demand/GDP ratio observations, got 1"),
        ],
        ids=["malformed", "too-short"],
    )
    def test_bad_blowup_history(self, tmp_path, capsys, fd_rows, message):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n" + fd_rows)
        gdp.write_text("year,gdp_growth\n2016,0.04\n2017,0.04\n")
        assert self.run(tmp_path, "--blowup-history", str(fd), str(gdp)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "multipliers"])
    def test_negative_top_k(self, tmp_path, capsys, command):
        out = tmp_path / "reports"
        view = ["--scenario", str(E2 / "shock_s1.json")] if command == "run" else ["--sector", "S1"]
        code = main([command, *table_flags(e2_args()), *view, "--top-k", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: top_k must be non-negative\n"

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    @pytest.mark.parametrize("command", ["validate", "multipliers", "run"])
    def test_bad_rel_tol(self, tmp_path, capsys, command, value):
        view = ["--scenario", str(E2 / "shock_s1.json")] if command == "run" else []
        code = main([command, *table_flags(e2_args()), *view, "--rel-tol", value,
                     "--out", str(tmp_path / "reports")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: rel_tol must be positive and finite, got {float(value)}\n"
        )


class TestUnknownScenarioSectors:
    """A sector code the table lacks exits 2 naming the scenario file, for
    every method, before the model is built."""

    @pytest.mark.parametrize("method", ["inoperability", "both"])
    @pytest.mark.parametrize(
        "fields,code",
        [
            ('"target_sector": "S9"', "S9"),
            ('"target_sector": "S1", "reallocation": {"savings_fraction": 0.5,'
             ' "shares": {"S7": 1.0}}', "S7"),
            ('"target_sector": "S1", "intermediate": {"use_ratios": {"S8": 0.5}}', "S8"),
        ],
        ids=["target_sector", "reallocation", "use_ratios"],
    )
    def test_exits_two_naming_the_file(self, tmp_path, capsys, monkeypatch, method, fields,
                                       code):
        def fail(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "load_model", fail)
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"name": "x", "sub_service_drop": 0.5, {fields}}}')
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(bad),
                     "--method", method, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: unknown sector code '{code}'\n"
        assert not out.exists()


class TestScenarioOverflow:
    """A scenario whose numbers overflow float64 exits 2 naming it, without
    a RuntimeWarning (pytest makes one an error) and without writing."""

    @pytest.mark.parametrize(
        "changes,blowup,message",
        [({"HH": -1e308, "GOV": -1e308}, 1.0,
          "{path}: scenario 'huge': the demand change is -inf at sector S1; it must be finite"),
         ({"HH": -1e308}, 1.0, "scenario 'huge': the output change L df overflows float64"),
         ({"HH": -1e300}, 1e10,
          "scenario 'huge': the impact times the blowup factor 1e+10 overflows float64")],
        ids=["demand-change", "solve", "blowup"],
    )
    @pytest.mark.parametrize("method", ["both", "inoperability", "extraction"])
    def test_exits_two_naming_the_scenario(self, tmp_path, capsys, changes, blowup, message,
                                           method):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "target_sector": "S1", "sub_service_drop": 0.5,
                                    "absolute_changes": changes, "blowup_factor": blowup}))
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(path),
                     "--method", method, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_a_shock_far_beyond_output_runs(self, tmp_path):
        # The fixed-point residual grows with the shock; it is checked
        # relative to the shock's size, so a finite shock is no defect.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "target_sector": "S1", "sub_service_drop": 0.5,
                                    "absolute_changes": {"HH": -1e306}}))
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(path),
                     "--out", str(out)]) == 0
        result = json.loads((out / "result_inoperability.json").read_text())
        assert result["totals"]["output"] < -1e306

    def test_a_failing_scenario_writes_nothing_for_the_others(self, tmp_path, capsys):
        ok, blow = tmp_path / "ok.json", tmp_path / "blow.json"
        ok.write_text(json.dumps({"name": "ok", "target_sector": "S1", "sub_service_drop": 0.5}))
        blow.write_text(json.dumps({"name": "blow", "target_sector": "S1", "sub_service_drop": 0.5,
                                    "absolute_changes": {"HH": -1e300}, "blowup_factor": 1e10}))
        out = tmp_path / "reports"
        assert main(["run", *table_flags(e2_args()), "--scenario", str(ok), str(blow),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: scenario 'blow': the impact times the blowup factor "
                                "1e+10 overflows float64\n")
        assert captured.out == ""
        assert not out.exists()


def test_entry_point_runs_without_warnings(tmp_path):
    # The module entry point in a child process, with every warning an error
    # and no pytest filters, writes what an in-process run writes.
    argv = ["run", *table_flags(e2_args()), "--scenario", str(E2 / "shock_s1.json")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "XDG_CACHE_HOME": str(tmp_path / "child"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-W", "error", "-m", "ioimpact.cli", *argv,
                            "--out", str(tmp_path / "child-out")],
                           env=env, capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert main([*argv, "--out", str(tmp_path / "main-out")]) == 0

    def files(out):
        return json.loads((tmp_path / out / "manifest.json").read_text())["files"]

    assert files("child-out") == files("main-out")


@pytest.mark.parametrize("sector", ["S9", ""])
def test_key_error_is_printed_without_quotes(tmp_path, capsys, monkeypatch, sector):
    def fail(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "load_model", fail)
    code = main(["multipliers", *table_flags(e2_args()), "--sector", sector,
                 "--out", str(tmp_path / "reports")])
    assert code == 2
    assert capsys.readouterr().err == f"error: unknown sector code {sector!r}\n"


def test_bad_scenario_wins_over_a_bad_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text((E2 / "table.csv").read_text().replace("S1,50.0,20.0", "S1,50.0,-5.0"))
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code = main(["run", *table_flags(e2_args(table=str(table))), "--scenario", str(bad),
                 "--out", str(tmp_path / "reports")])
    assert code == 2
    assert f"{bad}: top level must be an object" in capsys.readouterr().err


# A scenario value of the wrong type, one fault per case: the fields of a
# document, and the message that names the fault.
WRONG_VALUES = [
    ('"sub_service_drop": null', "sub_service_drop must be a number, got None"),
    ('"sub_service_drop": [0.5]', "sub_service_drop must be a number, got [0.5]"),
    ('"sub_service_drop": 0.5, "reallocation": {"savings_fraction": 0.5, "shares": null}',
     "reallocation shares must be an object, got None"),
    ('"sub_service_drop": 0.5, "reallocation": {"savings_fraction": null}',
     "savings_fraction must be a number"),
    ('"sub_service_drop": 0.5, "component_ratios": [["HH", 1.0]]',
     "component_ratios must be an object"),
    ('"sub_service_drop": 0.5, "absolute_changes": [1.0]',
     "absolute_changes must be an object"),
    ('"sub_service_drop": 0.5, "intermediate": {"use_ratios": [0.5]}',
     "intermediate use_ratios must be an object"),
    ('"sub_service_drop": 0.5, "intermediate": {"use_ratios": {"S2": {}}}',
     "use ratio for 'S2' must be a number"),
    ('"sub_service_drop": 0.5, "intermediate": {"default_ratio": null}',
     "default use ratio must be a number"),
    ('"sub_service_drop": 0.5, "blowup_factor": null', "blowup_factor must be a number"),
    ('"sub_service_drop": 0.5, "absolute_changes": {"HH": "x"}',
     "absolute change for 'HH' must be a number"),
    # Rejected when parsed, not later as a fixed-point violation by nan.
    ('"sub_service_drop": 0.5, "absolute_changes": {"EXP": NaN}',
     "absolute change for 'EXP' must be finite, got nan"),
    ('"sub_service_drop": 0.5, "absolute_changes": {"EXP": -Infinity}',
     "absolute change for 'EXP' must be finite, got -inf"),
    # float() would take a numeric string or a boolean; a spec must not.
    ('"sub_service_drop": true', "sub_service_drop must be a number, got True"),
    ('"sub_service_drop": "0.4"', "sub_service_drop must be a number, got '0.4'"),
    ('"sub_service_drop": 0.5, "blowup_factor": "1.5"',
     "blowup_factor must be a number, got '1.5'"),
    ('"sub_service_drop": 0.5, "component_ratios": {"HH": "1"}',
     "component ratio for 'HH' must be a number, got '1'"),
    ('"sub_service_drop": 0.5, "absolute_changes": {"HH": false}',
     "absolute change for 'HH' must be a number, got False"),
    ('"sub_service_drop": 0.5, "reallocation": {"savings_fraction": "0.5"}',
     "savings_fraction must be a number, got '0.5'"),
    ('"sub_service_drop": 0.5, "reallocation": {"savings_fraction": 0.5, '
     '"shares": {"S2": true}}',
     "reallocation share for 'S2' must be a number, got True"),
    ('"sub_service_drop": 0.5, "intermediate": {"use_ratios": {"S2": "0"}}',
     "use ratio for 'S2' must be a number, got '0'"),
    ('"sub_service_drop": 0.5, "intermediate": {"default_ratio": true}',
     "default use ratio must be a number, got True"),
    ('"sub_service_drop": 0.5, "intermediate": {"apply": "false"}',
     "intermediate apply must be a boolean, got 'false'"),
    ('"sub_service_drop": 0.5, "intermediate": {"apply": 0}',
     "intermediate apply must be a boolean, got 0"),
    ('"sub_service_drop": 0.5, "name": 5', "name must be a string, got 5"),
    ('"sub_service_drop": 0.5, "target_sector": ["S1"]',
     "target_sector must be a string, got ['S1']"),
    # An integer literal beyond the float range, which float() refuses.
    pytest.param('"sub_service_drop": 0.5, "blowup_factor": 1' + "0" * 400,
                 "blowup_factor must be a number, got 1000", id="integer-overflow"),
]

# A block that is not a JSON object: a fault of the file's layout. A Python
# caller passes a Reallocation or None, and None is the savings-only spec.
WRONG_BLOCKS = [
    ('"sub_service_drop": 0.5, "reallocation": [["savings_fraction", 1.0]]',
     "reallocation must be an object"),
    ('"sub_service_drop": 0.5, "reallocation": null',
     "reallocation must be an object, got None"),
]


def scenario_document(fields: str) -> str:
    """A scenario document of the given fields, with name "x" and target
    sector "S1" unless the fields give their own: each key appears once."""
    defaults = [f'"{key}": "{value}"' for key, value in (("name", "x"), ("target_sector", "S1"))
                if f'"{key}":' not in fields]
    return "{" + ", ".join([*defaults, fields]) + "}"


def build_from_python(fields: str):
    """Build the spec class that holds the one faulty field straight from
    Python, with the values of the document."""
    doc = json.loads(scenario_document(fields))
    realloc, inter = doc.pop("reallocation", None), doc.pop("intermediate", None)
    if realloc is not None:
        return Reallocation(**realloc)
    if inter is not None:
        ratios = UseRatio(inter.get("use_ratios", {}), inter.get("default_ratio", 1.0))
        return IntermediateSpec(inter.get("apply", True), ratios)
    return ScenarioSpec(**doc)


class TestScenarioValueTypes:
    """A scenario value of the wrong type is a configuration error naming it."""

    @pytest.mark.parametrize("fields,message", WRONG_VALUES + WRONG_BLOCKS)
    def test_wrong_type_exits_two(self, tmp_path, capsys, fields, message):
        scenario = tmp_path / "s.json"
        scenario.write_text(scenario_document(fields))
        out = tmp_path / "reports"
        code = main(["run", *table_flags(e2_args()), "--scenario", str(scenario),
                     "--out", str(out)])
        assert code == 2
        assert f"error: {scenario}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields,message", WRONG_VALUES)
    def test_python_route_gives_the_file_message(self, tmp_path, fields, message):
        # The class that holds the value checks it, for a file and for a
        # Python caller alike; the file route only adds the file's name.
        scenario = tmp_path / "s.json"
        scenario.write_text(scenario_document(fields))
        with pytest.raises(ScenarioConfigError) as from_file:
            parse_scenario(scenario)
        with pytest.raises(ScenarioConfigError) as from_python:
            build_from_python(fields)
        assert str(from_python.value).startswith(message)
        assert str(from_file.value) == f"{scenario}: {from_python.value}"

    @pytest.mark.parametrize(
        "fields,message",
        [('"sub_service_drop": 0.4, "sub_service_drop": 0.9',
          "repeated key 'sub_service_drop' in the object at line 1, column 1"),
         ('"sub_service_drop": 0.4, "component_ratios": {"HH": 1.0, "HH": 0.5}',
          "repeated key 'HH' in the object at line 1, column 83"),
         ('"sub_service_drop": 0.4, "absolute_changes": {"EXP": -5.0, "exports": 7.0}',
          "absolute_changes names exports twice, as 'EXP' and 'exports'")],
    )
    def test_a_value_given_twice_exits_two(self, tmp_path, capsys, fields, message):
        # Neither spelling may silently override the other.
        scenario = tmp_path / "s.json"
        scenario.write_text(scenario_document(fields))
        out = tmp_path / "reports"
        code = main(["run", *table_flags(e2_args()), "--scenario", str(scenario),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {scenario}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "block,fields,unknown",
        [("reallocation", '"savings_fraction": 0.5, "share": {"S2": 1.0}', "share"),
         ("intermediate", '"apply": true, "use_ratio": {"S2": 0.0}, "default_ratio": 0.5',
          "use_ratio")],
    )
    def test_unknown_key_in_a_block_exits_two(self, tmp_path, capsys, block, fields, unknown):
        # A misspelt key would otherwise drop its block's data without a word.
        scenario = tmp_path / "s.json"
        scenario.write_text('{"name": "x", "target_sector": "S1", "sub_service_drop": 0.5, '
                            f'"{block}": {{{fields}}}}}')
        out = tmp_path / "reports"
        code = main(["run", *table_flags(e2_args()), "--scenario", str(scenario),
                     "--out", str(out)])
        assert code == 2
        assert f"error: {scenario}: {block} has unknown fields ['{unknown}']" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            '"sub_service_drop": null',
            '"sub_service_drop": 0.5, "reallocation": {"savings_fraction": 2.0}',
            '"sub_service_drop": 0.5, "intermediate": {"use_ratios": {"S2": -1}}',
            '"sub_service_drop": 0.5, "blowup_factor": 1' + "0" * 5000,
        ],
    )
    def test_value_error_names_the_scenario_file(self, tmp_path, capsys, fields):
        good = tmp_path / "a.json"
        good.write_text('{"name": "a", "target_sector": "S1", "sub_service_drop": 0.5}')
        bad = tmp_path / "b.json"
        bad.write_text('{"name": "b", "target_sector": "S1", ' + fields + "}")
        out = tmp_path / "reports"
        code = main(["run", *table_flags(e2_args()), "--scenario", str(good), str(bad),
                     "--out", str(out)])
        assert code == 2
        assert f"error: {bad}: " in capsys.readouterr().err
        assert not out.exists()
