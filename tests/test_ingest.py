import contextlib
import csv
import os
import re
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ioimpact import (
    IOModelError,
    StructuralError,
    TableParseError,
    disaggregate_aggregate,
    load_io_table,
    make_extraction_spec,
    parse_io_table,
    partial_extraction,
    write_table_files,
)
from ioimpact import NonProductiveEconomyError, ingest, leontief
from ioimpact.ingest import CACHE_ENTRIES, load_model, parse_blowup_history
from ioimpact.table import FinalDemandBlock, IOTable, Sector, drop_zero_sectors
from ioimpact.testkit import EconomyGenSpec, canonical_e2, random_economy

from test_leontief import column_stochastic, table_with_A
from test_table import make_table

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

    @pytest.mark.parametrize("code", ["", "  ", '"\t"'])
    def test_blank_sector_code_in_metadata(self, tmp_path, code):
        (tmp_path / "sectors.csv").write_text(f"code,name\nS1,One\n{code},Empty code\n")
        with pytest.raises(TableParseError, match="blank sector code") as exc:
            parse_io_table(tmp_path / "missing.csv", tmp_path / "sectors.csv")
        assert (exc.value.row, exc.value.column) == (3, 1)


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

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"])
    def test_line_ends(self, tmp_path, eol):
        table = tmp_path / "table.csv"
        table.write_bytes((FIXTURES / "e2" / "table.csv").read_bytes().replace(b"\n", eol))
        parsed = parse_io_table(table, FIXTURES / "e2" / "sectors.csv")
        _assert_bit_identical(parsed, parse_io_table(FIXTURES / "e2" / "table.csv",
                                                     FIXTURES / "e2" / "sectors.csv"))

    def test_first_bad_line_is_named(self, tmp_path):
        # The decoder used to work on 8 KB blocks and name a later bad byte.
        lines = (FIXTURES / "e2" / "table.csv").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"40.0", b"4O.0")
        lines[4] = lines[4] + b"\xff"
        table = tmp_path / "table.csv"
        table.write_bytes(b"\n".join(lines))
        with pytest.raises(TableParseError, match="malformed numeric cell '4O.0'") as err:
            parse_io_table(table, FIXTURES / "e2" / "sectors.csv")
        assert (err.value.row, err.value.column) == (3, 3)

    @pytest.mark.parametrize("name,row", [("table.csv", 3), ("sectors.csv", 2)])
    def test_invalid_utf8_names_the_row(self, tmp_path, name, row):
        d = FIXTURES / "e2"
        paths = {"table.csv": d / "table.csv", "sectors.csv": d / "sectors.csv"}
        lines = paths[name].read_bytes().split(b"\n")
        lines[row - 1] = lines[row - 1].replace(b",", b",\xff", 1)
        paths[name] = tmp_path / name
        paths[name].write_bytes(b"\n".join(lines))
        with pytest.raises(TableParseError, match="not valid UTF-8") as err:
            parse_io_table(paths["table.csv"], paths["sectors.csv"])
        assert err.value.row == row


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
            "total_uses": np.array([float(raw) for raw in tail[2]]),
        }
        got = {
            "Z": parsed.Z,
            "final_demand": parsed.final_demand.values,
            "x": parsed.x,
            "imports": parsed.imports,
            "value_added": parsed.value_added,
            "total_uses": parsed.total_uses,
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


E2_FILES = ("table.csv", "sectors.csv", "satellite_employment.csv", "satellite_income.csv")


def _copy_e2(d):
    d.mkdir()
    for name in E2_FILES:
        shutil.copy(FIXTURES / "e2" / name, d / name)
    return d


def _load(d):
    sats = [d / "satellite_employment.csv", d / "satellite_income.csv"]
    return load_io_table(d / "table.csv", d / "sectors.csv", sats)


def _cache_files():
    """Every file in the cache directory, entries and temporaries alike."""
    return set((Path(os.environ["XDG_CACHE_HOME"]) / "ioimpact").glob("*"))


def _assert_bit_identical(got, want):
    assert got.sectors == want.sectors
    assert got.satellites.keys() == want.satellites.keys()
    pairs = [
        (got.Z, want.Z),
        (got.final_demand.values, want.final_demand.values),
        (got.x, want.x),
        (got.imports, want.imports),
        (got.value_added, want.value_added),
    ]
    if want.total_uses is not None:  # a table built in Python may have no total-uses row
        pairs.append((got.total_uses, want.total_uses))
    pairs += [(got.satellites[k].values, want.satellites[k].values) for k in want.satellites]
    for a, b in pairs:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.fixture
def parse_calls(monkeypatch):
    """The argument tuples of every parse_io_table call load_io_table makes."""
    calls = []
    real = ingest.parse_io_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ingest, "parse_io_table", counting)
    return calls


def _damage_truncate(path, arrays):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _damage_flip(path, arrays):
    data = bytearray(path.read_bytes())
    at = data.find(arrays["Z"].tobytes())
    data[at : at + 8] = bytes(b ^ 0xFF for b in data[at : at + 8])
    path.write_bytes(bytes(data))


def _damage_nan(path, arrays):
    arrays["Z"][0, 1] = np.nan
    np.savez(path, **arrays)


def _damage_shape(path, arrays):
    arrays["x"] = np.ones(3)
    np.savez(path, **arrays)


def _damage_dtype(path, arrays):
    arrays["Z"] = arrays["Z"].astype(np.float32)
    np.savez(path, **arrays)


def _damage_pickle(path, arrays):
    arrays["Z"] = np.array([[None, None], [None, None]], dtype=object)
    np.savez(path, **arrays)


def _damage_npy(path, arrays):
    with open(path, "wb") as fh:
        np.save(fh, arrays["Z"])


class TestParseCache:
    def test_hit_is_bit_identical_to_parse(self, tmp_path, monkeypatch):
        d = _copy_e2(tmp_path / "in")
        _set_cell(d / "table.csv", 2, 5, "-0.0")
        _set_cell(d / "table.csv", 2, 6, "5e-324")
        parsed = parse_io_table(
            d / "table.csv", d / "sectors.csv",
            [d / "satellite_employment.csv", d / "satellite_income.csv"],
        )
        _assert_bit_identical(_load(d), parsed)
        assert len(_cache_files()) == 1

        def no_parse(*args):
            raise AssertionError("parse_io_table called on a cache hit")

        monkeypatch.setattr(ingest, "parse_io_table", no_parse)
        hit = _load(d)
        _assert_bit_identical(hit, parsed)
        assert np.signbit(hit.final_demand.values[0, 1])

    def test_only_load_io_table_stores_the_parsed_table(self, tmp_path):
        d = _copy_e2(tmp_path / "in")
        _, entry = _load_entry(d)
        assert (entry.hit, _cache_files()) == (False, set())
        _load(d)
        (stored,) = _cache_files()
        _, entry = _load_entry(d)
        assert (entry.hit, entry.path) == (True, stored)

    def test_renamed_sector_is_a_miss(self, tmp_path, parse_calls):
        d = _copy_e2(tmp_path / "in")
        _load(d)
        (d / "sectors.csv").write_text("code,name\nS1,Air transport\nS2,Sector 2\n")
        assert _load(d).sectors[0].name == "Air transport"
        assert len(parse_calls) == 2
        assert len(_cache_files()) == 2

    def test_metadata_edited_after_hashing_is_not_a_hit(self, tmp_path, monkeypatch,
                                                        parse_calls):
        d = _copy_e2(tmp_path / "in")
        _load(d)
        (entry,) = _cache_files()
        stored = entry.read_bytes()
        meta = d / "sectors.csv"
        past = time.time() - 100
        os.utime(meta, (past, past))  # the edit below then moves the mtime
        real = ingest.parse_sector_metadata

        def edit_then_parse(path):
            meta.write_text(meta.read_text().replace("S1,", "X1,"))
            return real(path)

        # The hit's metadata parse reads X1, though the key hashed S1; a parse
        # of the same files fails.
        monkeypatch.setattr(ingest, "parse_sector_metadata", edit_then_parse)
        with pytest.raises(TableParseError, match="header mismatch"):
            ingest.load_table_entry(d / "table.csv", meta)
        assert len(parse_calls) == 2
        assert entry.read_bytes() == stored

    def test_satellites_are_read_on_a_hit(self, tmp_path):
        d = _copy_e2(tmp_path / "in")
        _load(d)
        (d / "satellite_income.csv").write_text("sector,income\nS1,1.5\nS2,2.5\n")
        assert list(_load(d).satellites["income"].values) == [1.5, 2.5]
        (d / "satellite_income.csv").write_text("sector,income\nS1,1.5\nS2,nan\n")
        with pytest.raises(TableParseError, match="non-finite"):
            _load(d)

    @pytest.mark.parametrize(
        "damage",
        [_damage_truncate, _damage_flip, _damage_nan, _damage_shape, _damage_dtype,
         _damage_pickle, _damage_npy],
        ids=lambda f: f.__name__.removeprefix("_damage_"),
    )
    def test_damaged_entry_is_not_served(self, tmp_path, parse_calls, damage):
        d = _copy_e2(tmp_path / "in")
        parsed = _load(d)
        (entry,) = _cache_files()
        with np.load(entry) as npz:
            arrays = {name: npz[name] for name in npz.files}
        damage(entry, arrays)
        _assert_bit_identical(_load(d), parsed)
        assert len(parse_calls) == 2
        _assert_bit_identical(_load(d), parsed)  # the rewritten entry is served
        assert len(parse_calls) == 2
        assert _cache_files() == {entry}

    @settings(max_examples=80, deadline=None)
    @given(
        damage=st.lists(
            st.tuples(st.integers(0, 10**6), st.binary(min_size=0, max_size=6)),
            min_size=1, max_size=3,
        ),
        truncate=st.integers(0, 10**6) | st.none(),
    )
    def test_any_damage_is_a_miss_or_the_same_table(self, damage, truncate):
        with tempfile.TemporaryDirectory() as d, mock.patch.dict(
            os.environ, {"XDG_CACHE_HOME": os.path.join(d, "cache")}
        ):
            inputs = _copy_e2(Path(d) / "in")
            parsed = _load(inputs)
            (entry,) = _cache_files()
            data = bytearray(entry.read_bytes())
            for pos, chunk in damage:
                i = pos % len(data)
                data[i : i + len(chunk)] = chunk
            if truncate is not None:
                data = data[: truncate % len(data)]
            entry.write_bytes(bytes(data))
            _assert_bit_identical(_load(inputs), parsed)

    @pytest.mark.parametrize(
        "name,row,column",
        [("table.csv", 3, 3), ("table.csv", 6, 2), ("satellite_income.csv", 2, 2)],
    )
    def test_failed_parse_leaves_no_entry(self, tmp_path, name, row, column):
        d = _copy_e2(tmp_path / "in")
        _set_cell(d / name, row, column, "abc")
        with pytest.raises(TableParseError, match="malformed") as err:
            _load(d)
        assert (err.value.row, err.value.column) == (row, column)
        assert _cache_files() == set()

    def test_table_edited_during_parse_is_not_cached(self, tmp_path, monkeypatch):
        d = _copy_e2(tmp_path / "in")
        real = ingest.parse_io_table

        def parse_then_edit(*args):
            table = real(*args)
            _set_cell(d / "table.csv", 2, 2, "50.25")
            return table

        monkeypatch.setattr(ingest, "parse_io_table", parse_then_edit)
        assert _load(d).Z[0, 0] == 50.0
        assert _cache_files() == set()

    @pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
    def test_default_location(self, tmp_path, monkeypatch, xdg):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        monkeypatch.chdir(tmp_path)
        _load(_copy_e2(tmp_path / "in"))
        cache = tmp_path / "home" / ".cache" / "ioimpact"
        assert len(list(cache.glob("*.npz"))) == 1
        assert cache.stat().st_mode & 0o777 == 0o700
        assert not (tmp_path / "relative").exists()

    @staticmethod
    def _write_distinct(tmp_path, k, mtime):
        """Load a table no other k gives, then date its new entry ``mtime``."""
        d = _copy_e2(tmp_path / f"in{k}")
        (d / "sectors.csv").write_text(f"code,name\nS1,Sector {k}\nS2,Sector 2\n")
        before = _cache_files()
        _load(d)
        (entry,) = _cache_files() - before
        os.utime(entry, (mtime, mtime))
        return d, entry

    def test_keeps_the_most_recent_entries(self, tmp_path):
        base = time.time() - 1000
        entries = [self._write_distinct(tmp_path, k, base + k)[1] for k in range(10)]
        assert CACHE_ENTRIES == 8
        assert _cache_files() == set(entries[2:])

    def test_hit_refreshes_its_entry(self, tmp_path, parse_calls):
        base = time.time() - 1000
        written = [self._write_distinct(tmp_path, k, base + k) for k in range(CACHE_ENTRIES)]
        oldest_dir, oldest_entry = written[0]
        _load(oldest_dir)
        assert len(parse_calls) == CACHE_ENTRIES  # a hit
        newer = [self._write_distinct(tmp_path, k, base + k)[1] for k in (8, 9)]
        kept = {oldest_entry, *(entry for _, entry in written[3:]), *newer}
        assert _cache_files() == kept


def _fresh_inverse(table):
    return leontief.build_model(table).L


def _table_files(table, d):
    """Write ``table`` to d in the file layout; returns d."""
    write_table_files(table, d)
    return d


def _load_entry(d):
    sats = sorted(d.glob("satellite_*.csv"))
    return ingest.load_table_entry(d / "table.csv", d / "sectors.csv", sats)


def _load_model(d):
    """The model of the table files in d, loaded through the cache as the
    CLI loads it: the table and its entry, then drop_zero_sectors."""
    table, entry = _load_entry(d)
    return load_model(drop_zero_sectors(table)[0], entry)


def _entry_arrays(path):
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


@pytest.fixture
def factorize_calls(monkeypatch):
    """The size of every I - A inverted so far."""
    calls = []
    real = leontief.leontief_inverse

    def counting(A):
        calls.append(len(A))
        return real(A)

    monkeypatch.setattr(leontief, "leontief_inverse", counting)
    return calls


def _no_factorization(monkeypatch):
    def fail(*args):
        raise AssertionError("inverted on a cache hit")

    monkeypatch.setattr(leontief, "leontief_inverse", fail)


def _damage_model_missing(path, table):
    arrays = _entry_arrays(path)
    del arrays["L"]
    np.savez(path, **arrays)


def _damage_model_shape(path, table):
    np.savez(path, **{**_entry_arrays(path), "L": np.eye(table.n + 1)})


def _damage_model_nan(path, table):
    arrays = _entry_arrays(path)
    arrays["L"][0, -1] = np.nan
    np.savez(path, **arrays)


def _damage_model_other_table(path, table):
    other = random_economy(EconomyGenSpec(n=table.n, seed=99))
    other_L = _fresh_inverse(other)
    assert np.isfinite(other_L).all()
    np.savez(path, **{**_entry_arrays(path), "L": other_L})


def _damage_model_flip(path, table):
    """Flip bytes inside the stored L, so that its CRC fails."""
    data = bytearray(path.read_bytes())
    at = data.find(_entry_arrays(path)["L"].tobytes()) + 8 * table.n
    data[at : at + 8] = bytes(b ^ 0xFF for b in data[at : at + 8])
    path.write_bytes(bytes(data))


def _damage_model_truncate(path, table):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


_FACTOR_DAMAGE = [_damage_model_missing, _damage_model_shape, _damage_model_nan,
                  _damage_model_other_table, _damage_model_flip]


def _older_layout_factors(A):
    """Read-only block LDU factors of I - A in a layout that earlier versions
    stored in place of L: the unit lower factor below the diagonal, each
    D_j^-1 on it, D U above it."""
    m = np.eye(len(A)) - A
    n = len(m)
    for s in range(0, n, leontief._BLOCK):
        e = min(s + leontief._BLOCK, n)
        d_inv = np.linalg.inv(m[s:e, s:e])
        m[s:e, s:e] = d_inv
        if e < n:
            m[e:, s:e] = m[e:, s:e] @ d_inv
            m[e:, e:] -= m[e:, s:e] @ m[s:e, e:]
    m.setflags(write=False)
    return m


def _e2_with_flow(z12):
    Z = canonical_e2().Z.copy()
    Z[0, 1] = z12
    return make_table(Z, [30.0, 30.0], [100.0, 100.0])


def _with_dead_sector(table):
    """``table`` with a zero-output sector inserted after its first."""
    n = table.n
    keep = [0, *range(2, n + 1)]
    Z = np.zeros((n + 1, n + 1))
    Z[np.ix_(keep, keep)] = table.Z
    fd = np.zeros((n + 1, 6))
    fd[keep] = table.final_demand.values

    def padded(v):
        out = np.zeros(n + 1)
        out[keep] = v
        return out

    return IOTable(
        sectors=tuple(Sector(c, c) for c in ["S1", "DEAD", *table.codes[1:]]),
        Z=Z,
        final_demand=FinalDemandBlock(fd),
        imports=padded(table.imports),
        value_added=padded(table.value_added),
        x=padded(table.x),
    )


class TestModelCache:
    """load_model keeps L = (I - A)^-1 in the table's cache entry."""

    @pytest.mark.parametrize("table", [canonical_e2(), random_economy(EconomyGenSpec(300, 4))],
                             ids=["e2", "n300"])
    def test_hit_does_not_factorize_and_is_bit_identical(self, tmp_path, monkeypatch,
                                                         factorize_calls, table):
        d = _table_files(table, tmp_path / "in")
        fresh = _fresh_inverse(table)
        miss = _load_model(d)
        assert len(factorize_calls) == 2  # the fresh model's and the miss's
        (entry,) = _cache_files()
        assert set(_entry_arrays(entry)) == {"Z", "final_demand", "x", "imports", "value_added",
                                             "total_uses", "L"}
        _no_factorization(monkeypatch)
        loaded, table_entry = _load_entry(d)
        hit = load_model(loaded, table_entry)
        for model in (miss, hit):
            assert model.L.dtype == np.float64 and model.L.shape == fresh.shape
            assert model.L.tobytes() == fresh.tobytes()
            assert not model.L.flags.writeable
        assert hit.table is loaded
        assert np.array_equal(hit.solve(table.f), miss.solve(table.f))
        assert _cache_files() == {entry}

    @pytest.mark.parametrize("damage", [*_FACTOR_DAMAGE, _damage_model_truncate],
                             ids=lambda f: f.__name__.removeprefix("_damage_model_"))
    def test_damaged_entry_is_a_miss_and_rewritten(self, tmp_path, factorize_calls, damage):
        table = random_economy(EconomyGenSpec(n=300, seed=4))
        d = _table_files(table, tmp_path / "in")
        fresh = _fresh_inverse(table)
        _load_model(d)
        (entry,) = _cache_files()
        damage(entry, table)
        before = len(factorize_calls)
        assert _load_model(d).L.tobytes() == fresh.tobytes()
        assert len(factorize_calls) == before + 1
        assert _load_model(d).L.tobytes() == fresh.tobytes()  # the rewritten entry
        assert len(factorize_calls) == before + 1
        assert _cache_files() == {entry}

    @pytest.mark.parametrize("damage", _FACTOR_DAMAGE,
                             ids=lambda f: f.__name__.removeprefix("_damage_model_"))
    def test_damaged_factors_refactorize_without_a_parse(self, tmp_path, parse_calls,
                                                         factorize_calls, damage):
        table = random_economy(EconomyGenSpec(n=300, seed=4))
        d = _table_files(table, tmp_path / "in")
        _load_model(d)
        (entry,) = _cache_files()
        parsed = {k: v for k, v in _entry_arrays(entry).items() if k != "L"}
        damage(entry, table)
        before = len(factorize_calls)
        _load_model(d)
        assert (len(parse_calls), len(factorize_calls)) == (1, before + 1)
        rewritten = _entry_arrays(entry)
        assert rewritten["L"].tobytes() == _fresh_inverse(table).tobytes()
        for name, array in parsed.items():
            assert rewritten[name].tobytes() == array.tobytes()

    @pytest.mark.parametrize(
        "table,error",
        [(_e2_with_flow(-5.0), ValueError),
         (make_table([[70, 50], [50, 70]], [-20, -20], [100, 100]), NonProductiveEconomyError),
         # rho(A) = 1 over three 128-wide blocks.
         (table_with_A(column_stochastic(300, seed=3)), NonProductiveEconomyError)],
        ids=["negative", "non-productive", "column-stochastic"],
    )
    def test_bad_table_fails_alike_with_planted_factors(self, tmp_path, table, error):
        d = _table_files(table, tmp_path / "in")
        with pytest.raises(error) as cold:
            _load_model(d)
        assert _cache_files() == set()  # a table that fails build_model is never cached
        # Plant the L a hit would serve: the table's own leontief_inverse,
        # which no check has passed.
        loaded, table_entry = _load_entry(d)
        ingest._write_entry(table_entry, L=leontief.leontief_inverse(loaded.Z / loaded.x))
        (entry,) = _cache_files()
        planted = entry.read_bytes()
        with pytest.raises(error) as warm:
            _load_model(d)
        assert str(warm.value) == str(cold.value)
        assert entry.read_bytes() == planted

    def test_factors_of_an_older_layout_are_refused_and_rewritten(self, tmp_path,
                                                                   factorize_calls):
        # Block LDU factors stored in place of L fail the x = L f check, and
        # I - A is inverted again. On a single block the factors are L
        # itself, so the table has three.
        table = random_economy(EconomyGenSpec(n=300, seed=4))
        d = _table_files(table, tmp_path / "in")
        cold = _load_model(d)
        (entry,) = _cache_files()
        loaded, table_entry = _load_entry(d)
        stale = _older_layout_factors(loaded.Z / loaded.x)
        ingest._write_entry(table_entry, L=stale)
        assert _entry_arrays(entry)["L"].tobytes() == stale.tobytes()
        before = len(factorize_calls)
        warm = _load_model(d)
        assert len(factorize_calls) == before + 1
        assert warm.L.tobytes() == cold.L.tobytes()
        assert _entry_arrays(entry)["L"].tobytes() == cold.L.tobytes()
        assert warm.x0.tobytes() == cold.x0.tobytes()
        for k in (0, 150, 299):
            spec = make_extraction_spec(warm, k, np.full(300, 0.5), f_bar=table.f * 0.9)
            assert partial_extraction(warm, spec).dx.tobytes() == \
                partial_extraction(cold, spec).dx.tobytes()

    def test_nan_flow_is_rejected_with_stored_factors(self, tmp_path):
        # A table file cannot hold a NaN, so a library table brings it along
        # with the entry of the finite table it was edited from.
        d = _table_files(_e2_with_flow(20.0), tmp_path / "in")
        _load_model(d)
        (entry,) = _cache_files()
        stored = entry.read_bytes()
        _, table_entry = _load_entry(d)
        with pytest.raises(ValueError, match=r"Z\[S1, S2\] is nan"):
            load_model(_e2_with_flow(float("nan")), table_entry)
        assert entry.read_bytes() == stored

    def test_edited_flow_is_a_miss(self, tmp_path, factorize_calls):
        d = tmp_path / "in"
        _table_files(_e2_with_flow(20.0), d)
        _load_model(d)
        _table_files(_e2_with_flow(20.5), d)
        _load_model(d)
        assert len(factorize_calls) == 2
        assert len(_cache_files()) == 2
        _table_files(_e2_with_flow(20.0), d)
        assert _load_model(d).A[0, 1] == 0.2
        assert len(factorize_calls) == 2

    def test_dropped_zero_sector_stores_the_reduced_factors(self, tmp_path, monkeypatch,
                                                            factorize_calls):
        table = random_economy(EconomyGenSpec(n=140, seed=2))
        d = _table_files(_with_dead_sector(table), tmp_path / "in")
        miss = _load_model(d)
        assert miss.table.n == 140
        (entry,) = _cache_files()
        arrays = _entry_arrays(entry)
        assert arrays["Z"].shape == (141, 141)
        assert arrays["L"].shape == (140, 140)
        fresh = _fresh_inverse(table)
        _no_factorization(monkeypatch)
        hit = _load_model(d)
        assert hit.L.tobytes() == miss.L.tobytes() == fresh.tobytes()

    def test_table_edited_during_parse_caches_nothing(self, tmp_path, monkeypatch,
                                                      factorize_calls):
        d = _copy_e2(tmp_path / "in")
        real = ingest.parse_io_table

        def parse_then_edit(*args):
            table = real(*args)
            _set_cell(d / "table.csv", 2, 2, "50.25")
            return table

        monkeypatch.setattr(ingest, "parse_io_table", parse_then_edit)
        table, entry = _load_entry(d)
        assert entry is None
        assert load_model(table, entry).A[0, 0] == 0.5
        assert _cache_files() == set()

    def test_changed_factorization_source_is_a_miss(self, tmp_path, monkeypatch, parse_calls,
                                                    factorize_calls):
        d = _copy_e2(tmp_path / "in")
        _load_model(d)
        edited = tmp_path / "leontief.py"
        edited.write_text(Path(leontief.__file__).read_text() + "# edited\n")
        monkeypatch.setattr(leontief, "__file__", str(edited))
        _load_model(d)
        assert (len(parse_calls), len(factorize_calls)) == (2, 2)
        assert len(_cache_files()) == 2

    def test_unwritable_cache_dir(self, tmp_path, monkeypatch, factorize_calls):
        d = _copy_e2(tmp_path / "in")
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        models = [_load_model(d) for _ in range(2)]
        assert len(factorize_calls) == 2
        assert models[0].L.tobytes() == models[1].L.tobytes()
        assert blocker.read_text() == ""


# Bytes that mean something to the CSV grammar or the number parser, plus
# arbitrary ones.
_FUZZ_BYTES = st.sampled_from(
    [b",", b"\n", b"\r", b'"', b" ", b"-", b"+", b"e", b"0", b"1", b"9", b".", b"nan", b"inf",
     b"\x00", b"\xff", b"\xef\xbb\xbf", b"S1", b"S2", b"1e400"]
) | st.binary(min_size=1, max_size=4)
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 10**4), _FUZZ_BYTES),
    max_size=3,
)


def _mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, pos, chunk in mutations:
        i = pos % (len(out) + 1)
        if kind == "insert":
            out[i:i] = chunk
        elif kind == "replace":
            out[i : i + len(chunk)] = chunk
        else:
            del out[i : i + len(chunk)]
    return bytes(out)


def _outcome(d):
    try:
        return load_io_table(d / "table.csv", d / "sectors.csv")
    except IOModelError as exc:
        return exc


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(table=_MUTATIONS, sectors=_MUTATIONS)
    def test_mutated_inputs_give_a_finite_table_or_a_model_error(self, table, sectors):
        with tempfile.TemporaryDirectory() as d, mock.patch.dict(
            os.environ, {"XDG_CACHE_HOME": os.path.join(d, "cache")}
        ), mock.patch.object(ingest, "parse_io_table", wraps=ingest.parse_io_table) as parse:
            d = Path(d)
            e2 = FIXTURES / "e2"
            (d / "table.csv").write_bytes(_mutate((e2 / "table.csv").read_bytes(), table))
            (d / "sectors.csv").write_bytes(_mutate((e2 / "sectors.csv").read_bytes(), sectors))
            miss = _outcome(d)
            hit = _outcome(d)
            entries = list((d / "cache" / "ioimpact").glob("*.npz"))
        if isinstance(miss, IOModelError):
            assert (type(hit), str(hit)) == (type(miss), str(miss))
            assert entries == []
            return
        assert parse.call_count == 1 and len(entries) == 1
        _assert_bit_identical(hit, miss)
        for a in (miss.Z, miss.final_demand.values, miss.x, miss.imports, miss.value_added):
            assert np.isfinite(a).all()


def _parse_outcome(d):
    """What parse_io_table gives: the array bytes, or the error's type,
    message and coordinates."""
    try:
        t = parse_io_table(d / "table.csv", d / "sectors.csv")
    except IOModelError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return [a.tobytes() for a in (t.Z, t.final_demand.values, t.x, t.imports, t.value_added)]


def _oracle_outcome(d):
    """_parse_outcome with every line read by csv.reader."""
    with mock.patch.object(ingest, "_cells", csv.reader):
        return _parse_outcome(d)


def _table_lines(n, values):
    """The lines of a valid n-sector table with its cells drawn from ``values``."""
    codes = [f"S{i + 1}" for i in range(n)]
    lines = [",".join(["sector", *codes, "HH", "NPISH", "GOV", "GFCF", "INV", "EXP",
                       "total_output"])]
    lines += [",".join([code, *next(values)]) for code in codes]
    lines += [",".join([label, *next(values)[:n], *[""] * 7]) for label in ingest.TRAILING_ROWS]
    return codes, lines


def _plant(lines, fault, row, col):
    """Plant one fault (or a harmless variation) at ``row``/``col`` of the lines."""
    cells = lines[row].split(",")
    col = col % len(cells)
    if fault == "malformed":
        cells[col] = "1.0x"
    elif fault == "non-finite":
        cells[col] = "nan"
    elif fault == "short-row":
        del cells[col]
    elif fault == "long-row":
        cells.insert(col, "1.0")
    elif fault == "label":
        cells[0] = "BOGUS"
    elif fault == "nul-label":
        cells[0] += "\0"
    elif fault == "nul-cell":
        cells[col] = "\0" + cells[col]
    elif fault == "swap":
        other = 1 + col % (len(lines) - 1)
        lines[row], lines[other] = lines[other], lines[row]
        return lines
    elif fault == "missing-row":
        del lines[row]
        return lines
    elif fault == "extra-row":
        lines.insert(row, lines[row])
        return lines
    elif fault == "trailing":
        lines[-1] = lines[-1] + "1.0"
        return lines
    elif fault == "quoted":
        cells[col] = f'"{cells[col]}"'
    elif fault == "quoted-newline":  # one cell spanning the end of this line and the next
        cells[-1] = '"' + cells[-1]
        if row + 1 < len(lines):
            lines[row + 1] += '"'
    elif fault == "blank":
        lines.insert(row, "" if col % 2 else " , ")
        return lines
    lines[row] = ",".join(cells)
    return lines


FAULTS = ["none", "malformed", "non-finite", "short-row", "long-row", "label", "nul-label",
          "nul-cell", "swap", "missing-row", "extra-row", "trailing", "quoted",
          "quoted-newline", "blank", "utf8"]


class TestSplitParse:
    """parse_io_table, which splits quote-free lines at their commas,
    against csv.reader reading every line, the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 7),
        data=st.data(),
        fault=st.sampled_from(FAULTS),
        row=st.integers(1, 20),
        col=st.integers(0, 20),
        eol=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
    )
    def test_same_result_or_same_error(self, n, data, fault, row, col, eol, bom):
        values = iter(data.draw(st.lists(
            st.lists(_finite().map(repr), min_size=n + 7, max_size=n + 7),
            min_size=n + 3, max_size=n + 3,
        )))
        codes, lines = _table_lines(n, values)
        lines = _plant(lines, fault, 1 + row % (len(lines) - 1), col)
        raw = (eol.join(lines) + eol).encode()
        if fault == "utf8":
            at = raw.index(b",", len(raw) * (row % 10) // 10)
            raw = raw[:at] + b"\xff" + raw[at:]
        self._compare(codes, (b"\xef\xbb\xbf" if bom else b"") + raw)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 50), n=st.integers(2, 7), mutations=_MUTATIONS)
    def test_mutated_tables(self, seed, n, mutations):
        with tempfile.TemporaryDirectory() as d:
            write_table_files(random_economy(EconomyGenSpec(n=n, seed=seed)), d)
            raw = (Path(d) / "table.csv").read_bytes()
        self._compare([f"S{i + 1}" for i in range(n)], _mutate(raw, mutations))

    @staticmethod
    def _compare(codes, raw):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "sectors.csv").write_text("code,name\n" + "".join(f"{c},{c}\n" for c in codes))
            (d / "table.csv").write_bytes(raw)
            assert _parse_outcome(d) == _oracle_outcome(d)

    @pytest.mark.parametrize("fault", ["missing-row", "extra-row", "swap", "other-code",
                                       "quoted-newline", "nul-label", "nul-cell"])
    def test_fault_at_every_row(self, tmp_path, fault):
        """Faults that move the rows against the lines or send a line to
        csv.reader, planted at every row."""
        n = 30
        paths = write_table_files(random_economy(EconomyGenSpec(n=n, seed=2)), tmp_path)
        original = paths["table"].read_text().splitlines()
        for k in range(1, n + 3):
            lines = list(original)
            if fault == "missing-row":
                del lines[k]
            elif fault == "extra-row":
                lines.insert(k, lines[k])
            elif fault == "swap":
                lines[k], lines[k + 1] = lines[k + 1], lines[k]
            elif fault == "other-code":
                lines[k] = f"S{1 + (k + 5) % n}," + lines[k].split(",", 1)[1]
            else:
                lines = _plant(lines, fault, k, k)
            paths["table"].write_text("\n".join(lines) + "\n")
            assert _parse_outcome(tmp_path) == _oracle_outcome(tmp_path), k

    @pytest.mark.parametrize("where", ["label", "cell"])
    def test_nul(self, tmp_path, where):
        paths = write_table_files(canonical_e2(), tmp_path)
        lines = _plant(paths["table"].read_text().splitlines(), f"nul-{where}", 2, 2)
        paths["table"].write_text("\n".join(lines) + "\n")
        want = (TableParseError("expected sector 'S2' per metadata order, got 'S2\\x00'", 3, 1)
                if where == "label"
                else TableParseError(f"malformed numeric cell {lines[2].split(',')[2]!r}", 3, 3))
        outcome = _parse_outcome(tmp_path)
        assert outcome == _oracle_outcome(tmp_path)
        assert outcome == (TableParseError, str(want), want.row, want.column)

    def test_quoted_cell_spanning_two_lines(self, tmp_path):
        """A quoted cell spanning two lines, between plain lines, is one
        record, and the records after it are numbered as csv numbers them."""
        paths = write_table_files(canonical_e2(), tmp_path)
        want = _parse_outcome(tmp_path)
        lines = paths["table"].read_text().splitlines()
        head, last = lines[1].rsplit(",", 1)
        lines[1] = f'{head},"{last}\n"'  # x of S1, then a newline, in one cell
        paths["table"].write_text("\n".join(lines) + "\n")
        assert _parse_outcome(tmp_path) == _oracle_outcome(tmp_path) == want
        lines[2] = lines[2].replace(",", ",x", 1)
        paths["table"].write_text("\n".join(lines) + "\n")
        outcome = _parse_outcome(tmp_path)
        assert outcome == _oracle_outcome(tmp_path)
        assert outcome[2:] == (3, 2)

    @pytest.mark.parametrize("limit,parses", [(30, True), (12, False)])
    def test_line_longer_than_the_field_size_limit(self, tmp_path, limit, parses):
        """Every line is longer than the limit; each cell is shorter at 30,
        and some cell longer at 12, where csv names it."""
        write_table_files(random_economy(EconomyGenSpec(n=5, seed=3)), tmp_path)
        old = csv.field_size_limit(limit)
        try:
            outcome = _parse_outcome(tmp_path)
            assert outcome == _oracle_outcome(tmp_path)
        finally:
            csv.field_size_limit(old)
        assert isinstance(outcome, list) == parses
        if not parses:
            assert f"field larger than field limit ({limit})" in outcome[1]

    def test_only_a_quoted_record_goes_through_csv_reader(self, tmp_path, monkeypatch):
        paths = write_table_files(canonical_e2(), tmp_path)
        want = parse_io_table(paths["table"], paths["sectors"])
        lines = paths["table"].read_text().splitlines()
        head, last = lines[1].rsplit(",", 1)
        lines[1] = f'{head},"{last}"'
        paths["table"].write_text("\n".join(lines) + "\n")
        records, reader = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: (
            records.append(cells) or cells for cells in reader(lines)
        ))
        _assert_bit_identical(parse_io_table(paths["table"], paths["sectors"]), want)
        assert records == [lines[1].replace('"', "").split(",")]

    @pytest.fixture
    def big(self, tmp_path):
        """A generated n = 200 table of about 0.8 MB."""
        paths = write_table_files(random_economy(EconomyGenSpec(n=200, seed=5)), tmp_path)
        return paths["table"], paths["sectors"]

    def test_first_error_in_the_file_is_named(self, big):
        table, sectors = big
        lines = table.read_text().splitlines()
        lines[190] = lines[190].replace(",", ",oops,", 1)
        lines[190] = lines[190][: lines[190].rindex(",")]  # keep the width
        table.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableParseError, match="malformed numeric cell 'oops'") as err:
            parse_io_table(table, sectors)
        assert (err.value.row, err.value.column) == (191, 2)
        lines[180] = lines[180].replace(",", ",1e400,", 1)
        table.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableParseError, match="row has 209 cells, expected 208") as err:
            parse_io_table(table, sectors)
        assert (err.value.row, err.value.column) == (181, None)

    @pytest.mark.parametrize("case", ["success", "error"])
    def test_leaves_no_open_file(self, big, case):
        table, sectors = big
        if case == "error":
            lines = table.read_text().splitlines()
            lines[-5] = lines[-5].replace(",", ",x", 1)
            table.write_text("\n".join(lines) + "\n")
        fds = set(os.listdir("/proc/self/fd"))
        with contextlib.suppress(TableParseError):
            parse_io_table(table, sectors)
        assert set(os.listdir("/proc/self/fd")) == fds


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
    def test_own_total_uses_row_is_written_back(self, tmp_path):
        d = _copy_e2(tmp_path / "in")
        _set_cell(d / "table.csv", 6, 2, "999.0")
        _set_cell(d / "table.csv", 6, 3, "5.0")
        table = parse_io_table(d / "table.csv", d / "sectors.csv")
        assert table.total_uses.tolist() == [999.0, 5.0]
        assert not table.total_uses.flags.writeable
        paths = write_table_files(table, tmp_path / "out")
        _assert_bit_identical(parse_io_table(paths["table"], paths["sectors"]), table)
        assert canonical_e2().total_uses is None

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

    def test_blank_code_is_refused_before_writing(self, tmp_path):
        table = random_economy(EconomyGenSpec(n=2, seed=0))
        blank = replace(table, sectors=(Sector("", "Empty code"), table.sectors[1]))
        with pytest.raises(ValueError, match="a sector code is blank"):
            write_table_files(blank, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_sector_names_with_commas_survive(self, tmp_path):
        table = random_economy(EconomyGenSpec(n=2, seed=0))
        renamed = type(table)(
            sectors=tuple(
                type(s)(s.code, f"Name {i}, with comma")
                for i, s in enumerate(table.sectors)
            ),
            Z=table.Z, final_demand=table.final_demand, imports=table.imports,
            value_added=table.value_added, satellites=table.satellites, x=table.x,
        )
        paths = write_table_files(renamed, tmp_path)
        back = parse_io_table(paths["table"], paths["sectors"],
                              list(paths["satellites"].values()))
        assert back.sectors[0].name == "Name 0, with comma"

    # NUL is left out because Python 3.10's csv rejects it.
    _LABELS = st.text(st.sampled_from([",", '"', "\n", "\r", "\t", " ", "a", "B", "1", "\u00e9"]),
                      min_size=1, max_size=6)

    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.tuples(_LABELS, _LABELS), min_size=1, max_size=4,
                           unique_by=lambda label: label[0]))
    def test_codes_and_names_with_quotes_and_line_ends_survive(self, labels):
        table = random_economy(EconomyGenSpec(n=len(labels), seed=1))

        def renamed(pairs):
            return replace(table, sectors=tuple(
                Sector(code, name) for code, name in pairs))

        # The parser strips every cell, quoted or not, so a label with
        # whitespace at either edge is refused before anything is written;
        # the same labels without their edges round-trip.
        edged = [label for pair in labels for label in pair if label != label.strip()]
        inner = [(code.strip(), name.strip()) for code, name in labels]
        with tempfile.TemporaryDirectory() as d:
            if edged:
                with pytest.raises(ValueError, match=re.escape(repr(edged[0]))):
                    write_table_files(renamed(labels), d)
                assert os.listdir(d) == []
            assume(all(code and name for code, name in inner))
            assume(len({code for code, _ in inner}) == len(inner))
            paths = write_table_files(renamed(inner), d)
            back = parse_io_table(paths["table"], paths["sectors"],
                                  list(paths["satellites"].values()))
            _assert_bit_identical(back, renamed(inner))


class TestBlowupHistoryFiles:
    def test_parse(self, tmp_path):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2015,1000.0\n2016,1048.0\n")
        gdp.write_text("year,gdp_growth\n2016,0.04\n2017,0.03\n")
        fd_map, gdp_map = parse_blowup_history(fd, gdp)
        assert fd_map == {2015: 1000.0, 2016: 1048.0}
        assert gdp_map == {2016: 0.04, 2017: 0.03}

    def test_duplicate_year_rejected(self, tmp_path):
        fd = tmp_path / "fd.csv"
        gdp = tmp_path / "gdp.csv"
        fd.write_text("year,total_final_demand\n2018,100.0\n2019,110\n2019,500\n")
        gdp.write_text("year,gdp_growth\n2020,0.04\n")
        with pytest.raises(TableParseError, match="fd.csv: duplicate year 2019") as err:
            parse_blowup_history(fd, gdp)
        assert (err.value.row, err.value.column) == (4, 1)


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

    @pytest.mark.parametrize(
        "total,weights,integral,message",
        [
            (100.0, [np.nan, 1.0], False, "weights"),
            (100.0, [np.inf, 1.0], False, "weights"),
            (100.0, [-1.0, 2.0], False, "weights"),
            (100.0, [1e308, 1e308], False, "weights"),
            (np.nan, [1.0, 1.0], False, "total"),
            (np.nan, [1.0, 1.0], True, "total"),
            (-np.inf, [1.0, 1.0], True, "total"),
            (2.0**52, [1.0, 1.0], True, "total"),
        ],
    )
    def test_non_finite_arguments_rejected(self, total, weights, integral, message):
        with pytest.raises(ValueError, match=message):
            disaggregate_aggregate(total, weights, integral=integral)

    @settings(max_examples=200, deadline=None)
    @given(
        total=st.floats(allow_nan=True, allow_infinity=True)
        | st.integers(-(2**53), 2**53).map(float),
        weights=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8),
        integral=st.booleans(),
    )
    def test_finite_shares_or_value_error(self, total, weights, integral):
        try:
            got = disaggregate_aggregate(total, weights, integral=integral)
        except ValueError:
            return
        assert got.shape == (len(weights),)
        assert np.isfinite(got).all()
        if integral:
            assert got.sum() == round(total)
            assert total < 0 or (got >= 0).all()

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
