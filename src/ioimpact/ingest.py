"""File ingestion: IO tables, satellite accounts, blowup history.

Table layout (CSV, UTF-8 with or without a BOM, comma-delimited, period
decimal separator)::

    sector,<code_1>,...,<code_n>,HH,NPISH,GOV,GFCF,INV,EXP,total_output
    <code_1>,z_11,...,z_1n,f_HH,...,f_EXP,x_1
    ...
    <code_n>,z_n1,...,z_nn,...,x_n
    IMPORTS,m_1,...,m_n,,,,,,,
    VALUE_ADDED,va_1,...,va_n,,,,,,,
    TOTAL_USES,x_1,...,x_n,,,,,,,

Sector codes must match the metadata file (``code,name`` rows, order defines
the matrix order). The TOTAL_USES row is kept as IOTable.total_uses, which
table.validate_table checks against x. Satellite files are ``sector,<kind>``
CSVs with one row per sector. Every CSV row has exactly as many cells as its
header names; blank rows are skipped. Parsing is total: either a fully
populated object is returned or an error carrying the file coordinates is
raised. Numeric cells must be finite. Files are decoded line by line, so the
first bad line or cell in the file is the one named. A line with no quote or
NUL is split at its commas, and any other goes to csv.reader, so every file
reads as csv.reader reads it (see _cells).

A table has one cache entry, one file under ``$XDG_CACHE_HOME/ioimpact``
(default ``~/.cache/ioimpact``), keyed by the sha256 of the table file, the
metadata file, this module's and leontief.py's sources, the numpy version,
and the BLAS library numpy uses with its live thread count, since OpenBLAS
inverts I - A to other bits under another count. It holds the parsed
arrays, the TOTAL_USES row among them, and, once a model was built from
them, the Leontief inverse L = (I - A)^-1.
This module alone decides what an entry stores, and each loader writes it
at most once: load_io_table, parse_io_table memoised on disk, stores the
parsed arrays on a miss; load_model stores the arrays and L together once
leontief.build_model has certified the model, when the entry was a miss or
when build_model, which serves a stored L only once it passes its checks,
inverted I - A again. load_table_entry reads an entry and writes none, so
a caller that stops between it and load_model, as the CLI's run and
multipliers do on a failed validation or an unknown sector, stores
nothing. A table that fails to parse gets no entry, and one that fails
build_model none from load_model.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import itertools
import math
import os
import re
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import leontief
from .errors import StructuralError, TableParseError
from .table import (
    FD_CODES,
    FinalDemandBlock,
    IOTable,
    SatelliteAccount,
    SATELLITE_KINDS,
    Sector,
)

TRAILING_ROWS = ("IMPORTS", "VALUE_ADDED", "TOTAL_USES")

# Table entries kept in the cache; each write drops the least recently used.
CACHE_ENTRIES = 8
# What np.load raises on a damaged archive; any of them makes the entry a miss.
_DAMAGED_ENTRY = (OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile)


# Where a lone carriage return ends a line inside a \n-ended one.
_LONE_CR = re.compile("(?<=\r)(?!\n)")


def _lines(fh, path):
    """The lines of a binary file, decoded one by one; a UTF-8 BOM at its
    start is dropped.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a text file
    opened with ``newline=""``. A line that is not valid UTF-8 raises
    TableParseError naming it, counted in these lines.
    """
    encoding, row = "utf-8-sig", 0
    for line in fh:
        try:
            text = line.decode(encoding)
        except UnicodeDecodeError as exc:
            # A \r before the bad byte is a lone one (a \r\n ends the binary line).
            row += 1 + exc.object.count(b"\r", 0, exc.start)
            raise TableParseError(f"{path}: not valid UTF-8 ({exc.reason})", row=row) from None
        encoding = "utf-8"
        if b"\r" in line and line.count(b"\r") != line.endswith(b"\r\n"):
            texts = list(filter(None, _LONE_CR.split(text)))
            row += len(texts)
            yield from texts
        else:
            row += 1
            yield text


def _cells(lines):
    """The cells of each CSV record in ``lines``, as csv.reader gives them.

    A line that holds a ``"``, or a NUL (which Python 3.10's csv rejects
    and later versions read), or is longer than csv.field_size_limit(),
    goes to csv.reader, with the lines after it so that a quoted record can
    span lines. Any other line is one record, split at its commas.
    """
    limit = csv.field_size_limit()
    lines = iter(lines)
    for text in lines:
        if '"' in text or "\0" in text or len(text) > limit:
            yield from itertools.islice(csv.reader(itertools.chain((text,), lines)), 1)
        else:
            yield text.rstrip("\r\n").split(",")


def _records(lines, path, width: int):
    """Yield ``(1-based row number, cells)`` for each non-blank CSV record.

    The first non-blank record is the header, which the caller checks;
    every later record must have ``width`` cells. A record of another width
    or one csv cannot read (such as a cell over csv.field_size_limit())
    raises TableParseError naming it.
    """
    r, header = 0, True
    try:
        for r, cells in enumerate(_cells(lines), start=1):
            if not any(cell.strip() for cell in cells):
                continue
            if not header and len(cells) != width:
                raise TableParseError(
                    f"{path}: row has {len(cells)} cells, expected {width}", row=r
                )
            header = False
            yield r, cells
    except csv.Error as exc:
        raise TableParseError(f"{path}: {exc}", row=r + 1) from None


def _csv_rows(path, width: int):
    """_records over a whole file."""
    with open(path, "rb") as fh:
        yield from _records(_lines(fh, path), path, width)


def _cell(raw: str, row: int, col: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TableParseError(f"malformed numeric cell {raw!r}", row=row, column=col) from None
    if not math.isfinite(value):
        raise TableParseError(f"non-finite numeric cell {raw!r}", row=row, column=col)
    return value


def _row_values(cells: list[str], row: int) -> np.ndarray:
    """Convert the numeric cells of one table row, which start at column 2.

    Every cell goes through float(), as in _cell, so the values match a
    per-cell parse exactly. When the row holds a malformed or non-finite
    cell, a per-cell rescan raises with that cell's coordinates.
    """
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    return np.array([_cell(raw, row, 2 + j) for j, raw in enumerate(cells)])


def _keyed_rows(path, header: str, key=str):
    """Read a two-column key-value CSV whose header reads ``header``, such
    as ``code,name``: yields the header's row, first cell and second cell,
    which the caller checks, then (row, key, value cell) for each record.
    Each key is stripped and converted by ``key``; a blank key, one that
    ``key`` refuses with ValueError, or a repeated one raises
    TableParseError naming the file, the row and column 1."""
    rows = _csv_rows(path, 2)
    r, cells = next(rows, (1, []))
    name = header.partition(",")[0]
    if len(cells) != 2 or cells[0].strip() != name:
        raise TableParseError(f"{path}: expected header {header!r}", row=r)
    yield r, name, cells[1].strip()
    seen = set()
    for r, (raw, value) in rows:
        text = raw.strip()
        if not text:
            raise TableParseError(f"{path}: blank {name}", row=r, column=1)
        try:
            k = key(text)
        except ValueError:
            raise TableParseError(f"{path}: malformed {name} {text!r}", row=r, column=1) from None
        if k in seen:
            raise TableParseError(f"{path}: duplicate {name} {k!r}", row=r, column=1)
        seen.add(k)
        yield r, k, value


def parse_sector_metadata(path) -> list[Sector]:
    """Read the ``code,name`` metadata file; order defines matrix order."""
    rows = _keyed_rows(path, "code,name")
    r, _, name = next(rows)
    if name != "name":
        raise TableParseError(f"{path}: expected header 'code,name'", row=r)
    sectors = [Sector(code=code, name=label.strip()) for _, code, label in rows]
    if not sectors:
        raise TableParseError(f"{path}: no sectors defined")
    return sectors


def parse_satellite_file(path, codes: tuple[str, ...]) -> SatelliteAccount:
    """Read one ``sector,<kind>`` file covering every sector exactly once."""
    rows = _keyed_rows(path, "sector,<kind>")
    r, _, kind = next(rows)
    if kind not in SATELLITE_KINDS:
        raise TableParseError(
            f"{path}: unknown satellite kind {kind!r}; expected one of {SATELLITE_KINDS}", row=r
        )
    known = set(codes)
    values = {}
    for r, code, raw in rows:
        if code not in known:
            raise TableParseError(f"{path}: unknown sector code {code!r}", row=r)
        values[code] = _cell(raw, r, 2)
    missing = [c for c in codes if c not in values]
    if missing:
        raise StructuralError(f"{path}: satellite {kind!r} missing sectors {missing}")
    return SatelliteAccount(kind=kind, values=np.array([values[c] for c in codes]))


def parse_io_table(table_file, sector_metadata_file, satellite_files=()) -> IOTable:
    """Parse the table CSV plus metadata and satellite files into an IOTable.

    The table is read in one pass: each row's numeric cells are converted
    at once into a preallocated array holding Z, the final-demand block and
    x, then the trailing rows. The result is structurally checked but not
    identity-validated; run validate_table (after drop_zero_sectors, for
    real tables) next.
    """
    sectors = parse_sector_metadata(sector_metadata_file)
    codes = tuple(s.code for s in sectors)
    n = len(codes)
    expected_header = ["sector", *codes, *FD_CODES, "total_output"]
    n_rows = 1 + n + len(TRAILING_ROWS)
    # Row i of the table after the header; trailing rows use n cells.
    out = np.empty((n + len(TRAILING_ROWS), len(expected_header) - 1))
    with open(table_file, "rb") as fh:
        rows = _records(_lines(fh, table_file), table_file, len(expected_header))
        r, header = next(rows, (1, None))
        if header is None:
            raise TableParseError(f"{table_file}: empty file")
        header = [c.strip() for c in header]
        if header != expected_header:
            raise TableParseError(
                f"{table_file}: header mismatch; expected {expected_header[:4]}... "
                f"per the metadata file, got {header[:4]}...",
                row=r,
            )
        count = _fill(rows, codes, out)
    if count != n_rows:
        raise TableParseError(
            f"{table_file}: expected {n_rows} rows "
            f"({n} sectors + trailing {', '.join(TRAILING_ROWS)}), got {count}"
        )

    return _table(
        sectors,
        satellite_files,
        Z=out[:n, :n],
        final_demand=out[:n, n:-1],
        x=out[:n, -1],
        imports=out[n, :n],
        value_added=out[n + 1, :n],
        total_uses=out[n + 2, :n],
    )


def _table(sectors, satellite_files, final_demand, **arrays) -> IOTable:
    """The IOTable of a table's six parsed arrays, read from its file or its
    cache entry: Z, final_demand, x, imports, value_added and total_uses.
    The satellite files are parsed against ``sectors``."""
    return IOTable(
        sectors=tuple(sectors),
        final_demand=FinalDemandBlock(final_demand),
        satellites=_parse_satellites(satellite_files, tuple(s.code for s in sectors)),
        **arrays,
    )


def _fill(rows, codes: tuple[str, ...], out: np.ndarray) -> int:
    """Parse the table rows after the header into ``out``: row i after the
    header, a sector row or a trailing row, goes to ``out[i]``. Returns the
    number of non-blank rows, the header included; rows past the expected
    count are only counted."""
    n = len(codes)
    n_rows = 1 + n + len(TRAILING_ROWS)
    count = 1
    for count, (r, row) in enumerate(rows, start=2):
        if count > n_rows:
            continue  # only counted, for the row-count check
        i = count - 2
        label = row[0].strip()
        if i < n:
            if label != codes[i]:
                raise TableParseError(
                    f"expected sector {codes[i]!r} per metadata order, got {label!r}",
                    row=r,
                    column=1,
                )
            out[i] = _row_values(row[1:], r)
            continue
        expected = TRAILING_ROWS[i - n]
        if label != expected:
            raise TableParseError(
                f"expected trailing row {expected!r}, got {label!r}", row=r, column=1
            )
        out[i, :n] = _row_values(row[1 : 1 + n], r)
        for c in range(n + 1, len(row)):
            if row[c].strip():
                raise TableParseError(
                    f"trailing row {expected} must leave final-demand cells empty",
                    row=r,
                    column=c + 1,
                )
    return count


def _parse_satellites(satellite_files, codes: tuple[str, ...]) -> dict[str, SatelliteAccount]:
    satellites = {}
    for sat_path in satellite_files:
        sat = parse_satellite_file(sat_path, codes)
        if sat.kind in satellites:
            raise StructuralError(f"satellite kind {sat.kind!r} supplied twice")
        satellites[sat.kind] = sat
    return satellites


def load_io_table(table_file, sector_metadata_file, satellite_files=()) -> IOTable:
    """parse_io_table, cached on disk between runs: load_table_entry, and
    on a miss the table's parsed arrays are stored in its entry, without L."""
    table, entry = load_table_entry(table_file, sector_metadata_file, satellite_files)
    if entry is not None and not entry.hit:
        _write_entry(entry)
    return table


@dataclass(frozen=True)
class TableEntry:
    """A table's cache entry: its file, which holds the table's parsed
    arrays and, once load_model has built a model from them, ``L``;
    the table as parsed, before drop_zero_sectors; and ``hit``, whether
    the file already holds these parsed arrays."""

    path: Path
    table: IOTable
    hit: bool


def load_table_entry(
    table_file, sector_metadata_file, satellite_files=()
) -> tuple[IOTable, TableEntry | None]:
    """The table and its cache entry, which this function reads but never
    writes: load_io_table or load_model stores it.

    The entry is named by the sha256 of this module's and leontief.py's
    sources, the numpy version, the BLAS library and its thread count (see
    _blas_key), the metadata file and the table file, so an edit to either
    file, the parse rules or the inversion, or another BLAS or thread count,
    is a miss. A hit reads Z, final demand, x, imports, value added and the
    total-uses row from ``<key>.npz``, where load_model keeps L =
    (I - A)^-1; the metadata and satellite files are parsed every time and
    the table is built through IOTable, so it is checked as on a miss. A
    table that fails to parse raises; one whose files changed while they
    were hashed and parsed gets no entry (None): a hit whose files changed
    is parsed again as a miss. An entry that cannot be read or holds the
    wrong shapes or a non-finite value is a miss (``hit`` False), which the
    loaders overwrite whole.
    """
    inputs = (sector_metadata_file, table_file)
    stamp = _stamp(inputs)
    key = hashlib.sha256(f"numpy {np.__version__}\n{_blas_key()}\n".encode())
    for path in (__file__, leontief.__file__, *inputs):
        key.update(_file_digest(path))
    path = _cache_dir() / f"{key.hexdigest()}.npz"
    if path.exists():
        sectors = parse_sector_metadata(sector_metadata_file)
        n = len(sectors)
        arrays = _read_entry(
            path,
            {
                "Z": (n, n),
                "final_demand": (n, len(FD_CODES)),
                "x": (n,),
                "imports": (n,),
                "value_added": (n,),
                "total_uses": (n,),
            },
        )
        if arrays is not None and _stamp(inputs) == stamp:
            table = _table(sectors, satellite_files, **arrays)
            return table, TableEntry(path, table, hit=True)
    table = parse_io_table(table_file, sector_metadata_file, satellite_files)
    if _stamp(inputs) != stamp:  # the parsed bytes are not the hashed bytes
        return table, None
    return table, TableEntry(path, table, hit=False)


def load_model(table: IOTable, entry: TableEntry | None) -> leontief.LeontiefModel:
    """leontief.build_model, with the Leontief inverse L = (I - A)^-1 kept in
    the table's cache entry between runs.

    ``table`` is the entry's table after drop_zero_sectors, so L is a
    function of the entry's parsed arrays. On a hit, the entry's L, if it
    holds a finite float64 n x n array, goes to build_model, which checks A
    before it uses L and serves it only if it passes its checks. On a miss,
    or when build_model did not serve the stored L, the entry is written
    once, whole: the parsed arrays in memory and the model's L. A table
    that fails build_model is never cached. Without an entry nothing is
    cached.
    """
    n = table.n
    hit = entry is not None and entry.hit
    arrays = _read_entry(entry.path, {"L": (n, n)}) if hit else None
    stored = None if arrays is None else arrays["L"]
    model = leontief.build_model(table, stored)
    if entry is not None and model.L is not stored:
        _write_entry(entry, L=model.L)
    return model


def _blas_key() -> str:
    """The BLAS library numpy links and its live thread count, as the cache
    key names them: L's bits depend on both. The count is read from
    OpenBLAS through ctypes and is ``unknown`` where it cannot be asked."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 has no dict form
        blas = {}
    threads = "unknown"
    with contextlib.suppress(OSError):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return f"blas {blas.get('name')} {blas.get('version')} threads {threads}"


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = Path.home() / ".cache"
    return Path(base) / "ioimpact"


def _stamp(paths) -> list[tuple[int, int, int]]:
    return [(st.st_ino, st.st_size, st.st_mtime_ns) for st in map(os.stat, paths)]


def _file_digest(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def _read_entry(path: Path, shapes: dict[str, tuple]) -> dict[str, np.ndarray] | None:
    """The arrays of a cache entry, read-only, one per name in ``shapes``, or
    None if the entry is missing or unusable: unreadable, or with an array
    that is not finite float64 of its shape. A usable entry is marked as just
    used."""
    try:
        with open(path, "rb") as fh:
            entry = np.load(fh, allow_pickle=False)
            if not isinstance(entry, np.lib.npyio.NpzFile):
                return None
            with entry:
                arrays = {name: entry[name] for name in shapes}
    except _DAMAGED_ENTRY:
        return None
    for name, shape in shapes.items():
        a = arrays[name]
        if a.dtype != np.float64 or a.shape != shape or not np.isfinite(a).all():
            return None
        a.setflags(write=False)
    with contextlib.suppress(OSError):
        os.utime(path)
    return arrays


def _write_entry(entry: TableEntry, **model: np.ndarray) -> None:
    """Store the entry's parsed arrays and the ``model`` arrays (``L``), if
    given, atomically, then keep the CACHE_ENTRIES most recently used
    entries. A cache that cannot be written is left as it is."""
    table = entry.table
    with contextlib.suppress(OSError):
        entry.path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    Z=table.Z,
                    final_demand=table.final_demand.values,
                    x=table.x,
                    imports=table.imports,
                    value_added=table.value_added,
                    total_uses=table.total_uses,
                    **model,
                )
            os.replace(tmp, entry.path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        entries = sorted(
            ((p.stat().st_mtime_ns, p.name, p) for p in entry.path.parent.glob("*.npz")),
            reverse=True,
        )
        for *_, stale in entries[CACHE_ENTRIES:]:
            stale.unlink()


def _num(v: float) -> str:
    return repr(float(v))


def quoted_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted if it holds a comma, a quote or a
    line end, with each quote doubled; otherwise ``text`` itself. Every CSV
    the program writes, tables here and reports in report.py, follows it."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table_files(table: IOTable, out_dir) -> dict:
    """Write a table back to the canonical file layout.

    Emits ``table.csv``, ``sectors.csv``, and one ``satellite_<kind>.csv``
    per account; values use shortest round-trip formatting so a parse of the
    output reproduces the table exactly. The ``TOTAL_USES`` row is the
    table's own, or for a table without one the column sums of Z, imports
    and value added. Returns the paths written.

    Raises ValueError, naming the label and writing nothing, for a blank
    sector code, which the parser refuses, and for a sector code or name
    with whitespace at either edge: the parser strips every cell, quoted or
    not, so it would read back another label.
    """
    for s in table.sectors:
        if not s.code:
            raise ValueError(
                "a sector code is blank, which the parser refuses; it cannot be written"
            )
        for what, label in (("code", s.code), ("name", s.name)):
            if label != label.strip():
                raise ValueError(
                    f"sector {what} {label!r} starts or ends with whitespace, which the "
                    "parser strips; it cannot be written"
                )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = table.n
    blank = [""] * (len(FD_CODES) + 1)
    total_uses = table.total_uses
    if total_uses is None:
        total_uses = table.Z.sum(axis=0) + table.imports + table.value_added

    codes = [quoted_cell(code) for code in table.codes]
    lines = [",".join(["sector", *codes, *FD_CODES, "total_output"])]
    for i in range(n):
        cells = [codes[i]]
        cells += [_num(v) for v in table.Z[i, :]]
        cells += [_num(v) for v in table.final_demand.values[i, :]]
        cells.append(_num(table.x[i]))
        lines.append(",".join(cells))
    for label, values in (
        ("IMPORTS", table.imports),
        ("VALUE_ADDED", table.value_added),
        ("TOTAL_USES", total_uses),
    ):
        lines.append(",".join([label, *[_num(v) for v in values], *blank]))
    table_path = out_dir / "table.csv"
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta_path = out_dir / "sectors.csv"
    meta_lines = ["code,name"] + [
        f"{code},{quoted_cell(s.name)}" for code, s in zip(codes, table.sectors)
    ]
    meta_path.write_text("\n".join(meta_lines) + "\n", encoding="utf-8")

    paths = {"table": table_path, "sectors": meta_path, "satellites": {}}
    for kind, sat in sorted(table.satellites.items()):
        sat_path = out_dir / f"satellite_{kind}.csv"
        sat_lines = [f"sector,{kind}"] + [
            f"{codes[j]},{_num(sat.values[j])}" for j in range(n)
        ]
        sat_path.write_text("\n".join(sat_lines) + "\n", encoding="utf-8")
        paths["satellites"][kind] = sat_path
    return paths


def parse_blowup_history(fd_file, gdp_file) -> tuple[dict[int, float], dict[int, float]]:
    """Read ``year,total_final_demand`` and ``year,gdp_growth`` CSVs."""

    def read(path, value_name):
        rows = _keyed_rows(path, f"year,{value_name}", key=int)
        next(rows)
        return {year: _cell(raw, r, 2) for r, year, raw in rows}

    return read(fd_file, "total_final_demand"), read(gdp_file, "gdp_growth")


def disaggregate_aggregate(total: float, weights, integral: bool = False) -> np.ndarray:
    """Split an aggregate across sectors proportionally to weights.

    The total must be finite, the weights finite and non-negative with a
    positive sum; anything else raises ValueError naming the argument.
    With integral=True (headcounts) a largest-remainder correction keeps the
    parts summing to the whole; ties go to the lower index.
    """
    if not math.isfinite(total):
        raise ValueError(f"total must be finite, got {total!r}")
    w = np.asarray(weights, dtype=float)
    if not (w >= 0).all() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and non-negative")
    with np.errstate(all="ignore"):  # a bad sum or an overflow is rejected below
        wsum = w.sum()
        shares = total * w / wsum
    if not 0 < wsum < math.inf:
        raise ValueError(f"weights must sum to a positive finite number, got {wsum!r}")
    if not np.isfinite(shares).all():
        raise ValueError(f"total {total!r} times the weights overflows")
    if not integral:
        return shares
    whole = round(total)
    if abs(total - whole) > 1e-9:
        raise ValueError(f"integral split needs an integral total, got {total!r}")
    # The shares then sum to within 1 of the total, so the floors leave a
    # remainder of 0 to len(w), and whole floats add exactly.
    if abs(whole) * (len(w) + 1) >= 2**53:
        raise ValueError(f"total is too large for an exact integral split: {total!r}")
    floors = np.floor(shares)
    remainder = int(whole - floors.sum())
    order = sorted(range(len(w)), key=lambda i: (-(shares[i] - floors[i]), i))
    for i in order[:remainder]:
        floors[i] += 1
    return floors
