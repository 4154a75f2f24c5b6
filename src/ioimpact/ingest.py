"""File ingestion: IO tables, satellite accounts, scenarios, blowup history.

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
the matrix order). Satellite files are ``sector,<kind>`` CSVs with one row
per sector. Every CSV row has exactly as many cells as its header names;
blank rows are skipped. Scenario files are JSON; see parse_scenario. Parsing
is total: either a fully populated object is returned or an error carrying
the file coordinates is raised. Numeric cells must be finite. Files are
decoded line by line, so the first bad line or cell in the file is the one
named.

A table file of at least 1 MiB is parsed in two processes where os.fork
exists and two CPUs are usable: a forked worker parses the second half of
the sector rows and the trailing rows into a shared mapping, and its rows
are used only if it parsed them all. Otherwise this process parses that
half itself, so the result, or the error with its row and column, is the
one-process parse's, and an error in the second half costs a one-process
parse of that half; see _parse_rows.

load_io_table is parse_io_table memoised on disk: a parsed table is stored
as one entry under ``$XDG_CACHE_HOME/ioimpact`` (default
``~/.cache/ioimpact``), keyed by the sha256 of the table file, the metadata
file, this module's and leontief.py's sources and the numpy version.
load_model adds the block LDU factors of I - A to the same entry, so a table
has one key and one file. It hands the entry's factors to
leontief.build_model, which serves them only once they pass its checks, and
stores the factors build_model computed instead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import mmap
import os
import re
import signal
import tempfile
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import leontief
from .errors import ScenarioConfigError, StructuralError, TableParseError
from .scenario import IntermediateSpec, Reallocation, ScenarioSpec, UseRatio
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


class _Lines:
    """The lines of a binary file, from its current position, decoded one
    by one for csv.reader.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a text file
    opened with ``newline=""``. ``lines`` counts the ``\\n``-ended lines
    handed out and ``end`` is the byte offset after them. ``plain`` stays
    true while no line held a ``"`` or a lone ``\\r``: up to then every line
    is one CSV record. Iteration stops at byte offset ``stop`` if the lines
    before it were plain, and can be resumed by iterating again. A line that
    is not valid UTF-8 raises TableParseError naming it, counted from where
    the lines start.
    """

    def __init__(self, fh, path, encoding="utf-8"):
        self.fh = fh
        self.path = path
        self.encoding = encoding  # of the next line; "utf-8-sig" drops a BOM
        self.lines = 0
        self.end = fh.tell()
        self.stop = None
        self.plain = True

    def __iter__(self):
        while not (self.plain and self.end == self.stop):
            line = self.fh.readline()
            if not line:
                return
            self.lines += 1
            self.end += len(line)
            try:
                text = line.decode(self.encoding)
            except UnicodeDecodeError as exc:
                raise TableParseError(
                    f"{self.path}: not valid UTF-8 ({exc.reason})", row=self.lines
                ) from None
            self.encoding = "utf-8"
            if b'"' in line:
                self.plain = False
            if b"\r" in line and line.count(b"\r") != line.endswith(b"\r\n"):
                self.plain = False
                yield from filter(None, _LONE_CR.split(text))
            else:
                yield text


def _records(lines: _Lines, path, width: int, r: int = 0, header: bool = True):
    """Yield ``(1-based row number, cells)`` for each non-blank CSV record,
    numbering the records after the first ``r``.

    While ``header`` holds, the next non-blank record is the header, which
    the caller checks; every later record must have ``width`` cells. A
    record of another width or one csv cannot read (such as a cell over
    csv.field_size_limit()) raises TableParseError naming it.
    """
    try:
        for r, cells in enumerate(csv.reader(lines), start=r + 1):
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
    """_records over a whole file, which may start with a UTF-8 BOM."""
    with open(path, "rb") as fh:
        yield from _records(_Lines(fh, path, "utf-8-sig"), path, width)


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


def parse_sector_metadata(path) -> list[Sector]:
    """Read the ``code,name`` metadata file; order defines matrix order."""
    rows = _csv_rows(path, 2)
    r, header = next(rows, (1, []))
    if [c.strip() for c in header] != ["code", "name"]:
        raise TableParseError(f"{path}: expected header 'code,name'", row=r)
    sectors = []
    seen = set()
    for r, row in rows:
        code = row[0].strip()
        if code in seen:
            raise TableParseError(f"duplicate sector code {code!r}", row=r)
        seen.add(code)
        sectors.append(Sector(code=code, name=row[1].strip(), index=len(sectors)))
    if not sectors:
        raise TableParseError(f"{path}: no sectors defined")
    return sectors


def parse_satellite_file(path, codes: tuple[str, ...]) -> SatelliteAccount:
    """Read one ``sector,<kind>`` file covering every sector exactly once."""
    rows = _csv_rows(path, 2)
    r, header = next(rows, (1, []))
    if len(header) != 2 or header[0].strip() != "sector":
        raise TableParseError(f"{path}: expected header 'sector,<kind>'", row=r)
    kind = header[1].strip()
    if kind not in SATELLITE_KINDS:
        raise TableParseError(
            f"{path}: unknown satellite kind {kind!r}; expected one of {SATELLITE_KINDS}", row=r
        )
    known = set(codes)
    values = {}
    for r, row in rows:
        code = row[0].strip()
        if code not in known:
            raise TableParseError(f"{path}: unknown sector code {code!r}", row=r)
        if code in values:
            raise TableParseError(f"{path}: duplicate sector {code!r}", row=r)
        values[code] = _cell(row[1], r, 2)
    missing = [c for c in codes if c not in values]
    if missing:
        raise StructuralError(f"{path}: satellite {kind!r} missing sectors {missing}")
    return SatelliteAccount(kind=kind, values=np.array([values[c] for c in codes]))


def parse_io_table(table_file, sector_metadata_file, satellite_files=()) -> IOTable:
    """Parse the table CSV plus metadata and satellite files into an IOTable.

    The table is read in one pass: each row's numeric cells are converted
    at once into a preallocated array holding Z, the final-demand block and
    x, then the trailing rows. A large table is parsed in two processes
    (see _parse_rows), with the same result or the same error as in one.
    The result is structurally checked but not identity-validated; run
    validate_table (after drop_zero_sectors, for real tables) next.
    """
    sectors = parse_sector_metadata(sector_metadata_file)
    codes = tuple(s.code for s in sectors)
    n = len(codes)
    expected_header = ["sector", *codes, *FD_CODES, "total_output"]
    n_rows = 1 + n + len(TRAILING_ROWS)
    # Row i of the table after the header; trailing rows use n cells.
    out = np.empty((n + len(TRAILING_ROWS), len(expected_header) - 1))
    with open(table_file, "rb") as fh:
        lines = _Lines(fh, table_file, "utf-8-sig")
        rows = _records(lines, table_file, len(expected_header))
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
        count = _parse_rows(table_file, fh, lines, rows, codes, out)
    if count != n_rows:
        raise TableParseError(
            f"{table_file}: expected {n_rows} rows "
            f"({n} sectors + trailing {', '.join(TRAILING_ROWS)}), got {count}"
        )

    return IOTable(
        sectors=tuple(sectors),
        Z=out[:n, :n],
        final_demand=FinalDemandBlock(out[:n, n:-1]),
        imports=out[n, :n],
        value_added=out[n + 1, :n],
        satellites=_parse_satellites(satellite_files, codes),
        x=out[:n, -1],
    )


def _fill(rows, codes: tuple[str, ...], out: np.ndarray, first: int, count: int) -> int:
    """Parse table rows into ``out``: row i after the header, a sector row
    or a trailing row, goes to ``out[i - first]``. ``count`` is the number
    of non-blank rows before ``rows``, the header included; returns the
    number after them. Rows past the expected count are only counted."""
    n = len(codes)
    n_rows = 1 + n + len(TRAILING_ROWS)
    for count, (r, row) in enumerate(rows, start=count + 1):
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
            out[i - first] = _row_values(row[1:], r)
            continue
        expected = TRAILING_ROWS[i - n]
        if label != expected:
            raise TableParseError(
                f"expected trailing row {expected!r}, got {label!r}", row=r, column=1
            )
        out[i - first, :n] = _row_values(row[1 : 1 + n], r)
        for c in range(n + 1, len(row)):
            if row[c].strip():
                raise TableParseError(
                    f"trailing row {expected} must leave final-demand cells empty",
                    row=r,
                    column=c + 1,
                )
    return count


# A table file smaller than this is parsed in one process. Forking a worker
# and reaping it costs about 4 ms in a process with numpy loaded, while a
# 0.8 MB table (n = 200) parses in about 43 ms and a 91 KB one (n = 65) in
# 6.5 ms: below 1 MiB the second process would spend most of what it saves.
_SPLIT_BYTES = 1 << 20


def _parse_rows(path, fh, lines: _Lines, rows, codes: tuple[str, ...], out: np.ndarray) -> int:
    """_fill for the rows after the header, in two processes when it pays.

    float() is most of a parse, so on a large table a forked worker parses
    the second part of the file, from the line starting the sector row j
    found by _split_point, into a shared mapping, while this process parses
    the first part. The worker only speeds the parse up: its rows are used
    if it exited with status 0, which it does only when the whole table
    parsed with the right row count, and the first part holds exactly the
    header and j sector rows with every line one CSV record (no ``"``, no
    lone ``\\r``), so that the worker started where a single pass would
    have been. Otherwise this process parses the rest itself, as one pass,
    and that pass names any error with its row and column. So an error in
    the second part of a large table is raised only after this process has
    parsed that part at one-process speed.
    """
    split = _split_point(path, fh, lines.end, codes)
    if split is None:
        return _fill(rows, codes, out, 0, 1)
    offset, j = split
    pid = None
    parent = os.getpid()
    try:
        with mmap.mmap(-1, (len(out) - j) * out.strides[0]) as shared:
            with contextlib.suppress(OSError):  # no process to spare: one pass
                pid = os.fork()
            if pid == 0:
                _worker(path, offset, codes, j, shared)
            if pid is not None:
                lines.stop = offset
            count = _fill(rows, codes, out, 0, 1)
            if lines.end == offset and count == 1 + j:
                _, status = os.waitpid(pid, 0)
                pid = None
                if status == 0:
                    out[j:] = np.frombuffer(shared).reshape(len(out) - j, -1)
                    return 1 + len(out)  # the header and every row of out
    finally:
        if os.getpid() != parent:  # the worker, interrupted before _worker took over
            os._exit(1)
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # The worker's rows are not used: go on from the split, as one pass.
    lines.stop = None
    rows = _records(lines, path, out.shape[1] + 1, lines.lines, header=False)
    return _fill(rows, codes, out, 0, count)


def _split_point(path, fh, start: int, codes: tuple[str, ...]) -> tuple[int, int] | None:
    """Where _parse_rows splits the table, ``(byte offset, j)``, or None for
    one process: the first line at or past the middle of the file (and past
    ``start``) whose label is ``codes[j]`` with 0 < j < n.

    None unless the file is at least _SPLIT_BYTES long, os.fork exists,
    no other thread runs (a forked child would inherit only this one, with
    any lock another thread held still held), and two CPUs are usable.
    """
    size = os.fstat(fh.fileno()).st_size
    if len(codes) < 2 or size < _SPLIT_BYTES:
        return None
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    index = {code: j for j, code in enumerate(codes)}
    with open(path, "rb") as probe:
        probe.seek(max(size // 2, start) - 1)
        probe.readline()  # to the next line start
        offset = probe.tell()
        for line in probe:
            j = index.get(line.split(b",", 1)[0].decode("utf-8", "replace").strip())
            if j:
                return offset, j
            offset += len(line)
    return None


def _worker(path, offset: int, codes: tuple[str, ...], j: int, shared: mmap.mmap):
    """The forked worker of _parse_rows: parse the table from ``offset``,
    sector row j on, into ``shared``. Never returns: it ends the process
    with status 0 if every row parsed and the file holds exactly the header,
    the n sector rows and the trailing rows, and with status 1 otherwise."""
    status = 1
    try:
        out = np.frombuffer(shared).reshape(-1, len(codes) + len(FD_CODES) + 1)
        with open(path, "rb") as fh:
            fh.seek(offset)
            rows = _records(_Lines(fh, path), path, out.shape[1] + 1, header=False)
            if _fill(rows, codes, out, j, 1 + j) == 1 + j + len(out):
                status = 0
    finally:
        os._exit(status)


def _parse_satellites(satellite_files, codes: tuple[str, ...]) -> dict[str, SatelliteAccount]:
    satellites = {}
    for sat_path in satellite_files:
        sat = parse_satellite_file(sat_path, codes)
        if sat.kind in satellites:
            raise StructuralError(f"satellite kind {sat.kind!r} supplied twice")
        satellites[sat.kind] = sat
    return satellites


def load_io_table(table_file, sector_metadata_file, satellite_files=()) -> IOTable:
    """parse_io_table, cached on disk between runs; see load_table_entry."""
    return load_table_entry(table_file, sector_metadata_file, satellite_files)[0]


@dataclass(frozen=True)
class TableEntry:
    """A table's cache entry: its file, which holds the table's parsed
    arrays and, once load_model has built a model from them, ``factors``,
    and the table as parsed, before drop_zero_sectors."""

    path: Path
    table: IOTable


def load_table_entry(
    table_file, sector_metadata_file, satellite_files=()
) -> tuple[IOTable, TableEntry | None]:
    """load_io_table, and the table's cache entry for load_model.

    The entry is named by the sha256 of this module's and leontief.py's
    sources, the numpy version, the metadata file and the table file, so an
    edit to either file, the parse rules or the factorization is a miss. A
    hit reads Z, final demand, x, imports and value added from
    ``<key>.npz``, where load_model keeps the factors of I - A; the
    metadata and satellite files are parsed every time and the table is
    built through IOTable, so it is checked as on a miss. A table that fails
    to parse is not cached; one whose files changed while they were hashed
    and parsed gets no entry (None): a hit whose files changed is parsed
    again as a miss. An entry that cannot be read or holds the wrong
    shapes or a non-finite value is a miss, and is overwritten. A cache
    that cannot be written leaves the run uncached.
    """
    inputs = (sector_metadata_file, table_file)
    stamp = _stamp(inputs)
    key = hashlib.sha256(f"numpy {np.__version__}\n".encode())
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
            },
        )
        if arrays is not None and _stamp(inputs) == stamp:
            table = IOTable(
                sectors=tuple(sectors),
                Z=arrays["Z"],
                final_demand=FinalDemandBlock(arrays["final_demand"]),
                imports=arrays["imports"],
                value_added=arrays["value_added"],
                satellites=_parse_satellites(satellite_files, tuple(s.code for s in sectors)),
                x=arrays["x"],
            )
            return table, TableEntry(path, table)
    table = parse_io_table(table_file, sector_metadata_file, satellite_files)
    if _stamp(inputs) != stamp:  # the parsed bytes are not the hashed bytes
        return table, None
    entry = TableEntry(path, table)
    _write_entry(entry)
    return table, entry


def load_model(table: IOTable, entry: TableEntry | None) -> leontief.LeontiefModel:
    """leontief.build_model, with the factors of I - A kept in the table's
    cache entry between runs.

    ``table`` is the entry's table after drop_zero_sectors, so the factors
    are a function of the entry's parsed arrays. The entry's factors, if it
    holds a finite float64 n x n array, go to build_model, which checks A
    before it uses them and serves them only if they pass its checks. When
    build_model factorized instead, the entry is rewritten with its factors
    and the parsed arrays in memory; a table that fails build_model is never
    cached. Without an entry nothing is cached.
    """
    n = table.n
    arrays = None if entry is None else _read_entry(entry.path, {"factors": (n, n)})
    stored = None if arrays is None else arrays["factors"]
    model = leontief.build_model(table, stored)
    if entry is not None and model.factors is not stored:
        _write_entry(entry, factors=model.factors)
    return model


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


def _write_entry(entry: TableEntry, **factors: np.ndarray) -> None:
    """Store the entry's parsed arrays and ``factors``, if given, atomically,
    then keep the CACHE_ENTRIES most recently used entries. A cache that
    cannot be written is left as it is."""
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
                    **factors,
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


def _quoted(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table_files(table: IOTable, out_dir) -> dict:
    """Write a table back to the canonical file layout.

    Emits ``table.csv``, ``sectors.csv``, and one ``satellite_<kind>.csv``
    per account; values use shortest round-trip formatting so a parse of the
    output reproduces the table exactly. Returns the paths written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = table.codes
    n = table.n
    blank = [""] * (len(FD_CODES) + 1)

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
        ("TOTAL_USES", table.Z.sum(axis=0) + table.imports + table.value_added),
    ):
        lines.append(",".join([label, *[_num(v) for v in values], *blank]))
    table_path = out_dir / "table.csv"
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta_path = out_dir / "sectors.csv"
    meta_lines = ["code,name"] + [f"{s.code},{_quoted(s.name)}" for s in table.sectors]
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


def parse_scenario(scenario_file) -> ScenarioSpec:
    """Parse and validate a scenario JSON file.

    Schema::

        {
          "name": str,
          "target_sector": str,
          "sub_service_drop": float in [0, 1],
          "component_ratios": {"HH"|...|"EXP": float in [0, 1]},
          "absolute_changes": {component: signed amount},      # optional
          "reallocation": {"savings_fraction": float,
                           "shares": {sector_code: float}},    # optional
          "intermediate": {"apply": bool,
                           "use_ratios": {sector_code: float},
                           "default_ratio": float},            # optional
          "blowup_factor": finite float > 0                    # optional
        }

    An empty or missing reallocation block means the savings-only scenario.
    Values must have their JSON types (float() would also take a numeric
    string or a boolean), and no block may hold an unknown key.
    """
    path = Path(scenario_file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioConfigError(f"{path}: top level must be an object")

    def mapping(block, what: str, known=None) -> dict:
        if not isinstance(block, dict):
            raise ScenarioConfigError(f"{what} must be an object, got {block!r:.40}")
        unknown = set(block) - set(block if known is None else known)
        if unknown:
            raise ScenarioConfigError(f"{what} has unknown fields {sorted(unknown)}")
        return block

    def number(value, what: str):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioConfigError(f"{what} must be a number, got {value!r}")
        return value

    def numbers(parent: dict, key: str, each: str, what=None) -> dict:
        block = mapping(parent.get(key, {}), what or key)
        return {k: number(v, f"{each} {k!r}") for k, v in block.items()}

    # Every error from here on, the spec classes' value checks included,
    # names the file.
    try:
        top_level = ("name", "target_sector", "sub_service_drop", "component_ratios",
                     "absolute_changes", "reallocation", "intermediate", "blowup_factor")
        mapping(raw, "scenario", top_level)
        for required in ("name", "target_sector", "sub_service_drop"):
            if required not in raw:
                raise ScenarioConfigError(f"missing required field {required!r}")
        for key in ("name", "target_sector"):
            if not isinstance(raw[key], str):
                raise ScenarioConfigError(f"{key} must be a string, got {raw[key]!r}")

        realloc = None
        block = mapping(raw.get("reallocation", {}), "reallocation", ("savings_fraction", "shares"))
        if block:
            if "savings_fraction" not in block:
                raise ScenarioConfigError("reallocation needs savings_fraction")
            realloc = Reallocation(
                savings_fraction=number(block["savings_fraction"], "savings_fraction"),
                shares=numbers(block, "shares", "reallocation share for", "reallocation shares"),
            )

        intermediate = None
        known = ("apply", "use_ratios", "default_ratio")
        block = mapping(raw.get("intermediate", {}), "intermediate", known)
        if block:
            if not isinstance(apply := block.get("apply", True), bool):
                raise ScenarioConfigError(f"intermediate apply must be a boolean, got {apply!r}")
            intermediate = IntermediateSpec(
                apply=apply,
                use_ratios=UseRatio(
                    ratios=numbers(block, "use_ratios", "use ratio for", "intermediate use_ratios"),
                    default=number(block.get("default_ratio", 1.0), "default use ratio"),
                ),
            )

        return ScenarioSpec(
            name=raw["name"],
            target_sector=raw["target_sector"],
            sub_service_drop=number(raw["sub_service_drop"], "sub_service_drop"),
            component_ratios=numbers(raw, "component_ratios", "component ratio for"),
            absolute_changes=numbers(raw, "absolute_changes", "absolute change for"),
            reallocation=realloc,
            intermediate=intermediate,
            blowup_factor=number(raw.get("blowup_factor", 1.0), "blowup_factor"),
        )
    except ScenarioConfigError as exc:
        raise ScenarioConfigError(f"{path}: {exc}") from exc


def parse_blowup_history(fd_file, gdp_file) -> tuple[dict[int, float], dict[int, float]]:
    """Read ``year,total_final_demand`` and ``year,gdp_growth`` CSVs."""

    def read(path, value_name):
        rows = _csv_rows(path, 2)
        r, header = next(rows, (1, []))
        if len(header) != 2 or header[0].strip() != "year":
            raise TableParseError(f"{path}: expected header 'year,{value_name}'", row=r)
        out = {}
        for r, row in rows:
            try:
                year = int(row[0])
            except ValueError:
                raise TableParseError(f"malformed year {row[0]!r}", row=r, column=1) from None
            if year in out:
                raise TableParseError(f"{path}: duplicate year {year}", row=r, column=1)
            out[year] = _cell(row[1], r, 2)
        return out

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
