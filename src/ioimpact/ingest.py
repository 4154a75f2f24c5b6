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
the file coordinates is raised. Numeric cells must be finite.

load_io_table is parse_io_table memoised on disk: a parsed table is stored
under ``$XDG_CACHE_HOME/ioimpact`` (default ``~/.cache/ioimpact``), keyed by
the sha256 of the table file, the metadata file and this module's source.
load_model does the same for the block LDU factors of I - A, which it keeps
in the ``models`` directory beside the tables. Its factors come either from
leontief.ldu_factors or from the entry that an earlier run wrote for the
same A, checked against A before use; only factors that certify A as
productive are served or cached.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from . import leontief
from .errors import ScenarioConfigError, StructuralError, TableParseError
from .impact import FIXED_POINT_TOL, fixed_point_gap
from .leontief import LeontiefModel, check_coefficients, ldu_factors, technical_coefficients
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

# Entries of each kind kept in the cache, parsed tables and model factors
# alike; each write drops the least recently used entry of its own kind.
CACHE_ENTRIES = 8
# What np.load raises on a damaged archive; any of them makes the entry a miss.
_DAMAGED_ENTRY = (OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile)


def _csv_rows(path, width: int):
    """Yield ``(1-based row number, cells)`` for each non-blank CSV row.

    The caller checks the first row, the header; every later row must have
    ``width`` cells. A row of another width, one csv cannot read (such as
    a cell over csv.field_size_limit()) or one that is not valid UTF-8
    raises TableParseError naming it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        r = 0
        header = True
        try:
            for r, cells in enumerate(csv.reader(fh), start=1):
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
        except UnicodeDecodeError as exc:
            raise TableParseError(
                f"{path}: not valid UTF-8 ({exc.reason})", row=_undecodable_line(path)
            ) from None


def _undecodable_line(path) -> int | None:
    """1-based number of the first line that is not valid UTF-8.

    The text decoder works on blocks, so its error does not say which row
    held the bad byte; a newline byte never occurs inside a UTF-8 sequence.
    """
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


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
    at once into a preallocated ``n x (n+7)`` body holding Z, the
    final-demand block and x. The result is structurally checked but not
    identity-validated; run validate_table (after drop_zero_sectors, for
    real tables) next.
    """
    sectors = parse_sector_metadata(sector_metadata_file)
    codes = tuple(s.code for s in sectors)
    n = len(codes)
    expected_header = ["sector", *codes, *FD_CODES, "total_output"]
    width = len(expected_header)
    n_rows = 1 + n + len(TRAILING_ROWS)
    body = np.empty((n, width - 1))
    trailing = {}
    rows = _csv_rows(table_file, width)
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
    count = 1
    for count, (r, row) in enumerate(rows, start=2):
        if count > n_rows:
            continue  # only counted, for the row-count check below
        i = count - 2
        label = row[0].strip()
        if i < n:
            if label != codes[i]:
                raise TableParseError(
                    f"expected sector {codes[i]!r} per metadata order, got {label!r}",
                    row=r,
                    column=1,
                )
            body[i] = _row_values(row[1:], r)
            continue
        expected = TRAILING_ROWS[i - n]
        if label != expected:
            raise TableParseError(
                f"expected trailing row {expected!r}, got {label!r}", row=r, column=1
            )
        trailing[expected] = _row_values(row[1 : 1 + n], r)
        for c in range(n + 1, width):
            if row[c].strip():
                raise TableParseError(
                    f"trailing row {expected} must leave final-demand cells empty",
                    row=r,
                    column=c + 1,
                )
    if count != n_rows:
        raise TableParseError(
            f"{table_file}: expected {n_rows} rows "
            f"({n} sectors + trailing {', '.join(TRAILING_ROWS)}), got {count}"
        )

    return IOTable(
        sectors=tuple(sectors),
        Z=body[:, :n],
        final_demand=FinalDemandBlock(body[:, n:-1]),
        imports=trailing["IMPORTS"],
        value_added=trailing["VALUE_ADDED"],
        satellites=_parse_satellites(satellite_files, codes),
        x=body[:, -1],
    )


def _parse_satellites(satellite_files, codes: tuple[str, ...]) -> dict[str, SatelliteAccount]:
    satellites = {}
    for sat_path in satellite_files:
        sat = parse_satellite_file(sat_path, codes)
        if sat.kind in satellites:
            raise StructuralError(f"satellite kind {sat.kind!r} supplied twice")
        satellites[sat.kind] = sat
    return satellites


def load_io_table(table_file, sector_metadata_file, satellite_files=()) -> IOTable:
    """parse_io_table, with the parsed table cached on disk between runs.

    The cache key is the sha256 of the table file, the metadata file and
    this module's source, so an edit to either file or to the parse rules
    is a miss. A hit reads Z, final demand, x, imports and value added from
    ``<key>.npz``; the metadata and satellite files are parsed every time
    and the table is built through IOTable, so it is checked as on a miss.
    A table that fails to parse is not cached. An entry that cannot be read
    or holds the wrong shapes or a non-finite value is a miss, and is
    overwritten. A cache that cannot be written leaves the run uncached.
    """
    sectors = parse_sector_metadata(sector_metadata_file)
    n = len(sectors)
    inputs = (sector_metadata_file, table_file)
    stamp = _stamp(inputs)
    key = hashlib.sha256(_source_digest(__file__))
    for path in inputs:
        key.update(_file_digest(path))
    entry = _cache_dir() / f"{key.hexdigest()}.npz"
    arrays = _read_entry(
        entry,
        {
            "Z": (n, n),
            "final_demand": (n, len(FD_CODES)),
            "x": (n,),
            "imports": (n,),
            "value_added": (n,),
        },
    )
    if arrays is None:
        table = parse_io_table(table_file, sector_metadata_file, satellite_files)
        if _stamp(inputs) == stamp:  # the parsed bytes are the hashed bytes
            _write_entry(
                entry,
                Z=table.Z,
                final_demand=table.final_demand.values,
                x=table.x,
                imports=table.imports,
                value_added=table.value_added,
            )
        return table
    return IOTable(
        sectors=tuple(sectors),
        Z=arrays["Z"],
        final_demand=FinalDemandBlock(arrays["final_demand"]),
        imports=arrays["imports"],
        value_added=arrays["value_added"],
        satellites=_parse_satellites(satellite_files, tuple(s.code for s in sectors)),
        x=arrays["x"],
    )


def load_model(table: IOTable) -> LeontiefModel:
    """leontief.build_model, with the factors of I - A cached on disk between runs.

    check_coefficients runs first, on a hit as on a miss, so a cached entry
    never lets a negative or NaN A through. The cache key is the sha256 of
    leontief.py's source, the numpy version, n and the bytes of A, which is
    everything the factorization reads: an edited flow, a dropped sector or a
    new factorization rule is a miss. A hit reads the factors from
    ``models/<key>.npz`` and serves them only if they are a finite float64
    n x n array that solves (I - A) x = f to within FIXED_POINT_TOL, the
    residual inoperability demands of every solve; any other entry is a miss
    and is overwritten. certify_productive runs after the residual check on
    a hit and before the write on a miss, so a non-productive A fails alike
    on both and is never cached. A cache that cannot be written leaves the
    run uncached.
    """
    coeffs = technical_coefficients(table)
    check_coefficients(coeffs)
    A = np.ascontiguousarray(coeffs.A, dtype=np.float64)
    n = table.n
    key = hashlib.sha256(_source_digest(leontief.__file__))
    key.update(f"numpy {np.__version__}, n = {n}\n".encode())
    key.update(A)
    entry = _cache_dir() / "models" / f"{key.hexdigest()}.npz"
    arrays = _read_entry(entry, {"factors": (n, n)})
    if arrays is not None:
        factors = arrays["factors"]
        factors.setflags(write=False)
        model = LeontiefModel(table=table, coeffs=coeffs, factors=factors)
        if fixed_point_gap(model, model.solve(table.f), table.f) <= FIXED_POINT_TOL:
            leontief.certify_productive(model)
            return model
    model = LeontiefModel(table=table, coeffs=coeffs, factors=ldu_factors(A))
    leontief.certify_productive(model)
    _write_entry(entry, factors=model.factors)
    return model


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = Path.home() / ".cache"
    return Path(base) / "ioimpact"


def _stamp(paths) -> list[tuple[int, int, int]]:
    return [(st.st_ino, st.st_size, st.st_mtime_ns) for st in map(os.stat, paths)]


def _source_digest(module_file) -> bytes:
    return hashlib.sha256(Path(module_file).read_bytes()).digest()


def _file_digest(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def _read_entry(path: Path, shapes: dict[str, tuple]) -> dict[str, np.ndarray] | None:
    """The arrays of a cache entry, one per name in ``shapes``, or None if the
    entry is missing or unusable: unreadable, or with an array that is not
    finite float64 of its shape. A usable entry is marked as just used."""
    try:
        entry = np.load(path, allow_pickle=False)
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
    with contextlib.suppress(OSError):
        os.utime(path)
    return arrays


def _write_entry(path: Path, **arrays: np.ndarray) -> None:
    """Store the arrays atomically, then keep the CACHE_ENTRIES most recently
    used entries of the directory, which holds entries of one kind only. A
    cache that cannot be written is left as it is."""
    with contextlib.suppress(OSError):
        _cache_dir().mkdir(mode=0o700, parents=True, exist_ok=True)
        path.parent.mkdir(mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        entries = sorted(
            ((p.stat().st_mtime_ns, p.name, p) for p in path.parent.glob("*.npz")), reverse=True
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
            out[year] = _cell(row[1], r, 2)
        return out

    return read(fd_file, "total_final_demand"), read(gdp_file, "gdp_growth")


def disaggregate_aggregate(total: float, weights, integral: bool = False) -> np.ndarray:
    """Split an aggregate across sectors proportionally to weights.

    With integral=True (headcounts) a largest-remainder correction keeps the
    parts summing to the whole; ties go to the lower index.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("weights must not all be zero")
    shares = total * w / wsum
    if not integral:
        return shares
    whole = round(total)
    if abs(total - whole) > 1e-9:
        raise ValueError(f"integral split needs an integral total, got {total!r}")
    floors = np.floor(shares).astype(int)
    remainder = int(whole - floors.sum())
    order = sorted(range(len(w)), key=lambda i: (-(shares[i] - floors[i]), i))
    out = floors.astype(float)
    for i in order[:remainder]:
        out[i] += 1
    return out
