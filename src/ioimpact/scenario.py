"""Declarative demand shocks turned into concrete final-demand deltas.

A scenario names a target sector and the fraction by which demand for its
shocked sub-service falls, with per-component passenger shares deciding how
much of each final-demand component is exposed. The savings variant removes
all freed spending from the economy; the reallocation variant returns part
of the freed *consumption* spending to named sectors. build_delta is the one
entry point for both; a spec's reallocation block selects the variant. Use
ratios translate the same shock into per-purchaser extraction intensities
for the intermediate-demand side, which the DemandDelta carries as alpha
and checks when it is built.

Each spec class checks every value it holds when it is built, so a spec
built in Python obeys the rules a scenario file does (parse_scenario, which
reads scenario files, checks only their layout): a number is a real number,
not a bool or a string; fractions lie in [0, 1]; names are strings, apply is
a bool, each mapping is a Mapping and each block is an instance of its class;
and no final-demand component is named twice. A spec stores each mapping
read-only (a MappingProxyType), so it cannot be changed past these checks;
dataclasses.replace builds a new spec and checks it again.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from json.decoder import JSONObject
from json.scanner import py_make_scanner
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ScenarioConfigError
from .table import FD_CODE_TO_COMPONENT, FD_COMPONENTS, IOTable, _readonly

# Components whose drop counts as final consumption: only these feed the
# reallocation pool. Exports are spent abroad and capital formation does not
# reallocate on shock timescales.
CONSUMPTION_COMPONENTS = (
    "household_consumption",
    "npish_consumption",
    "government_consumption",
)

# Defaults for components without ratio data: consumption-like demand is
# treated as entirely for the shocked sub-service, capital-formation-like
# demand as entirely unaffected.
DEFAULT_COMPONENT_RATIOS = {
    "household_consumption": 1.0,
    "npish_consumption": 1.0,
    "government_consumption": 1.0,
    "exports": 1.0,
    "gross_fixed_capital_formation": 0.0,
    "inventory_changes": 0.0,
}

SHARE_SUM_TOL = 1e-9


def _number(value, what: str) -> float:
    """A real number as a float. A bool (Python or numpy), a string and an
    integer beyond the float range are refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ScenarioConfigError(f"{what} must be a number, got {value!r}")


def _check_fraction(value, what: str) -> float:
    value = _number(value, what)
    if not 0.0 <= value <= 1.0:
        raise ScenarioConfigError(f"{what} must lie in [0, 1], got {value}")
    return value


def _finite(value, what: str) -> float:
    value = _number(value, what)
    if not math.isfinite(value):
        raise ScenarioConfigError(f"{what} must be finite, got {value}")
    return value


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioConfigError(f"{what} must be an object, got {value!r:.40}")
    return value


def _instance(value, cls, what: str) -> None:
    if not isinstance(value, cls):
        raise ScenarioConfigError(f"{what} must be of class {cls.__name__}, got {value!r:.40}")


def _fractions(block, what: str, each: str) -> Mapping[str, float]:
    return MappingProxyType({key: _check_fraction(v, f"{each} {key!r}")
                             for key, v in _mapping(block, what).items()})


def _components(block, what: str, each: str, check) -> Mapping[str, float]:
    """A final-demand block keyed by full component name, read-only. A key is
    a short code or a full name, and one component may not be named by both."""
    normalized, seen = {}, {}
    for key, value in _mapping(block, what).items():
        comp = FD_CODE_TO_COMPONENT.get(key, key)
        if comp not in FD_COMPONENTS:
            raise ScenarioConfigError(f"unknown final-demand component {key!r}")
        if comp in seen:
            raise ScenarioConfigError(f"{what} names {comp} twice, as {seen[comp]!r} and {key!r}")
        seen[comp] = key
        normalized[comp] = check(value, f"{each} {key!r}")
    return MappingProxyType(normalized)


@dataclass(frozen=True)
class UseRatio:
    """Per-sector share of purchases from the target attributable to the
    shocked sub-service, read-only; extraction_intensities gives sectors
    without a ratio the default."""

    ratios: Mapping[str, float] = field(default_factory=dict)
    default: float = 1.0

    def __post_init__(self):
        ratios = _fractions(self.ratios, "intermediate use_ratios", "use ratio for")
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "default", _check_fraction(self.default, "default use ratio"))


@dataclass(frozen=True)
class IntermediateSpec:
    """Whether and how the shock extends to interindustry purchases."""

    apply: bool
    use_ratios: UseRatio = field(default_factory=UseRatio)

    def __post_init__(self):
        _instance(self.use_ratios, UseRatio, "intermediate use_ratios")
        if not isinstance(self.apply, bool):
            raise ScenarioConfigError(f"intermediate apply must be a boolean, got {self.apply!r}")


@dataclass(frozen=True)
class Reallocation:
    """How freed consumer spending is returned to the economy.

    The non-saved share of the consumption drop is distributed to the named
    sectors; shares must sum to one.
    """

    savings_fraction: float
    shares: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        fraction = _check_fraction(self.savings_fraction, "savings_fraction")
        object.__setattr__(self, "savings_fraction", fraction)
        shares = _fractions(self.shares, "reallocation shares", "reallocation share for")
        object.__setattr__(self, "shares", shares)
        total = sum(shares.values())
        if shares and abs(total - 1.0) > SHARE_SUM_TOL:
            raise ScenarioConfigError(f"reallocation shares must sum to 1, got {total!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative demand shock.

    sub_service_drop is the fraction by which demand for the shocked
    sub-service falls; component_ratios give the sub-service share of each
    final-demand component (short codes or full names, not both for one
    component). absolute_changes, if given, override the percentage rule for
    those components with finite signed currency amounts. blowup_factor
    must be finite and positive.
    """

    name: str
    target_sector: str
    sub_service_drop: float
    component_ratios: Mapping[str, float] = field(default_factory=dict)
    absolute_changes: Mapping[str, float] = field(default_factory=dict)
    reallocation: Reallocation | None = None
    intermediate: IntermediateSpec | None = None
    blowup_factor: float = 1.0

    def __post_init__(self):
        for key, cls in (("reallocation", Reallocation), ("intermediate", IntermediateSpec)):
            if (value := getattr(self, key)) is not None:
                _instance(value, cls, key)
        for key in ("name", "target_sector"):
            if not isinstance(value := getattr(self, key), str):
                raise ScenarioConfigError(f"{key} must be a string, got {value!r}")
        drop = _check_fraction(self.sub_service_drop, "sub_service_drop")
        object.__setattr__(self, "sub_service_drop", drop)
        for key, each, check in (("component_ratios", "component ratio for", _check_fraction),
                                 ("absolute_changes", "absolute change for", _finite)):
            object.__setattr__(self, key, _components(getattr(self, key), key, each, check))
        blowup = _number(self.blowup_factor, "blowup_factor")
        if not (math.isfinite(blowup) and blowup > 0):
            raise ScenarioConfigError(
                f"blowup_factor must be finite and positive, got {self.blowup_factor}"
            )
        object.__setattr__(self, "blowup_factor", blowup)

    def component_ratio(self, component: str) -> float:
        return self.component_ratios.get(component, DEFAULT_COMPONENT_RATIOS[component])


def unique_keys(pairs) -> dict:
    """A JSON object's members, as the ``object_pairs_hook`` of json.loads:
    a repeated key raises ValueError, where json.loads keeps the last."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"repeated key {key!r}")
        members[key] = value
    return members


def _repeat_start(text: str) -> int | None:
    """Where the first object of ``text`` that repeats a key begins, the
    index of its "{", or None if none does: a second parse, by the
    pure-Python scanner, whose parse_object is given that index."""
    starts = []

    def parse_object(s_and_end, strict, scan_once, *_):
        pairs, end = JSONObject(s_and_end, strict, scan_once, None, list)
        try:
            return unique_keys(pairs), end
        except ValueError:
            starts.append(s_and_end[1] - 1)
            raise

    decoder = json.JSONDecoder()
    decoder.parse_object = parse_object
    decoder.scan_once = py_make_scanner(decoder)
    with contextlib.suppress(ValueError):
        decoder.decode(text)
    return starts[0] if starts else None


def read_json(path):
    """The document of a JSON input, scenario or result: UTF-8, a leading
    byte-order mark dropped, no key repeated in an object. A syntax error's
    line counts \\n, \\r\\n and lone \\r, as for CSV inputs (JSON allows
    them only between tokens), and so does the line of the object that
    repeats a key, found by a second parse on that error only. Each fault
    raises ValueError without the path."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # a repeated key, or an integer too long to read
        if (at := _repeat_start(text)) is None:
            raise
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise ValueError(f"{exc} in the object at line {line}, column {column}") from None


def _layout(block, what: str, known) -> dict:
    """block as an object that holds only known keys."""
    unknown = set(_mapping(block, what)) - set(known)
    if unknown:
        raise ScenarioConfigError(f"{what} has unknown fields {sorted(unknown)}")
    return block


def _keys(cls) -> tuple[list[str], list[str]]:
    """The names of a spec class's fields, and of those without a default."""
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return names, required


def parse_scenario(scenario_file) -> ScenarioSpec:
    """Parse a scenario JSON file into a ScenarioSpec; README "Scenario
    files" gives the layout.

    This checks the document's layout: the rules of every JSON input
    (read_json), no unknown key at the top level or in a block, the
    required fields, and blocks that are objects. The top-level keys are
    the fields of ScenarioSpec and the reallocation block's those of
    Reallocation; the intermediate block is a flattened view of
    IntermediateSpec and its UseRatio. An empty or missing reallocation
    block means the savings-only scenario. The spec classes
    check every value, by the rules that hold for a spec built in Python.
    Each error names the file.
    """
    path = Path(scenario_file)
    try:
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ScenarioConfigError("top level must be an object")
        known, required = _keys(ScenarioSpec)
        _layout(raw, "scenario", known)
        for key in required:
            if key not in raw:
                raise ScenarioConfigError(f"missing required field {key!r}")
        known, required = _keys(Reallocation)
        realloc = _layout(raw.pop("reallocation", {}), "reallocation", known)
        for key in required:
            if realloc and key not in realloc:
                raise ScenarioConfigError(f"reallocation needs {key}")
        known = ("apply", "use_ratios", "default_ratio")
        inter = _layout(raw.pop("intermediate", {}), "intermediate", known)
        return ScenarioSpec(
            **raw,
            reallocation=Reallocation(**realloc) if realloc else None,
            intermediate=IntermediateSpec(
                inter.get("apply", True),
                UseRatio(inter.get("use_ratios", {}), inter.get("default_ratio", UseRatio.default)),
            ) if inter else None,
        )
    except (ScenarioConfigError, ValueError) as exc:  # read_json, or json.loads: long int
        raise ScenarioConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class DemandDelta:
    """A scenario's shock: a per-sector final-demand change ``delta``
    (losses negative), the gains ``reallocated`` to each named sector, and,
    for partial extraction, the per-purchaser intensities ``alpha``, zero
    unless given. Its arrays are read-only float64 copies and its mapping
    read-only. Building a shock is alpha's one check: ValueError unless it
    has delta's shape and every value lies in [0, 1]."""

    scenario: str
    target: str
    delta: np.ndarray
    reallocated: Mapping[str, float] = field(default_factory=dict)
    alpha: np.ndarray | None = None

    def __post_init__(self):
        delta = _readonly(self.delta)
        alpha = _readonly(np.zeros(delta.shape) if self.alpha is None else self.alpha)
        if alpha.shape != delta.shape:
            raise ValueError(f"alpha has shape {alpha.shape}, not {delta.shape}: "
                             "one value per sector, as in delta")
        if not np.all((alpha >= 0) & (alpha <= 1)):  # NaN fails this test too
            raise ValueError("extraction intensities must lie in [0, 1]")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "reallocated", MappingProxyType(dict(self.reallocated)))


def build_delta(table: IOTable, spec: ScenarioSpec) -> DemandDelta:
    """A scenario's shock: its final-demand change, for both variants, the
    gains it reallocates, and its extraction intensities
    (extraction_intensities).

    The target's change is the sum over components of
    -(component value) x (component ratio) x (sub-service drop). Without a
    reallocation block (the savings variant) every other sector is
    untouched. With one, the non-saved share of the *consumption* drop is
    returned to the named sectors, distributed exactly by the configured
    shares; export and capital-formation losses never reallocate, and
    savings_fraction = 1 returns nothing. A change that overflows float64
    raises ScenarioConfigError naming the scenario and the sector; a
    sector code the table lacks, KeyError.
    """
    k = table.sector_index(spec.target_sector)
    changes = {}
    for comp in FD_COMPONENTS:
        if comp in spec.absolute_changes:
            changes[comp] = spec.absolute_changes[comp]
        else:
            changes[comp] = (
                -float(table.final_demand.component(comp)[k])
                * spec.component_ratio(comp)
                * spec.sub_service_drop
            )
    delta = np.zeros(table.n)
    delta[k] = sum(changes.values())

    gains: dict[str, float] = {}
    realloc = spec.reallocation
    if realloc is not None:
        consumption_drop = sum(changes[c] for c in CONSUMPTION_COMPONENTS)
        pool = (1.0 - realloc.savings_fraction) * max(0.0, -consumption_drop)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for code, share in realloc.shares.items():
                j = table.sector_index(code)
                gain = share * pool
                delta[j] += gain
                gains[code] = gain
    if not np.isfinite(delta).all():
        j = int(np.argmax(~np.isfinite(delta)))
        raise ScenarioConfigError(
            f"scenario {spec.name!r}: the demand change is {delta[j]} at sector "
            f"{table.codes[j]}; it must be finite"
        )
    return DemandDelta(spec.name, spec.target_sector, delta, gains,
                       extraction_intensities(table, spec))


def extraction_intensities(table: IOTable, spec: ScenarioSpec) -> np.ndarray:
    """Per-purchaser extraction intensities alpha_j = r_j x sub_service_drop.

    r_j is sector j's use ratio for the shocked sub-service. Without an
    intermediate block (or with apply=False) the intensities are zero and
    interindustry demand is untouched.
    """
    if spec.intermediate is None or not spec.intermediate.apply:
        return np.zeros(table.n)
    ratios = spec.intermediate.use_ratios
    r = np.full(table.n, ratios.default)
    for code, ratio in ratios.ratios.items():
        r[table.sector_index(code)] = ratio  # unknown codes fail loudly
    return r * spec.sub_service_drop
