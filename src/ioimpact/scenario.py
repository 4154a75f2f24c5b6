"""Declarative demand shocks turned into concrete final-demand deltas.

A scenario names a target sector and the fraction by which demand for its
shocked sub-service falls, with per-component passenger shares deciding how
much of each final-demand component is exposed. The savings variant removes
all freed spending from the economy; the reallocation variant returns part
of the freed *consumption* spending to named sectors. build_delta is the one
entry point for both; a spec's reallocation block selects the variant. Use
ratios translate the same shock into per-purchaser extraction intensities
for the intermediate-demand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioConfigError
from .table import FD_CODE_TO_COMPONENT, FD_COMPONENTS, IOTable

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
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioConfigError(f"{what} must be a number, got {value!r}") from None


def _check_fraction(value, what: str) -> float:
    value = _number(value, what)
    if not 0.0 <= value <= 1.0:
        raise ScenarioConfigError(f"{what} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class UseRatio:
    """Per-sector share of purchases from the target attributable to the
    shocked sub-service; sectors without data use the default."""

    ratios: dict[str, float] = field(default_factory=dict)
    default: float = 1.0

    def __post_init__(self):
        ratios = {
            code: _check_fraction(r, f"use ratio for {code!r}") for code, r in self.ratios.items()
        }
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "default", _check_fraction(self.default, "default use ratio"))

    def get(self, code: str) -> float:
        return self.ratios.get(code, self.default)


@dataclass(frozen=True)
class IntermediateSpec:
    """Whether and how the shock extends to interindustry purchases."""

    apply: bool
    use_ratios: UseRatio = field(default_factory=UseRatio)


@dataclass(frozen=True)
class Reallocation:
    """How freed consumer spending is returned to the economy.

    The non-saved share of the consumption drop is distributed to the named
    sectors; shares must sum to one.
    """

    savings_fraction: float
    shares: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        fraction = _check_fraction(self.savings_fraction, "savings_fraction")
        object.__setattr__(self, "savings_fraction", fraction)
        shares = {
            code: _check_fraction(s, f"reallocation share for {code!r}")
            for code, s in self.shares.items()
        }
        object.__setattr__(self, "shares", shares)
        total = sum(shares.values())
        if self.shares and abs(total - 1.0) > SHARE_SUM_TOL:
            raise ScenarioConfigError(f"reallocation shares must sum to 1, got {total!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative demand shock.

    sub_service_drop is the fraction by which demand for the shocked
    sub-service falls; component_ratios give the sub-service share of each
    final-demand component (short codes or full names). absolute_changes, if
    given, override the percentage rule for those components with signed
    currency amounts. blowup_factor must be finite and positive.
    """

    name: str
    target_sector: str
    sub_service_drop: float
    component_ratios: dict[str, float] = field(default_factory=dict)
    absolute_changes: dict[str, float] = field(default_factory=dict)
    reallocation: Reallocation | None = None
    intermediate: IntermediateSpec | None = None
    blowup_factor: float = 1.0

    def __post_init__(self):
        drop = _check_fraction(self.sub_service_drop, "sub_service_drop")
        object.__setattr__(self, "sub_service_drop", drop)
        normalized = {}
        for key, ratio in self.component_ratios.items():
            comp = FD_CODE_TO_COMPONENT.get(key, key)
            if comp not in FD_COMPONENTS:
                raise ScenarioConfigError(f"unknown final-demand component {key!r}")
            normalized[comp] = _check_fraction(ratio, f"component ratio for {key!r}")
        object.__setattr__(self, "component_ratios", normalized)
        absolute = {}
        for key, amount in self.absolute_changes.items():
            comp = FD_CODE_TO_COMPONENT.get(key, key)
            if comp not in FD_COMPONENTS:
                raise ScenarioConfigError(f"unknown final-demand component {key!r}")
            amount = _number(amount, f"absolute change for {key!r}")
            if not math.isfinite(amount):
                raise ScenarioConfigError(
                    f"absolute change for {key!r} must be finite, got {amount}"
                )
            absolute[comp] = amount
        object.__setattr__(self, "absolute_changes", absolute)
        blowup = _number(self.blowup_factor, "blowup_factor")
        if not (math.isfinite(blowup) and blowup > 0):
            raise ScenarioConfigError(
                f"blowup_factor must be finite and positive, got {self.blowup_factor}"
            )
        object.__setattr__(self, "blowup_factor", blowup)

    def component_ratio(self, component: str) -> float:
        return self.component_ratios.get(component, DEFAULT_COMPONENT_RATIOS[component])


@dataclass(frozen=True)
class DemandDelta:
    """A concrete per-sector final-demand change (losses negative)."""

    scenario: str
    target: str
    delta: np.ndarray
    component_changes: dict[str, float]
    total_drop_fraction: float
    reallocated: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)


def build_delta(table: IOTable, spec: ScenarioSpec) -> DemandDelta:
    """The final-demand change of a scenario, for both variants.

    The target's change is the sum over components of
    -(component value) x (component ratio) x (sub-service drop). Without a
    reallocation block (the savings variant) every other sector is
    untouched. With one, the non-saved share of the *consumption* drop is
    returned to the named sectors, distributed exactly by the configured
    shares; export and capital-formation losses never reallocate, and
    savings_fraction = 1 returns nothing.
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
        for code, share in realloc.shares.items():
            j = table.sector_index(code)
            gain = share * pool
            delta[j] += gain
            gains[code] = gain

    f_total = float(table.f[k])
    fraction = float(delta[k]) / f_total if f_total != 0 else 0.0
    return DemandDelta(
        scenario=spec.name,
        target=spec.target_sector,
        delta=delta,
        component_changes=changes,
        total_drop_fraction=fraction,
        reallocated=gains,
    )


def extraction_intensities(table: IOTable, spec: ScenarioSpec) -> np.ndarray:
    """Per-purchaser extraction intensities alpha_j = r_j x sub_service_drop.

    r_j is sector j's use ratio for the shocked sub-service. Without an
    intermediate block (or with apply=False) the intensities are zero and
    interindustry demand is untouched.
    """
    if spec.intermediate is None or not spec.intermediate.apply:
        return np.zeros(table.n)
    ratios = spec.intermediate.use_ratios
    for code in ratios.ratios:
        table.sector_index(code)  # unknown codes fail loudly
    alpha = spec.sub_service_drop
    return np.array([ratios.get(code) * alpha for code in table.codes])
