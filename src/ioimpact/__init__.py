"""Leontief input-output engine for demand-shock impact analysis.

Ingests industry-by-industry IO tables with satellite accounts, derives
technical coefficients, the Leontief inverse, and multipliers, and
quantifies demand shocks through normalized-output (inoperability) analysis
and partial hypothetical extraction under configurable demand scenarios.
"""

from .errors import (
    EmptyEconomyError,
    InternalConsistencyError,
    IOModelError,
    NonProductiveEconomyError,
    ScenarioConfigError,
    StructuralError,
    TableParseError,
)
from .impact import (
    ComparisonReport,
    ExtractionSpec,
    ImpactResult,
    apply_blowup,
    compare_methods,
    estimate_blowup_factor,
    full_extraction,
    inoperability,
    make_extraction_spec,
    partial_extraction,
    satellite_deltas,
)
from .ingest import (
    disaggregate_aggregate,
    load_io_table,
    parse_io_table,
    parse_scenario,
    write_table_files,
)
from .leontief import (
    LeontiefModel,
    TechnicalCoefficients,
    build_model,
    downstream_importance,
    import_share,
    input_recipe,
    leontief_inverse,
    output_multipliers,
    satellite_multipliers,
    technical_coefficients,
)
from .scenario import (
    DemandDelta,
    IntermediateSpec,
    Reallocation,
    ScenarioSpec,
    UseRatio,
    build_delta,
    build_scenario1,
    build_scenario2,
    extraction_intensities,
)
from .table import (
    FinalDemandBlock,
    IOTable,
    SatelliteAccount,
    Sector,
    ValidationReport,
    drop_zero_sectors,
    validate_table,
)
from .testkit import (
    EconomyGenSpec,
    canonical_e2,
    demand_perturbation,
    interdependency_matrix,
    neumann_oracle,
    random_economy,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "DemandDelta",
    "EconomyGenSpec",
    "EmptyEconomyError",
    "ExtractionSpec",
    "FinalDemandBlock",
    "IOModelError",
    "IOTable",
    "ImpactResult",
    "IntermediateSpec",
    "InternalConsistencyError",
    "LeontiefModel",
    "NonProductiveEconomyError",
    "Reallocation",
    "SatelliteAccount",
    "ScenarioConfigError",
    "ScenarioSpec",
    "Sector",
    "StructuralError",
    "TableParseError",
    "TechnicalCoefficients",
    "UseRatio",
    "ValidationReport",
    "apply_blowup",
    "build_delta",
    "build_model",
    "build_scenario1",
    "build_scenario2",
    "canonical_e2",
    "compare_methods",
    "demand_perturbation",
    "disaggregate_aggregate",
    "downstream_importance",
    "drop_zero_sectors",
    "estimate_blowup_factor",
    "extraction_intensities",
    "full_extraction",
    "import_share",
    "inoperability",
    "input_recipe",
    "interdependency_matrix",
    "leontief_inverse",
    "load_io_table",
    "make_extraction_spec",
    "neumann_oracle",
    "output_multipliers",
    "parse_io_table",
    "parse_scenario",
    "partial_extraction",
    "random_economy",
    "satellite_deltas",
    "satellite_multipliers",
    "technical_coefficients",
    "validate_table",
    "write_table_files",
]
