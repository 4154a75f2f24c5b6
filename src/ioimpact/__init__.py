"""Leontief input-output engine for demand-shock impact analysis.

Ingests industry-by-industry IO tables with satellite accounts, derives
technical coefficients, the Leontief inverse, and multipliers, and
quantifies demand shocks through normalized-output (inoperability) analysis
and partial hypothetical extraction under configurable demand scenarios.
"""

from .errors import (
    InternalConsistencyError,
    IOModelError,
    NonProductiveEconomyError,
    ScenarioConfigError,
    StructuralError,
    TableParseError,
)
from .impact import (
    ComparisonReport,
    ImpactResult,
    apply_blowup,
    compare_methods,
    estimate_blowup_factor,
    inoperability,
    make_extraction_spec,
    partial_extraction,
)
from .ingest import (
    disaggregate_aggregate,
    load_io_table,
    parse_io_table,
    write_table_files,
)
from .leontief import (
    LeontiefModel,
    build_model,
    downstream_importance,
    import_share,
    input_recipe,
    output_multipliers,
    satellite_multipliers,
)
from .scenario import (
    DemandDelta,
    IntermediateSpec,
    Reallocation,
    ScenarioSpec,
    UseRatio,
    build_delta,
    extraction_intensities,
    parse_scenario,
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

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "DemandDelta",
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
    "UseRatio",
    "ValidationReport",
    "apply_blowup",
    "build_delta",
    "build_model",
    "compare_methods",
    "disaggregate_aggregate",
    "downstream_importance",
    "drop_zero_sectors",
    "estimate_blowup_factor",
    "extraction_intensities",
    "import_share",
    "inoperability",
    "input_recipe",
    "load_io_table",
    "make_extraction_spec",
    "output_multipliers",
    "parse_io_table",
    "parse_scenario",
    "partial_extraction",
    "satellite_multipliers",
    "validate_table",
    "write_table_files",
]
