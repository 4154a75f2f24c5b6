"""Exception hierarchy shared across the package."""


class IOModelError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(IOModelError):
    """Inputs are malformed at the structural level: mismatched dimensions,
    duplicate or unknown sector codes, missing satellite entries. Distinct
    from accounting-identity violations, which are reported, not raised."""


class TableParseError(StructuralError):
    """A table or satellite file could not be parsed. Carries 1-based
    row/column coordinates of the offending cell where applicable."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class ScenarioConfigError(IOModelError):
    """A scenario specification is invalid: shares that do not sum to one,
    ratios outside [0, 1], unknown sectors, missing required blocks."""


class NonProductiveEconomyError(IOModelError):
    """The coefficient matrix does not admit a convergent production
    expansion; (I - A) cannot be meaningfully inverted."""


class InternalConsistencyError(IOModelError):
    """Two computation routes that must agree did not; this signals a bug,
    not bad input."""
