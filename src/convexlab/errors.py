"""Semantic exception hierarchy shared across the lab."""


class LabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DimensionMismatchError(DomainError):
    """A point or matrix has the wrong ambient dimension."""


class ResourceLimitError(LabError):
    """A requested allocation exceeds the configured memory cap."""


class CalibrationMissingError(LabError):
    """A measured-constant record is required but was not supplied."""


class SolverError(LabError):
    """A hull decision, quadrature or eigenvalue solve failed to finish or to
    decide; never treated as accept."""


class BudgetExceededError(LabError):
    """A tester strategy asked for more queries than its budget."""


class FormatError(LabError, ValueError):
    """An instance or report file is malformed, truncated, or mismatched."""
