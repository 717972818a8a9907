"""Exception hierarchy shared across the package.

Every error the CLI maps to an exit code derives from HygradError; the
mapping lives in cli.py.
"""

from __future__ import annotations


class HygradError(Exception):
    """Base class for all package errors."""


class UsageError(HygradError):
    """Invalid arguments or configuration supplied by the caller."""


class DataError(HygradError):
    """Input data violates a documented requirement (labels, dimensions...)."""


class ParseError(DataError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ContractViolation(HygradError):
    """An oracle or value broke its declared contract (shape, finiteness...)."""


class NumericalFailure(HygradError):
    """A numerical routine failed. ``step`` locates the failure when known."""

    def __init__(self, message: str, *, step: int | None = None):
        self.step = step
        super().__init__(message)


class SingularMatrixError(NumericalFailure):
    """A linear solve met an effectively singular matrix.

    ``what`` names the operator that failed (e.g. "F_1", "diag(F_1)", "V").
    """

    def __init__(self, message: str, what: str = "matrix"):
        self.what = what
        super().__init__(message)


class CapabilityError(UsageError):
    """The requested operation needs a capability this problem lacks."""


class DomainError(NumericalFailure):
    """A point fell outside the admissible domain of a change of variables."""


class InsufficientDataError(HygradError):
    """Not enough valid rows to perform the requested fit."""
