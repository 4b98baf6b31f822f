"""Exception types shared across the package."""

__all__ = [
    "AlignmentError",
    "Error",
    "FormatError",
    "ParameterError",
    "UndefinedStatisticError",
    "UnsupportedOrderError",
]


class Error(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(Error, ValueError):
    """An argument or configuration value is invalid."""


class UnsupportedOrderError(ParameterError):
    """An n-gram order is not covered by the count table in use."""


class FormatError(Error, ValueError):
    """Malformed input text or file.

    Attributes:
        line -- 1-based line number, when known
        column -- 1-based column number, when known
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where += f" (line {line}"
            where += f", column {column})" if column is not None else ")"
        elif column is not None:
            where += f" (column {column})"
        super().__init__(message + where)


class UndefinedStatisticError(Error, ValueError):
    """A probability or derived statistic is undefined under the estimator."""


class AlignmentError(Error, ValueError):
    """A proposed segmentation and an annotation cover different sequences."""
