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
    """Malformed input text or file: ``path: message (line L, column C)``.

    Attributes:
        message -- what is wrong
        line -- 1-based line number, when known
        column -- 1-based column number, when known
        path -- the file read, when known; an open file is not named
    """

    def __init__(self, message, line=None, column=None, path=None):
        if hasattr(path, "read"):
            path = None
        self.message = message
        self.line = line
        self.column = column
        self.path = path
        where = ", ".join(f"{name} {value}" for name, value in (("line", line), ("column", column))
                          if value is not None)
        text = f"{message} ({where})" if where else message
        super().__init__(text if path is None else f"{path}: {text}")


class UndefinedStatisticError(Error, ValueError):
    """A probability or derived statistic is undefined under the estimator."""


class AlignmentError(Error, ValueError):
    """A proposed segmentation and an annotation cover different sequences."""
