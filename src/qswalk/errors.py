"""Exception types raised by the public API.

Everything derives from QswError so callers can catch the whole family with
one except clause.  Plain ValueError is still used for malformed arguments
(wrong shapes, out-of-range scalars); the classes here mark *numerical*
failures of otherwise well-posed computations.
"""


class QswError(Exception):
    """Base class for package-specific failures."""


class EdgeListError(QswError):
    """Raised when an edge-list file or string cannot be parsed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConvergenceError(QswError):
    """An iterative or spectral routine failed to reach its tolerance."""


class DegeneracyError(QswError):
    """A computation required a simple eigenvalue but found a degenerate one."""


class DivergenceError(QswError):
    """A trajectory or integration left the numerically trustworthy regime."""


class ZeroActivityError(QswError):
    """A quantity normalized by the total activity was requested at a
    point where the total activity vanishes."""


class SizeBudgetError(QswError):
    """The model has more nodes than dense n^2 x n^2 superoperators are
    built for (``lindblad.DENSE_NODE_LIMIT``); raised before anything of
    that size is allocated."""
