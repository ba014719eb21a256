"""Exception hierarchy shared across the package.

The CLI maps them to exit codes: a ``ConfigError`` (input that does not
match the documented schema) exits 2, and every other ``CslabError`` exits
3 as a numerical failure.  That includes the structural errors
(``DomainError``, ``PreconditionError``, ``GridMismatchError``,
``CoverageError``), which report a value the computation cannot take, and
``NumericError``, a failure discovered during the computation.
"""


class CslabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CslabError):
    """Scenario/CLI input does not match the documented schema."""


class GridMismatchError(CslabError, ValueError):
    """Two wave functions do not share the same grid."""


class DomainError(CslabError, ValueError):
    """A value lies outside the mathematical domain of an operation."""


class PreconditionError(CslabError, ValueError):
    """A documented precondition (normalization, centering, ...) fails."""


class CoverageError(CslabError, ValueError):
    """A grid window does not cover the requested state."""


class NumericError(CslabError, RuntimeError):
    """A computation could not reach its accuracy contract."""


class AccuracyError(NumericError):
    """Two refinements (or two independent routes) disagree beyond tolerance."""

