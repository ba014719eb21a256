"""Exception hierarchy shared across the package: one class per outcome a
caller can act on.

``ConfigError`` is input that does not match the documented schema; the CLI
exits 2.  ``DomainError`` is a value an operation cannot take, and
``NumericError`` a computed value that fails its contract; the CLI exits 3
on both, as a numerical failure.
"""


class CslabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CslabError):
    """Scenario/CLI input does not match the documented schema."""


class DomainError(CslabError, ValueError):
    """A value an operation cannot take."""


class NumericError(CslabError, RuntimeError):
    """A computed value that fails its contract."""
