"""Exception hierarchy shared across the toolkit.

Each class carries the stable exit code the CLI ends with: config/usage
problems 1, data validation problems 2, numerical failures 3.
"""


class EskinError(Exception):
    """Base class for all toolkit errors; a data validation problem."""

    exit_code = 2


class ConfigError(EskinError):
    """Invalid configuration value or CLI usage."""

    exit_code = 1


class ProtocolError(ConfigError):
    """Acquisition protocol cannot be materialised (e.g. fewer than 2 nodes)."""


class SchemaError(EskinError):
    """Dataset or bundle schema does not match what the operation expects."""


class ParseError(EskinError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(EskinError):
    """A domain invariant was violated."""


class CoverageError(ValidationError):
    """Training data lacks one or more required classes."""


class DegenerateLabelsError(ValidationError):
    """Classifier training input contains a single class."""


class NumericError(EskinError):
    """Base class for numerical failures."""

    exit_code = 3


class SingularDesignError(NumericError):
    """Rank-deficient regression design; refusing to pseudo-invert silently."""


class FactorizationError(NumericError):
    """A matrix factorisation failed (not positive definite)."""


class NonFiniteError(NumericError):
    """A value to be written to a JSON artifact is NaN or infinite."""


class ConvergenceError(NumericError):
    """An iterative solver reached its iteration cap before converging."""


class UndefinedMetricError(NumericError):
    """Metric is undefined for the given inputs (e.g. zero-variance targets)."""
