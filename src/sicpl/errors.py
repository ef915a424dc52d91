"""Exception hierarchy for the analysis toolkit.

Each class carries the command line's exit code for it: 2 for bad input
(the default), 3 for a fit that failed on valid input.
"""


class SicplError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2


class ValidationError(SicplError):
    """Input data violates a type invariant."""


class ParseError(SicplError):
    """Malformed input file; message names the offending line."""


class DomainError(SicplError):
    """Argument outside the mathematical domain of an operation."""


class EvaluationError(SicplError):
    """Model returned NaN/inf during fitting."""
    exit_code = 3


class DegenerateFitError(SicplError):
    """Normal matrix is singular; message names the unidentifiable direction."""
    exit_code = 3


class InsufficientBaselineError(SicplError):
    """Too few pre-pulse bins to estimate the background."""


class InsufficientDataError(SicplError):
    """Not enough usable points for the requested analysis."""
    exit_code = 3


class LineNotFoundError(SicplError):
    """No emission line found inside a search window."""
    exit_code = 3


class ModelInconsistencyError(SicplError):
    """Fitted model leaves systematically negative residuals."""
    exit_code = 3


class ConfigurationError(SicplError):
    """Required derived quantity could not be resolved from the parameters."""


class AggregationError(SicplError):
    """Conflicting entries while bundling reports."""


class NoDataError(SicplError):
    """Empty channel or result list."""
    exit_code = 3
