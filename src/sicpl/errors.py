"""Exception hierarchy for the analysis toolkit.

Each class carries the command line's exit code for it, and there is one
class per code: ValidationError (2) for bad input, whatever its kind (a
malformed file, a value out of range, conflicting entries), and FitError
(3) for a fit that failed on valid input. The two subclasses of FitError
are the failures a caller catches to try something else.
"""


class SicplError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2


class ValidationError(SicplError):
    """Bad input: a malformed file or a value outside its domain; the
    message names the file, line or value."""


class FitError(SicplError):
    """A fit failed on valid input."""
    exit_code = 3


class EvaluationError(FitError):
    """Model returned NaN/inf during fitting."""


class DegenerateFitError(FitError):
    """Normal matrix is singular; message names the unidentifiable direction."""
