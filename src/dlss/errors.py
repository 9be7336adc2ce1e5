"""Exception types shared across the package."""


class DlssError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveDensity(DlssError):
    """A density field, or a state of a heat flow, has a value at or below
    the positivity floor."""


class SingularJacobian(DlssError):
    """The Newton linear system could not be factorised or solved."""


class NoConvergence(DlssError):
    """Newton iteration exhausted its budget without meeting the tolerance.

    Carries enough context for the caller to decide on a retry with a
    smaller time step.
    """

    def __init__(self, message, iterations=None, residual=None, step_index=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.step_index = step_index


class DegenerateDenominator(DlssError):
    """Quotient evaluated on a field whose denominator functional vanishes."""


class InsufficientData(DlssError):
    """Too few samples inside the requested window for a decay fit."""


class NonPositiveEntropy(DlssError):
    """Entropy samples inside the fit window are not strictly positive."""


class ParseError(DlssError):
    """Malformed line in a run-configuration file."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ValidationError(DlssError, ValueError):
    """Structurally valid configuration with an inadmissible value.

    ``field`` names the rejected attribute or run-file key.  It is a
    ``ValueError`` so that the library's validated constructors can raise it.
    """

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
