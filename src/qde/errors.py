"""Exception types shared across the package."""


class QdeError(Exception):
    """Base class for computational errors raised by this package."""


class PoleError(QdeError):
    """Evaluation hit a genuine pole (denominator vanishes after reduction)."""


class PrecisionError(QdeError):
    """Working precision ran out: a value needed as a divisor is zero only to that precision."""


class ExponentError(QdeError):
    """A power of q cannot be represented in the active coefficient mode."""


class ConvergenceError(QdeError):
    """A series precondition fails, so the expansion would not converge."""


class ResourceLimitError(QdeError):
    """A guardrail (polynomial degree, level size, iteration cap) was exceeded."""


class PreconditionError(QdeError):
    """A domain condition on the parameters of an operation is violated."""
