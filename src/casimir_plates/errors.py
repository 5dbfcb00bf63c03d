"""Exception hierarchy for the package."""


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CasimirError, ValueError):
    """Input lies outside the mathematical domain of the function."""


class PoleError(DomainError):
    """Evaluation was requested at (or too close to) a pole.

    Attributes
    ----------
    location : float
        The pole position in the relevant variable.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConvergenceError(CasimirError, RuntimeError):
    """A series or quadrature failed to converge within the term budget."""


class SlowConvergenceError(ConvergenceError):
    """The chosen representation converges too slowly at this point.

    The message names a better-suited representation.
    """


class UnsupportedRepresentationError(CasimirError, ValueError):
    """The representation does not exist for the requested plate system."""
