"""Exception types shared across the package."""


class EvbetError(Exception):
    """Base class for all evbet errors."""


class MeanOutsideSpan(EvbetError):
    """The target mean does not lie between the two support points."""


class OutOfRange(EvbetError):
    """A bet or parameter falls outside its admissible interval."""


class NotAnEVariable(EvbetError):
    """A table failed the validity check required by the operation.

    Carries the violating two-point measure (if one was found) and its
    expectation so callers can report a concrete refutation.
    """

    def __init__(self, message, witness=None, expectation=None):
        super().__init__(message)
        self.witness = witness
        self.expectation = expectation


class DegeneratePosterior(EvbetError):
    """Every quadrature node of a portfolio posterior has been wiped out."""


class DepthTooLarge(EvbetError, ValueError):
    """Tree depth exceeds the combinatorial guard of the operation."""
