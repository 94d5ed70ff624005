"""Exception hierarchy shared across the package."""


class ExpdiffError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(ExpdiffError):
    """A parameter violates its admissibility condition."""


class PreconditionError(ExpdiffError):
    """A structural hypothesis required by the operation does not hold."""


class NumericFailureError(ExpdiffError):
    """Quadrature or root finding failed to reach the requested accuracy.

    Carries the achieved error estimate in ``achieved`` when available.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class OutOfRangeError(ExpdiffError):
    """Inversion target lies beyond g(INVERT_CAP)."""


class StiffnessError(ExpdiffError):
    """The time step underflowed, or Newton failed more than
    MAX_NEWTON_FAILURES times before one output time; suggests changing
    grid or parameters."""


class SupportBoundaryError(ExpdiffError):
    """Numerical support reached the outer boundary before the end time."""


class EnvelopeUndefinedError(ExpdiffError):
    """Envelope requested below its large-time validity threshold."""


class FitRefusedError(ExpdiffError):
    """Trajectory does not span enough decades (or lacks a weight) for a fit."""


class MassConservationError(ExpdiffError):
    """Relative mass drift exceeded the conservation tolerance."""
